package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// stateRoot is where durable workloads keep their WALs and where trace
// files go: inside the checkout, ignored by git.
const stateRoot = ".bench_build"

// How --seconds is divided. A plain run measures the solo phase, then
// the loaded phase; a traced run also needs an untraced reference, an
// unprotected reference and the direct timed calls.
const (
	soloShare   = 0.40
	loadedShare = 0.60

	tracedRefShare    = 0.12 // loaded phase run twice, untraced then traced, each after a warm-up half as long
	tracedSoloShare   = 0.18
	tracedLoadedShare = 0.18
	tracedPlainShare  = 0.08 // LevelNone solo phase, for protection.overhead_factor
	tracedMicroShare  = 0.20
)

// phaseDeadline bounds one phase: an itinerary with no receipt by then
// is a failed operation.
const phaseDeadline = 150 * time.Second

// overrun is how far past its share of --seconds a phase may still
// launch. The itinerary counts are sized for the parent commit on a
// 2-core box; on a machine this much slower the counts shrink instead
// of the run growing.
const overrun = 1.4

// prepared is a fleet with the agents of its phases built and signed.
type prepared struct {
	f      *fleet
	dir    string // durable state, removed on close; "" if none
	phases [][]itinerary
	wires  [][][]byte
}

func (p *prepared) close() error {
	var err error
	if p.f != nil {
		err = p.f.close()
	}
	if p.dir != "" {
		if rmErr := os.RemoveAll(p.dir); err == nil {
			err = rmErr
		}
	}
	return err
}

// prepare does everything that precedes the first launch: keys, fleet,
// and one parsed, signed and marshalled agent per itinerary of each
// phase. counts[i] itineraries are drawn for phase i.
func prepare(w workload, sh shape, seed int64, spec fleetSpec, counts ...int) (_ *prepared, err error) {
	spec.homes = sh.homes
	spec.malicious = maliciousSpread(sh.workers, (w.malicious*sh.workers+fullShape.workers-1)/fullShape.workers)
	if spec.plain {
		// An unprotected fleet detects nothing, so ground truth can only
		// be met where nobody tampers.
		spec.malicious = make([]bool, sh.workers)
	}
	spec.tcp = w.tcp
	spec.window = loadedWindow
	p := &prepared{}
	if w.durable {
		if err := os.MkdirAll(stateRoot, 0o755); err != nil {
			return nil, err
		}
		if p.dir, err = os.MkdirTemp(stateRoot, "state-"); err != nil {
			return nil, err
		}
		spec.dataDir = p.dir
	}
	defer func() {
		if err != nil {
			p.close()
		}
	}()
	if p.f, err = buildFleet(spec); err != nil {
		return nil, err
	}
	for i, n := range counts {
		// Each phase draws from its own stream, so changing one phase's
		// count leaves the other phases' itineraries as they were.
		its := planItineraries(seed*16+int64(i), "p"+strconv.Itoa(i), n, sh.homes, spec.malicious)
		wires := make([][]byte, n)
		for j := range its {
			if wires[j], err = p.f.buildAgent(its[j].id, agentCode(&its[j], w.cycles, w.inputs)); err != nil {
				return nil, err
			}
		}
		p.phases = append(p.phases, its)
		p.wires = append(p.wires, wires)
	}
	return p, nil
}

// phaseResult is what one phase measured.
type phaseResult struct {
	attempted int
	failed    int
	firstFail string
	tampered  int // itineraries a malicious worker manipulated, by ground truth
	detected  int // of those, stopped at the next hop with that worker blamed
	visits    int // nodes that processed an agent, summed
	predicted int // sessions ground truth says were manipulated

	latencies []float64 // launch to terminal receipt, ms
	// marks holds both clocks at the start and after every chunk-th
	// completion: the phase cut into slices of equal work.
	marks []mark
	chunk int
}

// mark is one reading of both clocks.
type mark struct {
	wall time.Duration
	cpu  time.Duration
}

// slices is how many runs of equal work a phase is cut into. On a
// shared box a neighbour's burst slows the slices it overlaps and
// speeds none up, so the better quartile of the slices is a steadier
// estimate of what the code costs than the whole phase: with 16 in
// flight the whole-phase rate of one seed moved 10 % under an
// intermittent one-core load that moved the upper-quartile slice 2 %.
// A slice of the loaded phase is about a second long, so it still
// contains its share of collector cycles and WAL flushes.
const slices = 12

// quantile reads the q-quantile of the values (nearest rank), 0 if
// there are none.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	return v[int(q*float64(len(v)-1)+0.5)]
}

// perSecond is the phase's throughput: the upper quartile of its
// slices' rates.
func (r *phaseResult) perSecond() float64 {
	var rates []float64
	for k := 1; k < len(r.marks); k++ {
		rates = append(rates, float64(r.chunk)/(r.marks[k].wall-r.marks[k-1].wall).Seconds())
	}
	return quantile(rates, 0.75)
}

// cpuMsPerItin is the phase's CPU cost: the lower quartile of its
// slices' user+sys CPU per itinerary.
func (r *phaseResult) cpuMsPerItin() float64 {
	var costs []float64
	for k := 1; k < len(r.marks); k++ {
		costs = append(costs, float64(r.marks[k].cpu-r.marks[k-1].cpu)/1e6/float64(r.chunk))
	}
	return quantile(costs, 0.25)
}

// runPhase drives the itineraries through the fleet from this one
// goroutine, window at a time: launch, and as each terminal receipt
// resolves check it against ground truth and launch the next. The
// receipt is registered at launch time, on the node ground truth says
// the journey ends at; an itinerary that ends elsewhere, or nowhere,
// has no receipt by the deadline and counts as failed. No itinerary is
// launched after limit has passed, so a slow machine measures fewer
// itineraries rather than running long.
func runPhase(f *fleet, its []itinerary, wires [][]byte, window int, limit time.Duration, tr *tracer) phaseResult {
	ctx, cancel := context.WithTimeout(context.Background(), phaseDeadline)
	defer cancel()
	problems := make([]string, len(its))
	visits := make([]int, len(its))
	lat := make([]time.Duration, len(its))
	slots := make(chan struct{}, window)
	chunk := max(len(its)/slices, 1)
	marks := make([]mark, 1, slices+1)
	var markMu sync.Mutex
	var completed atomic.Int64
	var wg sync.WaitGroup
	begin, cpu0 := time.Now(), cpuTime()
	launched := 0
	for i := range its {
		select {
		case slots <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil || time.Since(begin) > limit {
			break
		}
		launched++
		it := &its[i]
		w := f.watch(it.terminal, it.id)
		start := time.Now()
		var t0 int64
		lctx := ctx
		if tr != nil {
			if window == 1 {
				tr.setSolo(it.id)
			}
			t0 = tr.now()
			lctx = withItin(ctx, it.id)
		}
		err := f.launch(lctx, it.home, wires[i])
		if tr != nil {
			tr.add(spanSend, it.id, ownerNode, t0, tr.now())
		}
		if err != nil {
			problems[i] = "launch: " + err.Error()
			<-slots
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-slots }()
			select {
			case <-w.done():
				lat[i] = time.Since(start)
				if completed.Add(1)%int64(chunk) == 0 {
					m := mark{time.Since(begin), cpuTime() - cpu0}
					markMu.Lock()
					marks = append(marks, m)
					markMu.Unlock()
				}
				if tr != nil {
					tr.add(spanItinerary, it.id, ownerNode, t0, tr.now())
				}
				o := w.outcome()
				problems[i] = it.check(o)
				visits[i] = o.visits
			case <-ctx.Done():
				problems[i] = "no receipt within the deadline"
			}
			if problems[i] != "" {
				cancel() // one failure already fails the run; do not wait out the rest
			}
		}(i)
	}
	wg.Wait()
	if tr != nil {
		tr.setSolo("")
	}
	sort.Slice(marks, func(a, b int) bool { return marks[a].wall < marks[b].wall })
	res := phaseResult{attempted: launched, marks: marks, chunk: chunk}
	for i := 0; i < launched; i++ {
		if its[i].tamperer != "" {
			res.predicted++
		}
		if problems[i] != "" {
			res.failed++
			if res.firstFail == "" {
				res.firstFail = fmt.Sprintf("%s via %v: %s", its[i].id, its[i].route, problems[i])
			}
			continue
		}
		res.visits += visits[i]
		res.latencies = append(res.latencies, float64(lat[i])/1e6)
		if its[i].tamperer != "" {
			res.tampered++
			res.detected++ // check accepted it: stopped at the next hop, that worker blamed
		}
	}
	return res
}

func mean(values []float64) float64 {
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(max(len(values), 1))
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// resetPeakRSS restarts the kernel's peak accounting, so the peak is
// that of the measured phases and not of the repeated set-up. Best
// effort: where /proc refuses, the peak covers the whole process.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5\n"), 0) }

// count turns a rate and a share of the run into a phase's itinerary
// count, and limit into the time after which it launches no more.
func count(rate, share, seconds float64) int {
	return max(int(rate*share*seconds+0.5), 5)
}

func limit(share, seconds float64) time.Duration {
	return max(time.Duration(overrun*share*seconds*float64(time.Second)), 5*time.Second)
}
