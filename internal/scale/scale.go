// Package scale is the fleet-scale harness behind `benchtables
// -scale`: hundreds of in-proc nodes, tens of thousands of concurrent
// itineraries, each node built exactly as fleet.Open builds it for a
// DataDir (one private WAL per store), plus a routing A/B of fixed
// routes against reputation-aware planner routing. Where the paper's
// tables (internal/bench) measure one agent's phases on a three-host
// route, this package measures the deployment envelope: how many
// itineraries per second a fleet sustains, at what tail latency and
// peak RSS, and whether every tampered session is still detected.
package scale

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/host"
	plannerpkg "repro/internal/planner"
	"repro/internal/policy"
	"repro/internal/protection"
)

// sessionCycles is the per-session summation workload: one cycle, as
// the harness measures system overhead, not compute.
const sessionCycles = 1

// seed drives route selection: two runs with the same Config launch
// identical itineraries over identical malicious sets.
const seed = 1

// Config parameterizes one scale run. The zero value is a small smoke
// configuration; `benchtables -scale` drives it to 500+ nodes and
// 10k+ itineraries.
type Config struct {
	// Nodes is the total fleet size: trusted homes plus untrusted
	// workers. 0 means 64.
	Nodes int
	// Homes is how many of the nodes are trusted homes that launch
	// and collect itineraries (round-robin). 0 means Nodes/32+1.
	Homes int
	// Itineraries is the number of concurrent journeys. 0 means
	// 4*Nodes.
	Itineraries int
	// Hops is the number of distinct untrusted workers each itinerary
	// visits before returning home. 0 means 3.
	Hops int
	// Workers is the per-node intake worker count. 0 means 2 (the
	// scale default; core.DefaultWorkers is sized for single-node
	// runs).
	Workers int
	// MaliciousNodes marks that many workers malicious: every session
	// they run manipulates the audited total (the fleet harness's
	// manipulation-of-data attack). Must satisfy
	// MaliciousNodes*2 <= worker count so routes can keep malicious
	// hosts non-adjacent (adjacent cheaters are the example
	// mechanism's documented collusion blind spot, a different
	// scenario). 0 means workers/16.
	MaliciousNodes int
	// Concurrency bounds in-flight itineraries (launched but not yet
	// resolved). 0 means 256.
	Concurrency int
	// Durable gives every node a durable root under DataDir: private
	// WALs for its journal, quarantine and reputation ledger.
	Durable bool
	// DataDir is the root directory for durable state; required when
	// Durable.
	DataDir string
	// Planner routes itineraries through the reputation-aware planner
	// instead of fixed pre-drawn routes: per-home planners pick each
	// hop from staged candidate pools, every node runs ledger-backed
	// admission control plus refuse-when-full intake, and executors
	// replan around refusals, spillovers, and quarantines. Implies
	// StagedLayout.
	Planner bool
	// StagedLayout partitions workers into Hops classes (worker i in
	// class i%Hops; stage j draws from class j) and confines malicious
	// workers to even classes, so no route — fixed or planner-chosen —
	// ever places two malicious workers adjacent (the example
	// mechanism's documented collusion blind spot). RunPlannerAB sets
	// it on the fixed half so both halves share one fleet layout.
	StagedLayout bool
}

// Result is one scale run's measurement.
type Result struct {
	Durable        bool  `json:"durable"`
	Nodes          int   `json:"nodes"`
	Homes          int   `json:"homes"`
	WorkerNodes    int   `json:"worker_nodes"`
	MaliciousNodes int   `json:"malicious_nodes"`
	Itineraries    int   `json:"itineraries"`
	Hops           int   `json:"hops"`
	Seed           int64 `json:"seed"`

	ElapsedMS         float64 `json:"elapsed_ms"`
	ItinerariesPerSec float64 `json:"itineraries_per_sec"`
	P50MS             float64 `json:"p50_ms"`
	P99MS             float64 `json:"p99_ms"`
	PeakRSSMB         float64 `json:"peak_rss_mb"`

	Completed   int `json:"completed"`
	Quarantined int `json:"quarantined"`
	Failed      int `json:"failed"`

	// TamperedSessions counts sessions a malicious worker actually
	// manipulated; DetectedTampered counts how many of those some
	// node's failed verdict blamed; HonestQuarantined counts
	// quarantined itineraries that no malicious worker ever touched
	// (must be zero).
	TamperedSessions  int `json:"tampered_sessions"`
	DetectedTampered  int `json:"detected_tampered"`
	HonestQuarantined int `json:"honest_quarantined"`

	// WAL fsync amortization of the nodes' journal and quarantine WALs,
	// summed fleet-wide from node/metrics. Zero for memory-only runs.
	WALAppends   int64   `json:"wal_appends"`
	WALSyncs     int64   `json:"wal_syncs"`
	WALMeanBatch float64 `json:"wal_mean_batch"`

	// Planner-mode accounting (zero for fixed-route runs).
	// AdmissionRefused/IntakeRefused sum the fleet's node/metrics
	// refusal counters; Replans and Spillovers sum executor reroutes;
	// ShedItineraries counts itineraries that had at least one attempt
	// shed by remote admission control. UndetectedTampered is the gate
	// input: tampered sessions that were neither blamed by a failed
	// verdict nor carried by a shed attempt — must be zero.
	AdmissionRefused   int64 `json:"admission_refused"`
	IntakeRefused      int64 `json:"intake_refused"`
	Replans            int   `json:"replans"`
	Spillovers         int   `json:"spillovers"`
	ShedItineraries    int   `json:"shed_itineraries"`
	UndetectedTampered int   `json:"undetected_tampered"`
}

// DetectionMatch is a fixed-route run's safety gate: something was
// tampered, every tampered session was detected, and no honest
// itinerary was quarantined.
func (r Result) DetectionMatch() bool {
	return r.TamperedSessions > 0 &&
		r.DetectedTampered == r.TamperedSessions &&
		r.HonestQuarantined == 0
}

func (c *Config) fill() error {
	if c.Nodes <= 0 {
		c.Nodes = 64
	}
	if c.Homes <= 0 {
		c.Homes = c.Nodes/32 + 1
	}
	if c.Homes >= c.Nodes {
		return fmt.Errorf("scale: %d homes leave no workers among %d nodes", c.Homes, c.Nodes)
	}
	if c.Itineraries <= 0 {
		c.Itineraries = 4 * c.Nodes
	}
	if c.Hops <= 0 {
		c.Hops = 3
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	workers := c.Nodes - c.Homes
	if workers < c.Hops+1 {
		return fmt.Errorf("scale: %d workers cannot host %d-hop itineraries of distinct workers", workers, c.Hops)
	}
	if c.MaliciousNodes == 0 {
		c.MaliciousNodes = workers / 16
	}
	if c.MaliciousNodes < 0 || c.MaliciousNodes*2 > workers {
		return fmt.Errorf("scale: %d malicious of %d workers cannot be kept non-adjacent on routes (collusion is out of scope)", c.MaliciousNodes, workers)
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 256
	}
	if c.Planner {
		c.StagedLayout = true
	}
	if c.StagedLayout {
		evenClass := 0
		for i := 0; i < workers; i++ {
			if (i%c.Hops)%2 == 0 {
				evenClass++
			}
		}
		if c.MaliciousNodes > evenClass {
			return fmt.Errorf("scale: %d malicious workers exceed the %d even-class slots of the staged layout", c.MaliciousNodes, evenClass)
		}
	}
	if c.Durable && c.DataDir == "" {
		return fmt.Errorf("scale: Durable requires DataDir")
	}
	return nil
}

// pickRoute draws cfg.Hops distinct workers, never placing a
// malicious worker immediately after another (the route-level mirror
// of the fleet harness's non-adjacency rule). Deterministic given the
// rng state.
func pickRoute(rng *rand.Rand, workers int, malicious map[int]bool, hops int) ([]int, error) {
	route := make([]int, 0, hops)
	used := make(map[int]bool, hops)
	prevMal := false
	for len(route) < hops {
		picked := -1
		for try := 0; try < 64; try++ {
			w := rng.Intn(workers)
			if used[w] || (prevMal && malicious[w]) {
				continue
			}
			picked = w
			break
		}
		if picked < 0 {
			// Deterministic fallback: scan from a random offset.
			off := rng.Intn(workers)
			for i := 0; i < workers; i++ {
				w := (off + i) % workers
				if !used[w] && !(prevMal && malicious[w]) {
					picked = w
					break
				}
			}
		}
		if picked < 0 {
			return nil, fmt.Errorf("scale: no admissible worker for hop %d of %d", len(route), hops)
		}
		route = append(route, picked)
		used[picked] = true
		prevMal = malicious[picked]
	}
	return route, nil
}

// maliciousSpread marks m of w workers malicious, spread evenly.
func maliciousSpread(w, m int) map[int]bool {
	set := make(map[int]bool, m)
	for i := 0; i < m && i < w; i++ {
		set[i*w/m] = true
	}
	return set
}

// maliciousSpreadStaged confines the m malicious workers to even hop
// classes of the staged layout, spread evenly over those slots:
// consecutive stages alternate even/odd classes, so no route drawn
// class-per-stage can place two malicious workers adjacent.
func maliciousSpreadStaged(w, m, hops int) map[int]bool {
	var cands []int
	for i := 0; i < w; i++ {
		if (i%hops)%2 == 0 {
			cands = append(cands, i)
		}
	}
	set := make(map[int]bool, m)
	for i := 0; i < m && i < len(cands); i++ {
		set[cands[i*len(cands)/m]] = true
	}
	return set
}

// pickStagedRoute draws one worker per hop class: stage j gets a
// uniform pick among workers congruent to j mod hops. Distinctness is
// structural (classes are disjoint), and with maliciousSpreadStaged
// so is non-adjacency.
func pickStagedRoute(rng *rand.Rand, workers, hops int) []int {
	route := make([]int, hops)
	for j := 0; j < hops; j++ {
		classSize := (workers - j + hops - 1) / hops
		route[j] = j + rng.Intn(classSize)*hops
	}
	return route
}

// Run executes one scale measurement.
func Run(cfg Config) (Result, error) {
	if err := cfg.fill(); err != nil {
		return Result{}, err
	}
	workerCount := cfg.Nodes - cfg.Homes
	res := Result{
		Durable: cfg.Durable,
		Nodes:   cfg.Nodes, Homes: cfg.Homes, WorkerNodes: workerCount,
		MaliciousNodes: cfg.MaliciousNodes, Itineraries: cfg.Itineraries,
		Hops: cfg.Hops, Seed: seed,
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Minute)
	defer cancel()
	f, err := fleet.New("scale-owner")
	if err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(seed))

	// Ground truth and detection ledgers, shared across nodes.
	var mu sync.Mutex
	tampered := make(map[string]bool)
	tamperedAgents := make(map[string]bool)
	detected := make(map[string]bool)
	malicious := maliciousSpread(workerCount, cfg.MaliciousNodes)
	if cfg.StagedLayout {
		malicious = maliciousSpreadStaged(workerCount, cfg.MaliciousNodes, cfg.Hops)
	}
	maliciousName := make(map[string]bool, len(malicious))

	homes := make([]string, cfg.Homes)
	for i := range homes {
		homes[i] = fmt.Sprintf("h%03d", i)
	}
	workers := make([]string, workerCount)
	for i := range workers {
		workers[i] = fmt.Sprintf("w%04d", i)
		if malicious[i] {
			maliciousName[workers[i]] = true
		}
	}

	defer f.Close()

	addNode := func(name string, trusted bool, behavior host.Behavior) error {
		spec := fleet.Spec{
			Host:  host.Config{Name: name, Trusted: trusted, Behavior: behavior},
			Level: protection.LevelAdaptive,
			Protection: protection.Options{
				// First offense quarantines: detection outcomes become a
				// pure function of routes and malicious placement, so every
				// tampered session must be detected and two runs with the
				// same seed are comparable session for session.
				AdaptivePolicy: policy.ReputationConfig{FirstOffenseQuarantines: true},
			},
			Node: core.NodeConfig{
				Workers:    cfg.Workers,
				QueueDepth: cfg.Concurrency + 1,
				OnVerdict: func(v core.Verdict) {
					if v.OK {
						return
					}
					mu.Lock()
					if maliciousName[v.CheckedHost] {
						detected[fleet.SessionKey(v.AgentID, v.CheckedHop)] = true
					}
					mu.Unlock()
				},
			},
		}
		if cfg.Planner {
			// The full routing loop: admission sheds deliveries from
			// over-threshold senders, refuse-when-full turns queue
			// pressure into the spillover signal executors replan on.
			//
			// Admission at the escalation threshold, not the production
			// default: with FirstOffenseQuarantines a single failed check
			// is a confirmed offense, but it adds exactly one
			// DefaultFailureWeight (1.0) of suspicion, which decays
			// below the 1.0 production threshold before any later
			// delivery reads it. 0.5 makes one confirmed offense refuse follow-on
			// deliveries for the rest of the run, matching the harness's
			// one-strike verdict policy.
			spec.Protection.AdmissionThreshold = policy.DefaultEscalateThreshold
			spec.Node.RefuseWhenFull = true
		}
		if cfg.Durable {
			spec.DataDir = filepath.Join(cfg.DataDir, name)
		}
		_, err := f.Add(spec)
		return err
	}

	for _, name := range homes {
		if err := addNode(name, true, nil); err != nil {
			return Result{}, err
		}
	}
	for i, name := range workers {
		var behavior host.Behavior
		if malicious[i] {
			behavior = fleet.Tamperer{OnSession: func(agentID string, hop int) {
				mu.Lock()
				tampered[fleet.SessionKey(agentID, hop)] = true
				tamperedAgents[agentID] = true
				mu.Unlock()
			}}
		}
		if err := addNode(name, false, behavior); err != nil {
			return Result{}, err
		}
	}

	// Fixed mode: build every itinerary before the clock starts —
	// route, wire image, and receipts on the involved nodes. Planner
	// mode defers all of that to the per-home executors.
	wires := make([][]byte, cfg.Itineraries)
	agentIDs := make([]string, cfg.Itineraries)
	itinHome := make([]string, cfg.Itineraries)
	receipts := make([][]*core.Receipt, cfg.Itineraries)
	for i := 0; i < cfg.Itineraries && !cfg.Planner; i++ {
		var routeIdx []int
		if cfg.StagedLayout {
			routeIdx = pickStagedRoute(rng, workerCount, cfg.Hops)
		} else {
			var err error
			routeIdx, err = pickRoute(rng, workerCount, malicious, cfg.Hops)
			if err != nil {
				return Result{}, err
			}
		}
		route := make([]string, len(routeIdx))
		for j, w := range routeIdx {
			route[j] = workers[w]
		}
		home := homes[i%cfg.Homes]
		id := fmt.Sprintf("itin-%06d", i)
		wire, err := f.AuditedAgent(id, fleet.RouteCode(home, route, sessionCycles))
		if err != nil {
			return Result{}, err
		}
		wires[i] = wire
		agentIDs[i] = id
		itinHome[i] = home
		receipts[i] = append(receipts[i], f.Member(home).Node.Watch(id))
		for _, w := range route {
			receipts[i] = append(receipts[i], f.Member(w).Node.Watch(id))
		}
	}

	// Planner mode: one planner+executor per home, reading the home
	// stack's live ledger and sharing one staged candidate pool set.
	var stages []plannerpkg.Stage
	executors := make(map[string]*plannerpkg.Executor, cfg.Homes)
	if cfg.Planner {
		pools := make([][]string, cfg.Hops)
		for i, w := range workers {
			c := i % cfg.Hops
			pools[c] = append(pools[c], w)
		}
		stages = make([]plannerpkg.Stage, cfg.Hops)
		for j := range stages {
			stages[j] = plannerpkg.Stage{Candidates: pools[j]}
		}
		nodes := plannerpkg.NodeFleet(f.Nodes())
		for hi, home := range homes {
			pl := plannerpkg.New(plannerpkg.Config{
				Home:      home,
				Seed:      seed + int64(hi) + 1,
				Suspicion: f.Member(home).Stack.Ledger.Suspicion,
			})
			executors[home] = &plannerpkg.Executor{
				Planner:     pl,
				Fleet:       nodes,
				MaxAttempts: 16,
				Build: func(agentID string, route []string) ([]byte, error) {
					return f.AuditedAgent(agentID, fleet.RouteCode(home, route, sessionCycles))
				},
			}
		}
	}

	// Launch with bounded in-flight itineraries: each launcher owns a
	// strided slice of the itinerary space, so per-itinerary latency
	// covers launch through terminal receipt.
	const (
		outcomeCompleted = iota
		outcomeQuarantined
		outcomeFailed
	)
	latencies := make([]time.Duration, cfg.Itineraries)
	outcomes := make([]int, cfg.Itineraries)
	pool := cfg.Concurrency
	if pool > cfg.Itineraries {
		pool = cfg.Itineraries
	}
	var wg sync.WaitGroup
	var errOnce sync.Once
	var runErr error
	fail := func(err error) {
		errOnce.Do(func() {
			runErr = err
			cancel()
		})
	}
	plannerResults := make([]plannerpkg.RunResult, cfg.Itineraries)
	resetPeakRSS()
	begin := time.Now()
	for g := 0; g < pool; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < cfg.Itineraries; i += pool {
				if cfg.Planner {
					home := homes[i%cfg.Homes]
					start := time.Now()
					r := executors[home].Execute(ctx, plannerpkg.Itinerary{
						ID:     fmt.Sprintf("itin-%06d", i),
						Stages: stages,
					})
					latencies[i] = time.Since(start)
					plannerResults[i] = r
					switch {
					case r.Completed:
						outcomes[i] = outcomeCompleted
					case errors.Is(r.Err, core.ErrDetection):
						outcomes[i] = outcomeQuarantined
					default:
						outcomes[i] = outcomeFailed
					}
					continue
				}
				start := time.Now()
				if err := f.Net().SendAgent(ctx, itinHome[i], wires[i]); err != nil {
					fail(fmt.Errorf("scale: launching itinerary %d: %w", i, err))
					return
				}
				out, err := core.AwaitAny(ctx, receipts[i]...)
				latencies[i] = time.Since(start)
				switch {
				case err == nil:
					outcomes[i] = outcomeCompleted
				case errors.Is(err, core.ErrDetection):
					outcomes[i] = outcomeQuarantined
				case out.Err != nil:
					outcomes[i] = outcomeFailed
				default:
					fail(fmt.Errorf("scale: itinerary %d: %w", i, err))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(begin)
	if runErr != nil {
		return Result{}, runErr
	}

	res.ElapsedMS = float64(elapsed.Microseconds()) / 1e3
	if elapsed > 0 {
		res.ItinerariesPerSec = float64(cfg.Itineraries) / elapsed.Seconds()
	}
	for i := range outcomes {
		switch outcomes[i] {
		case outcomeCompleted:
			res.Completed++
		case outcomeQuarantined:
			res.Quarantined++
		default:
			res.Failed++
		}
	}

	sorted := append([]time.Duration(nil), latencies...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	res.P50MS = float64(percentile(sorted, 0.50).Microseconds()) / 1e3
	res.P99MS = float64(percentile(sorted, 0.99).Microseconds()) / 1e3
	res.PeakRSSMB = peakRSSMB()

	shedAgents := make(map[string]bool)
	if cfg.Planner {
		for i := range plannerResults {
			r := &plannerResults[i]
			res.Replans += r.Replans
			res.Spillovers += r.Spillovers
			if len(r.ShedAgentIDs) > 0 {
				res.ShedItineraries++
			}
			for _, id := range r.ShedAgentIDs {
				shedAgents[id] = true
			}
		}
	}
	mu.Lock()
	res.TamperedSessions = len(tampered)
	for k := range tampered {
		if detected[k] {
			res.DetectedTampered++
			continue
		}
		// A tampered session on a shed attempt was never checked — its
		// sender was refused intake downstream instead. That is the
		// admission path working, not a miss; anything else is.
		if id, _, ok := strings.Cut(k, "#"); !ok || !shedAgents[id] {
			res.UndetectedTampered++
		}
	}
	if cfg.Planner {
		for i := range plannerResults {
			r := &plannerResults[i]
			if r.Quarantines == 0 && !errors.Is(r.Err, core.ErrDetection) {
				continue
			}
			touched := false
			for _, id := range r.AgentIDs {
				if tamperedAgents[id] {
					touched = true
					break
				}
			}
			if !touched {
				res.HonestQuarantined++
			}
		}
	} else {
		for i := range outcomes {
			if outcomes[i] == outcomeQuarantined && !tamperedAgents[agentIDs[i]] {
				res.HonestQuarantined++
			}
		}
	}
	mu.Unlock()

	// Fleet-wide backend counters via the node/metrics built-in (the
	// same surface agentctl reads).
	var syncedRecords int64
	for _, m := range f.Members() {
		body, err := m.Node.HandleCall(ctx, "node/metrics", core.MetricsCallBody())
		if err != nil {
			return Result{}, fmt.Errorf("scale: node/metrics: %w", err)
		}
		mr, err := core.DecodeMetricsReply(body)
		if err != nil {
			return Result{}, err
		}
		for _, w := range mr.WALs {
			res.WALAppends += w.Stats.Appends
			res.WALSyncs += w.Stats.Syncs
			syncedRecords += w.Stats.SyncedRecords
		}
		res.AdmissionRefused += mr.AdmissionRefused
		res.IntakeRefused += mr.IntakeRefused
	}
	if res.WALSyncs > 0 {
		res.WALMeanBatch = float64(syncedRecords) / float64(res.WALSyncs)
	}
	return res, nil
}

// PlannerAB is one routing A/B: the same fleet, seed, and
// staged malicious layout measured with fixed pre-drawn routes, then
// with reputation-aware planner routing plus admission control.
type PlannerAB struct {
	Fixed   Result `json:"fixed"`
	Planner Result `json:"planner"`
	// SpeedupItinPerSec is planner-routed throughput over fixed.
	SpeedupItinPerSec float64 `json:"speedup_itins_per_sec"`
	// DetectionMatch is the safety gate: on the fixed half every
	// tampered session is detected; on the planner half every tampered
	// session is detected or its attempt was shed by admission control;
	// zero honest quarantines on both halves.
	DetectionMatch bool `json:"detection_match"`
}

// RunPlannerAB measures the same configuration with fixed routes then
// with planner routing. Both halves share the staged worker layout so
// the malicious placement is identical.
func RunPlannerAB(cfg Config) (PlannerAB, error) {
	fx := cfg
	fx.Planner = false
	fx.StagedLayout = true
	if cfg.Durable && cfg.DataDir != "" {
		fx.DataDir = filepath.Join(cfg.DataDir, "fixed")
	}
	fixed, err := Run(fx)
	if err != nil {
		return PlannerAB{}, fmt.Errorf("scale: fixed-route run: %w", err)
	}

	pr := cfg
	pr.Planner = true
	if cfg.Durable && cfg.DataDir != "" {
		pr.DataDir = filepath.Join(cfg.DataDir, "planner")
	}
	planned, err := Run(pr)
	if err != nil {
		return PlannerAB{}, fmt.Errorf("scale: planner-routed run: %w", err)
	}

	ab := PlannerAB{Fixed: fixed, Planner: planned}
	if fixed.ItinerariesPerSec > 0 {
		ab.SpeedupItinPerSec = planned.ItinerariesPerSec / fixed.ItinerariesPerSec
	}
	ab.DetectionMatch = fixed.DetectionMatch() &&
		planned.UndetectedTampered == 0 &&
		planned.HonestQuarantined == 0
	return ab, nil
}

// percentile reads the q-quantile from an ascending slice.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// peakRSSMB reads the process peak resident set (VmHWM) in MiB;
// outside Linux it falls back to the Go heap's current footprint.
func peakRSSMB() float64 {
	if kb, ok := readVmHWMKB(); ok {
		return float64(kb) / 1024
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapSys) / (1024 * 1024)
}

func readVmHWMKB() (int64, bool) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0, false
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0, false
		}
		return kb, true
	}
	return 0, false
}

// resetPeakRSS asks the kernel to restart peak-RSS accounting so each
// A/B half reports its own high-water mark; best effort (requires
// Linux and write access to /proc/self/clear_refs).
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5\n"), 0)
}
