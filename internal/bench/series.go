package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/host"
	"repro/internal/proof"
	"repro/internal/protection"
	"repro/internal/replication"
	"repro/internal/value"
	"repro/internal/vigna"
)

// The sweep series of DESIGN.md §6. Each regenerates one analytic
// claim from the paper as a data series.

// SeriesPoint is one (x, columns...) row of a series.
type SeriesPoint struct {
	Label  string
	Values map[string]float64
}

// FormatSeries renders a series as an aligned table.
func FormatSeries(w io.Writer, title string, cols []string, points []SeriesPoint) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-28s", "")
	for _, c := range cols {
		fmt.Fprintf(w, " %14s", c)
	}
	fmt.Fprintln(w)
	for _, p := range points {
		fmt.Fprintf(w, "%-28s", p.Label)
		for _, c := range cols {
			fmt.Fprintf(w, " %14.2f", p.Values[c])
		}
		fmt.Fprintln(w)
	}
}

// SeriesOverhead (Series A) sweeps the computation share: overall
// overhead factor of the protected agent vs cycles, for 1 and 100
// inputs. The paper's analytic claim (§4.1, §6): the factor approaches
// the 4-executions/3-executions ratio (~1.33) as computation dominates
// and rises toward ~2 for input-dominated agents.
func SeriesOverhead(cycles []int, inputs []int) ([]SeriesPoint, error) {
	var points []SeriesPoint
	for _, in := range inputs {
		for _, c := range cycles {
			w := Workload{Inputs: in, Cycles: c}
			plain, err := RunPlain(w)
			if err != nil {
				return nil, err
			}
			prot, err := RunProtected(w)
			if err != nil {
				return nil, err
			}
			_, _, _, fo := prot.Factor(plain)
			points = append(points, SeriesPoint{
				Label: w.String(),
				Values: map[string]float64{
					"plain_ms":  float64(plain.Overall.Microseconds()) / 1000,
					"prot_ms":   float64(prot.Overall.Microseconds()) / 1000,
					"factor":    fo,
					"cycle_pct": 100 * float64(plain.Cycle) / float64(plain.Overall+1),
				},
			})
		}
	}
	return points, nil
}

// replicaDeployment builds s stages of n replicas on an in-process
// fleet; the caller closes it.
func replicaDeployment(stages, n int) (*fleet.Fleet, *replication.Coordinator, error) {
	f, err := fleet.New("owner")
	if err != nil {
		return nil, nil, err
	}
	coord := &replication.Coordinator{Net: f.Net(), Registry: f.Reg}
	for s := 0; s < stages; s++ {
		var names []string
		for r := 0; r < n; r++ {
			name := fmt.Sprintf("s%dr%d", s, r)
			names = append(names, name)
			if _, err := f.Add(fleet.Spec{
				Host: host.Config{
					Name:      name,
					Resources: map[string]value.Value{"offer": value.Int(21)},
					RandSeed:  42,
				},
				Mechanisms: []core.Mechanism{replication.New()},
			}); err != nil {
				return nil, nil, errors.Join(err, f.Close())
			}
		}
		coord.Stages = append(coord.Stages, names)
	}
	return f, coord, nil
}

const replicaCode = `
proc main() {
    offer = read("offer")
    work()
    migrate("next", "second")
}
proc second() {
    work()
    result = offer * 2
    done()
}
proc work() {
    let s = 0
    let j = 0
    while j < 5000 { s = s + j j = j + 1 }
    sum = s
}`

// SeriesReplication (Series B) sweeps the replica-set size: execution
// cost grows with n while the tolerated number of identical colluders
// is ceil(n/2)-1 (§3.2).
func SeriesReplication(sizes []int) ([]SeriesPoint, error) {
	var base time.Duration
	var points []SeriesPoint
	for _, n := range sizes {
		ag, err := agent.New(fmt.Sprintf("rep-%d", n), "owner", replicaCode, "main")
		if err != nil {
			return nil, err
		}
		f, coord, err := replicaDeployment(2, n)
		if err != nil {
			return nil, err
		}
		begin := time.Now()
		rep, err := coord.Run(context.Background(), ag)
		elapsed := time.Since(begin)
		if err := errors.Join(err, f.Close()); err != nil {
			return nil, fmt.Errorf("bench: replication n=%d: %w", n, err)
		}
		if rep.Final.State["result"].Int != 42 {
			return nil, fmt.Errorf("bench: replication n=%d wrong result", n)
		}
		if base == 0 {
			base = elapsed
		}
		points = append(points, SeriesPoint{
			Label: fmt.Sprintf("n=%d replicas/stage", n),
			Values: map[string]float64{
				"time_ms":   float64(elapsed.Microseconds()) / 1000,
				"cost_vs_1": float64(elapsed) / float64(base),
				"tolerated": float64(replication.MaxTolerated(n)),
			},
		})
	}
	return points, nil
}

// journey runs one agent from "home" across a fresh in-process fleet of
// the named hosts (trusted iff named home*, each offering 10) and
// returns the fleet with the agent as it came back. The owner's
// audit runs against the still-open fleet; the caller closes it.
func journey(hosts []string, protect func() fleet.Spec, id, code string) (_ *fleet.Fleet, _ *agent.Agent, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	f, err := fleet.New("owner")
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if err != nil {
			_ = f.Close()
		}
	}()
	for _, name := range hosts {
		spec := protect() // mechanism instances are per node
		spec.Host = host.Config{
			Name:      name,
			Trusted:   strings.HasPrefix(name, "home"),
			Resources: map[string]value.Value{"offer": value.Int(10)},
		}
		if _, err := f.Add(spec); err != nil {
			return nil, nil, err
		}
	}
	ag, err := agent.New(id, "owner", code, "main")
	if err != nil {
		return nil, nil, err
	}
	res, err := f.Run(ctx, "home", ag)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: agent %s did not complete: %w", id, err)
	}
	return f, res.Agent, nil
}

// tracedDeployment runs the home -> h1 -> h2 -> home2 journey at
// LevelTraces.
func tracedDeployment(cycles int) (*fleet.Fleet, *agent.Agent, error) {
	code := fmt.Sprintf(`
proc main() {
    total = 0
    work()
    migrate("h1", "visit")
}
proc visit() {
    total = total + read("offer")
    work()
    if here() == "h1" { migrate("h2", "visit") } else { migrate("home2", "finish") }
}
proc finish() { done() }
proc work() {
    let c = 0
    while c < %d {
        let s = 0
        let j = 0
        while j < 100 { s = s + j j = j + 1 }
        sum = s
        c = c + 1
    }
}`, cycles)
	return journey([]string{"home", "h1", "h2", "home2"}, func() fleet.Spec {
		return fleet.Spec{Level: protection.LevelTraces}
	}, fmt.Sprintf("trace-%d", cycles), code)
}

// SeriesTrace (Series C) sweeps executed statements: trace length
// grows linearly and audit cost tracks re-execution cost (§3.3: "the
// length of a trace increases with every execution step").
func SeriesTrace(cycles []int) ([]SeriesPoint, error) {
	var points []SeriesPoint
	for _, c := range cycles {
		p, err := tracePoint(c)
		if err != nil {
			return nil, err
		}
		points = append(points, p)
	}
	return points, nil
}

func tracePoint(cycles int) (SeriesPoint, error) {
	f, returned, err := tracedDeployment(cycles)
	if err != nil {
		return SeriesPoint{}, err
	}
	// Audit fetches are served by the hosts that ran the journey.
	defer func() { _ = f.Close() }()
	begin := time.Now()
	rep, err := vigna.Audit(context.Background(), vigna.AuditConfig{
		Net: f.Net(), Registry: f.Reg,
		LaunchState: value.State{}, LaunchEntry: "main",
	}, returned)
	if err != nil {
		return SeriesPoint{}, err
	}
	auditTime := time.Since(begin)
	if !rep.OK {
		return SeriesPoint{}, fmt.Errorf("bench: honest audit failed: %+v", rep)
	}
	return SeriesPoint{
		Label: fmt.Sprintf("work=%d cycles/session", cycles),
		Values: map[string]float64{
			"audit_ms":      float64(auditTime.Microseconds()) / 1000,
			"trace_entries": float64(rep.TotalTraceEntries),
			"sessions":      float64(rep.SessionsChecked),
		},
	}, nil
}

// proofDeployment runs the home -> h1 -> home2 journey under the proof
// mechanism.
func proofDeployment(iters int) (*fleet.Fleet, *agent.Agent, error) {
	code := fmt.Sprintf(`
proc main() {
    total = 0
    migrate("h1", "visit")
}
proc visit() {
    let i = 0
    while i < %d {
        total = total + i
        i = i + 1
    }
    total = total + read("offer")
    migrate("home2", "finish")
}
proc finish() { done() }`, iters)
	return journey([]string{"home", "h1", "home2"}, func() fleet.Spec {
		return fleet.Spec{Mechanisms: []core.Mechanism{proof.New()}}
	}, fmt.Sprintf("proof-%d", iters), code)
}

// SeriesProof (Series D) sweeps trace length: spot-check verification
// touches O(k·log n) entries while full rechecking touches O(n) —
// the cost asymmetry that motivates proofs (§3.4, [1]: proofs
// "sublinear or polylogarithmic in the size of the agent's running
// time").
func SeriesProof(iters []int, k int) ([]SeriesPoint, error) {
	var points []SeriesPoint
	for _, n := range iters {
		p, err := proofPoint(n, k)
		if err != nil {
			return nil, err
		}
		points = append(points, p)
	}
	return points, nil
}

func proofPoint(iters, k int) (SeriesPoint, error) {
	f, returned, err := proofDeployment(iters)
	if err != nil {
		return SeriesPoint{}, err
	}
	defer func() { _ = f.Close() }()
	cfg := proof.VerifyConfig{Net: f.Net(), Registry: f.Reg, K: k}

	begin := time.Now()
	spot, err := proof.Verify(context.Background(), cfg, returned)
	if err != nil {
		return SeriesPoint{}, err
	}
	spotTime := time.Since(begin)
	if !spot.OK {
		return SeriesPoint{}, fmt.Errorf("bench: spot check failed: %+v", spot)
	}

	begin = time.Now()
	full, err := proof.FullRecheck(context.Background(), cfg, returned)
	if err != nil {
		return SeriesPoint{}, err
	}
	fullTime := time.Since(begin)
	if !full.OK {
		return SeriesPoint{}, fmt.Errorf("bench: full recheck failed: %+v", full)
	}
	return SeriesPoint{
		Label: fmt.Sprintf("trace n=%d entries", spot.TotalTraceLen),
		Values: map[string]float64{
			"spot_opened": float64(spot.EntriesOpened),
			"full_opened": float64(full.EntriesOpened),
			"spot_ms":     float64(spotTime.Microseconds()) / 1000,
			"full_ms":     float64(fullTime.Microseconds()) / 1000,
		},
	}, nil
}
