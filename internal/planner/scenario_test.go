package planner_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/fleet"
	"repro/internal/host"
	"repro/internal/planner"
)

// plannerGate skips the heavy end-to-end matrix entries unless the
// REPRO_PLANNER CI step opted in (scale/campaign idiom).
func plannerGate(t *testing.T) {
	if os.Getenv("REPRO_PLANNER") == "" {
		t.Skip("set REPRO_PLANNER=1 to run the planner scenario matrix")
	}
}

// walkCode compiles a concrete route into agent code: each session
// migrates to the next hop, the last hop completes.
func walkCode(route []string) string {
	var b strings.Builder
	entry := func(i int) string { return fmt.Sprintf("h%d", i) }
	fmt.Fprintf(&b, "proc main() { migrate(%q, %q) }\n", route[0], entry(1))
	for i := 1; i < len(route); i++ {
		fmt.Fprintf(&b, "proc %s() { migrate(%q, %q) }\n", entry(i), route[i], entry(i+1))
	}
	fmt.Fprintf(&b, "proc %s() { done() }\n", entry(len(route)))
	return b.String()
}

// buildWalker is the Executor.Build used by every scenario.
func buildWalker(agentID string, route []string) ([]byte, error) {
	ag, err := agent.New(agentID, "owner", walkCode(route), "main")
	if err != nil {
		return nil, err
	}
	return ag.Marshal()
}

// scenarioBed is a home plus a worker pool over a fault-injectable
// fabric, with a shared planner and fleet view.
type scenarioBed struct {
	home    *core.Node
	nodes   planner.NodeFleet
	fabric  *faultnet.Fabric
	planner *planner.Planner
	workers []string
}

type bedConfig struct {
	workers        int
	refuseWhenFull bool
	workerQueue    int
	workerThreads  int
	seed           int64
}

func newScenarioBed(t *testing.T, cfg bedConfig) *scenarioBed {
	t.Helper()
	f, err := fleet.NewFaulty("owner", cfg.seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	mk := func(name string, workers, depth int, refuse bool) *core.Node {
		m, err := f.Add(fleet.Spec{
			Host: host.Config{Name: name},
			Node: core.NodeConfig{Workers: workers, QueueDepth: depth, RefuseWhenFull: refuse},
		})
		if err != nil {
			t.Fatal(err)
		}
		return m.Node
	}
	bed := &scenarioBed{fabric: f.Fabric()}
	bed.home = mk("home", 8, 512, false)
	for i := 0; i < cfg.workers; i++ {
		name := fmt.Sprintf("w%d", i)
		mk(name, cfg.workerThreads, cfg.workerQueue, cfg.refuseWhenFull)
		bed.workers = append(bed.workers, name)
	}
	bed.nodes = f.Nodes()
	bed.planner = planner.New(planner.Config{Home: "home", Seed: cfg.seed})
	return bed
}

func (b *scenarioBed) executor() *planner.Executor {
	return &planner.Executor{
		Planner: b.planner,
		Fleet:   b.nodes,
		Build:   buildWalker,
	}
}

// TestScenarioFlashCrowd is the flash-crowd matrix entry: 200
// itineraries land in one tick on a pool of single-threaded,
// depth-2, refuse-when-full workers. Zero itineraries may end in a
// terminal mailbox-full failure — the executor's spillover/backoff
// path must absorb the crowd — and every itinerary completes.
func TestScenarioFlashCrowd(t *testing.T) {
	plannerGate(t)
	bed := newScenarioBed(t, bedConfig{
		workers:        6,
		refuseWhenFull: true,
		workerQueue:    2,
		workerThreads:  1,
		seed:           29,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	const crowd = 200
	ex := bed.executor()
	ex.MaxAttempts = 1000

	results := make([]planner.RunResult, crowd)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < crowd; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			results[i] = ex.Execute(ctx, planner.Itinerary{
				ID:     fmt.Sprintf("crowd-%03d", i),
				Stages: []planner.Stage{{Candidates: bed.workers}, {Candidates: bed.workers}},
			})
		}()
	}
	close(start)
	wg.Wait()

	spillovers := 0
	for _, r := range results {
		if !r.Completed {
			t.Fatalf("itinerary %s did not complete after %d attempts: %v", r.ItineraryID, r.Attempts, r.Err)
		}
		if errors.Is(r.Err, core.ErrIntakeFull) {
			t.Fatalf("itinerary %s ended in a terminal mailbox-full: %v", r.ItineraryID, r.Err)
		}
		spillovers += r.Spillovers
	}
	if spillovers == 0 {
		t.Fatal("flash crowd never spilled over — scenario not saturating the pool")
	}
}

// TestScenarioBrownOut is the brown-out matrix entry: half the worker
// pool dies (faultnet Kill — ErrHostDown on every link), and every
// itinerary whose candidate pools still contain live hosts must
// complete by banning dead hops and replanning around them.
func TestScenarioBrownOut(t *testing.T) {
	plannerGate(t)
	bed := newScenarioBed(t, bedConfig{
		workers:       8,
		workerQueue:   64,
		workerThreads: 2,
		seed:          31,
	})
	dead := bed.workers[:len(bed.workers)/2]
	for _, name := range dead {
		if err := bed.fabric.Kill(name); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	const journeys = 40
	ex := bed.executor()
	ex.MaxAttempts = 32

	results := make([]planner.RunResult, journeys)
	var wg sync.WaitGroup
	for i := 0; i < journeys; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = ex.Execute(ctx, planner.Itinerary{
				ID:     fmt.Sprintf("brown-%02d", i),
				Stages: []planner.Stage{{Candidates: bed.workers}, {Candidates: bed.workers}},
			})
		}()
	}
	wg.Wait()

	replans := 0
	for _, r := range results {
		if !r.Completed {
			t.Fatalf("itinerary %s failed despite a live feasible pool: %v", r.ItineraryID, r.Err)
		}
		replans += r.Replans
		for _, h := range r.Route {
			for _, d := range dead {
				if h == d {
					t.Fatalf("itinerary %s final route crosses dead host %s: %v", r.ItineraryID, d, r.Route)
				}
			}
		}
	}
	if replans == 0 {
		t.Fatal("brown-out never forced a replan — scenario not exercising divergence")
	}
	// The planner learned the outage: dead hosts end up banned, and a
	// stage whose only candidate is banned has no feasible host.
	banned := 0
	for _, d := range dead {
		_, err := bed.planner.PlanRoute(planner.Itinerary{ID: "probe", Stages: []planner.Stage{{Candidates: []string{d}}}})
		if errors.Is(err, planner.ErrNoFeasibleHost) {
			banned++
		}
	}
	if banned == 0 {
		t.Fatal("no dead host was banned")
	}
}

// TestExecutorEndToEndSmoke is the ungated matrix smoke: one itinerary
// over a healthy pool plans, walks, and completes, and the receipt-fed
// latency observations move the planner's weights: from equal random
// states, it routes differently from a twin that observed nothing.
func TestExecutorEndToEndSmoke(t *testing.T) {
	bed := newScenarioBed(t, bedConfig{workers: 3, workerQueue: 16, workerThreads: 2, seed: 5})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	res := bed.executor().Execute(ctx, planner.Itinerary{
		ID:     "smoke",
		Stages: []planner.Stage{{Candidates: bed.workers}, {Candidates: bed.workers}},
	})
	if !res.Completed {
		t.Fatalf("smoke itinerary failed: %v", res.Err)
	}
	if len(res.Route) != 2 || res.Route[0] == res.Route[1] {
		t.Fatalf("route = %v, want two distinct hops", res.Route)
	}
	if res.Replans != 0 {
		t.Fatalf("smoke itinerary replanned %d times on a healthy pool", res.Replans)
	}
	twin := planner.New(planner.Config{Home: "home", Seed: 5})
	if _, err := twin.PlanRoute(planner.Itinerary{ID: "smoke", Stages: []planner.Stage{{Candidates: bed.workers}, {Candidates: bed.workers}}}); err != nil {
		t.Fatal(err)
	}
	probe := planner.Itinerary{ID: "probe", Stages: []planner.Stage{{Candidates: bed.workers}}}
	// A warm in-process hop costs well under a millisecond, so the
	// weights differ by a fraction of a percent: draw until one pick
	// differs.
	differ := false
	for i := 0; i < 200000 && !differ; i++ {
		a, errA := bed.planner.PlanRoute(probe)
		b, errB := twin.PlanRoute(probe)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		differ = a[0] != b[0]
	}
	if !differ {
		t.Fatal("latency feedback never moved a routing decision")
	}
}
