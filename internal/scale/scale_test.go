package scale

import (
	"math/rand"
	"os"
	"testing"

	"repro/internal/testutil"
)

// runAndAssert runs cfg and pins the scale harness's safety contract:
// every itinerary resolves, every tampered session is detected, no
// honest itinerary is ever quarantined, and a durable run shows WAL
// activity.
func runAndAssert(t *testing.T, cfg Config) Result {
	t.Helper()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := (&cfg).fill(); err != nil {
		t.Fatal(err)
	}
	if r.Completed+r.Quarantined+r.Failed != cfg.Itineraries {
		t.Fatalf("%d+%d+%d outcomes, want %d itineraries",
			r.Completed, r.Quarantined, r.Failed, cfg.Itineraries)
	}
	if r.Failed != 0 {
		t.Fatalf("%d itineraries failed", r.Failed)
	}
	if r.TamperedSessions == 0 {
		t.Fatal("malicious workers tampered nothing; the run proves nothing")
	}
	if r.DetectedTampered != r.TamperedSessions {
		t.Fatalf("detected %d of %d tampered sessions", r.DetectedTampered, r.TamperedSessions)
	}
	if r.HonestQuarantined != 0 {
		t.Fatalf("%d honest itineraries quarantined", r.HonestQuarantined)
	}
	if cfg.Durable && (r.WALAppends == 0 || r.WALSyncs == 0) {
		t.Fatalf("durable run reports no WAL activity: %+v", r)
	}
	return r
}

// TestRunSmall is the always-on smoke: a small memory-only fleet.
func TestRunSmall(t *testing.T) {
	runAndAssert(t, Config{
		Nodes:          12,
		Itineraries:    48,
		MaliciousNodes: 2,
		Concurrency:    32,
	})
}

// TestRunDurable exercises the durable path: every node's stores on
// private WALs under its own data dir, as fleet.Open builds them.
func TestRunDurable(t *testing.T) {
	runAndAssert(t, Config{
		Nodes:          10,
		Itineraries:    24,
		MaliciousNodes: 2,
		Concurrency:    16,
		Durable:        true,
		DataDir:        t.TempDir(),
	})
}

// TestRunRepro is the CI smoke behind REPRO_SCALE=1: 64 nodes, 512
// itineraries, durable, asserting the acceptance criteria at reduced
// scale (the full 500-node/10k-itinerary run lives in benchtables
// -scale).
func TestRunRepro(t *testing.T) {
	if os.Getenv("REPRO_SCALE") == "" {
		t.Skip("set REPRO_SCALE=1 to run the reduced-scale reproduction")
	}
	r := runAndAssert(t, Config{
		Nodes:       64,
		Itineraries: 512,
		Durable:     true,
		DataDir:     t.TempDir(),
	})
	t.Logf("%.1f itin/s p99=%.1fms syncs=%d mean batch %.2f",
		r.ItinerariesPerSec, r.P99MS, r.WALSyncs, r.WALMeanBatch)
}

// assertPlannerAB pins the routing A/B's safety gate: same staged
// fleet both halves, fixed routes detect every tampered session,
// planner routing detects or sheds every tampered session, honest
// itineraries come through unpunished, and the planner half actually
// exercised admission control.
func assertPlannerAB(t *testing.T, cfg Config, ab PlannerAB) {
	t.Helper()
	for _, r := range []Result{ab.Fixed, ab.Planner} {
		if r.Completed+r.Quarantined+r.Failed != cfg.Itineraries {
			t.Fatalf("planner=%v: %d+%d+%d outcomes, want %d itineraries",
				r.AdmissionRefused > 0, r.Completed, r.Quarantined, r.Failed, cfg.Itineraries)
		}
		if r.TamperedSessions == 0 {
			t.Fatal("malicious workers tampered nothing; the run proves nothing")
		}
	}
	if ab.Fixed.DetectedTampered != ab.Fixed.TamperedSessions {
		t.Fatalf("fixed: detected %d of %d tampered sessions", ab.Fixed.DetectedTampered, ab.Fixed.TamperedSessions)
	}
	if ab.Planner.UndetectedTampered != 0 {
		t.Fatalf("planner: %d tampered sessions neither detected nor shed", ab.Planner.UndetectedTampered)
	}
	if ab.Fixed.HonestQuarantined != 0 || ab.Planner.HonestQuarantined != 0 {
		t.Fatalf("honest itineraries quarantined: fixed=%d planner=%d",
			ab.Fixed.HonestQuarantined, ab.Planner.HonestQuarantined)
	}
	if ab.Planner.Failed != 0 {
		t.Fatalf("planner: %d itineraries failed terminally", ab.Planner.Failed)
	}
	if !ab.DetectionMatch {
		t.Fatalf("detection-match gate failed: fixed=%+v planner=%+v", ab.Fixed, ab.Planner)
	}
	if ab.Planner.AdmissionRefused == 0 {
		t.Fatal("planner run refused no deliveries — admission control was never exercised")
	}
	if ab.Planner.Replans == 0 {
		t.Fatal("planner run never replanned — the divergence loop was not exercised")
	}
}

// TestRunPlannerABSmall is the always-on routing A/B smoke: a small
// memory-only fleet where planner routing must keep the detection
// story intact while shedding load from flagged hosts.
func TestRunPlannerABSmall(t *testing.T) {
	cfg := Config{
		Nodes:          12,
		Itineraries:    48,
		MaliciousNodes: 2,
		Concurrency:    32,
	}
	ab, err := RunPlannerAB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := (&cfg).fill(); err != nil {
		t.Fatal(err)
	}
	assertPlannerAB(t, cfg, ab)
}

// TestRunPlannerABRepro is the CI smoke behind REPRO_SCALE=1: the
// reduced-scale routing A/B with the same acceptance gate.
func TestRunPlannerABRepro(t *testing.T) {
	if os.Getenv("REPRO_SCALE") == "" {
		t.Skip("set REPRO_SCALE=1 to run the reduced-scale reproduction")
	}
	cfg := Config{
		Nodes:       64,
		Itineraries: 512,
	}
	ab, err := RunPlannerAB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := (&cfg).fill(); err != nil {
		t.Fatal(err)
	}
	assertPlannerAB(t, cfg, ab)
	t.Logf("fixed:   %.1f itin/s p99=%.1fms", ab.Fixed.ItinerariesPerSec, ab.Fixed.P99MS)
	t.Logf("planner: %.1f itin/s p99=%.1fms refusals=%d replans=%d shed=%d (speedup %.2fx)",
		ab.Planner.ItinerariesPerSec, ab.Planner.P99MS, ab.Planner.AdmissionRefused,
		ab.Planner.Replans, ab.Planner.ShedItineraries, ab.SpeedupItinPerSec)
}

// TestStagedLayoutConstraints pins the staged route/malicious
// invariants: one worker per class, classes disjoint, malicious never
// adjacent on any stage sequence.
func TestStagedLayoutConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const workers, hops = 13, 3
	malicious := maliciousSpreadStaged(workers, 3, hops)
	for w := range malicious {
		if (w%hops)%2 != 0 {
			t.Fatalf("malicious worker %d sits in odd class %d", w, w%hops)
		}
	}
	for round := 0; round < 200; round++ {
		route := pickStagedRoute(rng, workers, hops)
		for j, w := range route {
			if w%hops != j {
				t.Fatalf("round %d: hop %d drew worker %d of class %d", round, j, w, w%hops)
			}
			if w >= workers {
				t.Fatalf("round %d: worker %d out of range", round, w)
			}
			if j > 0 && malicious[route[j-1]] && malicious[w] {
				t.Fatalf("round %d: adjacent malicious workers in route %v", round, route)
			}
		}
	}
}

// TestPickRouteConstraints pins route admissibility: distinct workers,
// no malicious worker immediately after another.
func TestPickRouteConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const workers, hops = 10, 5
	malicious := maliciousSpread(workers, 4)
	for round := 0; round < 200; round++ {
		route, err := pickRoute(rng, workers, malicious, hops)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int]bool, hops)
		for i, w := range route {
			if seen[w] {
				t.Fatalf("round %d: worker %d repeats in route %v", round, w, route)
			}
			seen[w] = true
			if i > 0 && malicious[route[i-1]] && malicious[w] {
				t.Fatalf("round %d: adjacent malicious workers in route %v", round, route)
			}
		}
	}
}

// TestConfigRejections pins the guard rails.
func TestConfigRejections(t *testing.T) {
	for name, cfg := range map[string]Config{
		"too many malicious":  {Nodes: 16, MaliciousNodes: 8},
		"no workers":          {Nodes: 4, Homes: 4},
		"hops exceed fleet":   {Nodes: 4, Hops: 8},
		"durable without dir": {Nodes: 12, Durable: true},
	} {
		c := cfg
		if err := (&c).fill(); err == nil {
			t.Errorf("%s: config %+v accepted, want error", name, cfg)
		}
	}
}

// TestRunLeavesNothingBehind: a durable run returns with every node and
// stack (one ledger WAL flusher each) closed — otherwise RunPlannerAB
// measures its second half on top of the first half's goroutines,
// tickers and descriptors. The subtest name marks the run as unbatched:
// each node flushes one delivery at a time through its private WALs.
func TestRunLeavesNothingBehind(t *testing.T) {
	t.Run("batched=false", func(t *testing.T) {
		check := testutil.NoLeaks(t)
		_, err := Run(Config{
			Nodes:       16,
			Itineraries: 16,
			Concurrency: 8,
			Durable:     true,
			DataDir:     t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		check()
	})
}
