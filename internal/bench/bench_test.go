package bench

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/agentlang"
	"repro/internal/protection"
	"repro/internal/testutil"
)

func TestAgentCodeParses(t *testing.T) {
	for _, w := range PaperWorkloads() {
		if _, err := agentlang.Parse(AgentCode(w)); err != nil {
			t.Errorf("%s: %v", w, err)
		}
	}
}

func TestPaperWorkloads(t *testing.T) {
	ws := PaperWorkloads()
	if len(ws) != 4 {
		t.Fatalf("got %d workloads, want 4", len(ws))
	}
	if ws[3].Inputs != 100 || ws[3].Cycles != 10000 {
		t.Errorf("heaviest workload = %+v", ws[3])
	}
}

func TestRunPlainSmallWorkload(t *testing.T) {
	res, err := RunPlain(Workload{Inputs: 2, Cycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overall <= 0 {
		t.Error("no overall time measured")
	}
	if res.SignVerify <= 0 {
		t.Error("no sign&verify time measured (the seal should sign at each hop)")
	}
	if res.Cycle <= 0 {
		t.Error("no cycle time measured")
	}
	if res.SignVerify+res.Cycle > res.Overall {
		t.Errorf("phases exceed overall: s&v=%v cycle=%v overall=%v",
			res.SignVerify, res.Cycle, res.Overall)
	}
}

// overhead runs w plain and protected in alternation, rounds times, and
// returns the median protected/plain ratio of the cycle and of the
// overall column. On a shared box a stall can stretch any single run;
// the two runs of a round see the same stretch of the machine's load,
// and the median ignores the rounds where only one of them was hit.
func overhead(t *testing.T, w Workload, rounds int) (cycle, overall float64) {
	t.Helper()
	cycles, overalls := make([]float64, rounds), make([]float64, rounds)
	for i := range cycles {
		plain, err := Run(protection.LevelSigned, w)
		if err != nil {
			t.Fatal(err)
		}
		prot, err := Run(protection.LevelFull, w)
		if err != nil {
			t.Fatal(err)
		}
		_, cycles[i], _, overalls[i] = prot.Factor(plain)
	}
	sort.Float64s(cycles)
	sort.Float64s(overalls)
	return cycles[rounds/2], overalls[rounds/2]
}

func TestProtectedCostsMoreAndChecks(t *testing.T) {
	// The protected agent re-executes the untrusted session: cycle time
	// must exceed the plain agent's (4 executions vs 3, §5.3). This
	// asserts direction, not magnitude. 80 cycles are ≈ 4 ms of
	// interpretation per session.
	cycle, overall := overhead(t, Workload{Inputs: 5, Cycles: 80}, 15)
	if cycle <= 1 || overall <= 1 {
		t.Errorf("protected/plain: cycle %.2f, overall %.2f, want both above 1", cycle, overall)
	}
}

func TestCycleFactorNearFourThirds(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	// With computation dominating, the cycle column factor must sit
	// near 4/3 ≈ 1.33 (one extra execution out of three): the paper's
	// "the factors of the cycle column range about the value 1.3".
	// 250 cycles are ≈ 12 ms of interpretation per session.
	if cycle, _ := overhead(t, Workload{Inputs: 1, Cycles: 250}, 11); cycle < 1.15 || cycle > 1.6 {
		t.Errorf("cycle factor = %.2f, want ~1.33", cycle)
	}
}

func TestRunLevels(t *testing.T) {
	for _, l := range []protection.Level{protection.LevelNone, protection.LevelRules, protection.LevelTraces} {
		if l == protection.LevelRules {
			continue // rules need owner-signed baggage; covered in appraisal tests
		}
		if _, err := Run(l, Workload{Inputs: 1, Cycles: 1}); err != nil {
			t.Errorf("level %s: %v", l, err)
		}
	}
}

func TestFormatTables(t *testing.T) {
	rows := []TableRow{{
		Workload:  Workload{Inputs: 1, Cycles: 1},
		Plain:     Result{SignVerify: 1e6, Cycle: 2e6, Remainder: 3e6, Overall: 6e6},
		Protected: Result{SignVerify: 2e6, Cycle: 3e6, Remainder: 9e6, Overall: 14e6},
	}}
	var t1, t2, cmp strings.Builder
	FormatTable1(&t1, rows)
	FormatTable2(&t2, rows)
	FormatShapeComparison(&cmp, rows)
	if !strings.Contains(t1.String(), "sign&verify") || !strings.Contains(t1.String(), "1 inputs, 1 cycles") {
		t.Errorf("Table 1:\n%s", t1.String())
	}
	if !strings.Contains(t2.String(), "(2.3)") {
		t.Errorf("Table 2 missing overall factor:\n%s", t2.String())
	}
	if !strings.Contains(cmp.String(), "1.9") {
		t.Errorf("shape comparison missing paper factor:\n%s", cmp.String())
	}
}

func TestFactorHandlesZeroBase(t *testing.T) {
	r := Result{SignVerify: 10, Cycle: 10, Remainder: 10, Overall: 10}
	fs, fc, fr, fo := r.Factor(Result{})
	if fs != 0 || fc != 0 || fr != 0 || fo != 0 {
		t.Error("zero base did not clamp factors")
	}
}

func TestSeriesOverheadSmall(t *testing.T) {
	points, err := SeriesOverhead([]int{1, 50}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.Values["factor"] <= 0 {
			t.Errorf("%s: factor %.2f", p.Label, p.Values["factor"])
		}
	}
}

func TestSeriesReplicationSmall(t *testing.T) {
	points, err := SeriesReplication([]int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	if points[0].Values["tolerated"] != 0 || points[1].Values["tolerated"] != 1 {
		t.Errorf("tolerance column wrong: %+v", points)
	}
}

// TestHarnessesLeaveNothingBehind: the harnesses close every node and
// stack they open (SeriesReplication used to return with all of its
// replica nodes' workers still running).
func TestHarnessesLeaveNothingBehind(t *testing.T) {
	t.Run("SeriesReplication", func(t *testing.T) {
		check := testutil.NoLeaks(t)
		if _, err := SeriesReplication([]int{1, 3}); err != nil {
			t.Fatal(err)
		}
		check()
	})
}

func TestSeriesTraceSmall(t *testing.T) {
	points, err := SeriesTrace([]int{1, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	if points[1].Values["trace_entries"] <= points[0].Values["trace_entries"] {
		t.Errorf("trace length not growing with work: %+v vs %+v", points[0].Values, points[1].Values)
	}
}

func TestSeriesProofSublinear(t *testing.T) {
	points, err := SeriesProof([]int{50, 500}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.Values["spot_opened"] >= p.Values["full_opened"] {
			t.Errorf("%s: spot %v not below full %v", p.Label, p.Values["spot_opened"], p.Values["full_opened"])
		}
	}
	// Spot-check cost stays flat while full cost grows with n.
	if points[1].Values["full_opened"] < 5*points[0].Values["full_opened"] {
		t.Errorf("full recheck cost did not scale with trace length: %+v", points)
	}
	if points[1].Values["spot_opened"] > 2*points[0].Values["spot_opened"] {
		t.Errorf("spot-check cost grew with trace length: %+v", points)
	}
}

func TestFormatSeries(t *testing.T) {
	var b strings.Builder
	FormatSeries(&b, "Title", []string{"a"}, []SeriesPoint{{Label: "p", Values: map[string]float64{"a": 1.5}}})
	if !strings.Contains(b.String(), "Title") || !strings.Contains(b.String(), "1.50") {
		t.Errorf("FormatSeries:\n%s", b.String())
	}
}
