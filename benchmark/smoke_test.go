package main

import (
	"bytes"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// smallShape is an 8-node fleet; with the 0.1 s the tests ask for, a
// workload runs about 40 itineraries.
var smallShape = shape{homes: 2, workers: 6, warmup: 2}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := writeSpec(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Error("BENCHMARK.json differs from what `go run . --spec` prints; regenerate it")
	}
}

func checkMetrics(t *testing.T, r *result, specs []spec) {
	t.Helper()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Errorf("correct=%v attempted=%d failed=%d: %s", r.Correct, r.Attempted, r.Failed, r.problem)
	}
	if len(r.Metrics) != len(specs) {
		t.Errorf("%d metrics emitted, %d declared", len(r.Metrics), len(specs))
	}
	for _, s := range specs {
		m, ok := r.Metrics[s.Name]
		switch {
		case !name.MatchString(s.Name):
			t.Errorf("metric name %q is outside the contract", s.Name)
		case !ok:
			t.Errorf("metric %s not emitted", s.Name)
		case m.Unit != s.Unit:
			t.Errorf("metric %s has unit %q, declared %q", s.Name, m.Unit, s.Unit)
		}
	}
}

// Every workload emits exactly the declared metrics and passes its
// correctness gates, and the counts that do not depend on timing repeat
// exactly for one seed.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	t.Chdir(t.TempDir()) // durable state and trace files land here
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := runEndToEnd(w, smallShape, 1, 0.1, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, r, endToEnd)
			for name, m := range r.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", name, m.Value)
				}
			}
			first, err := runTraced(w, smallShape, 1, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, first, perLayer)
			if got := first.Metrics["tracing.accounted_share"].Value; got < 0.95 {
				t.Errorf("tracing.accounted_share = %v, want >= 0.95", got)
			}
			if first.exact["hops"] != first.exact["visits"] {
				t.Errorf("spans saw %d hops, receipts reported %d", first.exact["hops"], first.exact["visits"])
			}
			if w.durable == (first.exact["appends"] == 0) {
				t.Errorf("durable=%v but %d WAL appends in the solo phase", w.durable, first.exact["appends"])
			}
			again, err := runTraced(w, smallShape, 1, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first.exact, again.exact) {
				t.Errorf("exact counts differ between two runs of seed 1:\n%v\n%v", first.exact, again.exact)
			}
		})
	}
}

// The decorators must not change what the fleet does: the same seed
// gives the same outcomes, detections and hop counts traced and
// untraced.
func TestTracingIsBehaviourNeutral(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, name := range []string{"hostile", "bulk-tcp-durable"} {
		w, _ := findWorkload(name)
		var got [2]phaseResult
		for i, tr := range []*tracer{nil, newTracer()} {
			p, err := prepare(w, smallShape, 7, fleetSpec{tr: tr}, 30)
			if err != nil {
				t.Fatal(err)
			}
			got[i] = runPhase(p.f, p.phases[0], p.wires[0], 4, phaseDeadline, tr)
			if err := p.close(); err != nil {
				t.Fatal(err)
			}
			if tr != nil {
				if _, sums := analyze(tr.take(), 0); sums.hops != got[i].visits {
					t.Errorf("%s: spans saw %d hops, receipts reported %d", name, sums.hops, got[i].visits)
				}
			}
		}
		for i := range got {
			got[i].latencies, got[i].marks = nil, nil
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Errorf("%s: untraced %+v, traced %+v", name, got[0], got[1])
		}
		if got[0].failed != 0 || got[0].tampered == 0 {
			t.Errorf("%s: %+v", name, got[0])
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	med, iqr := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if med != 5.5 || iqr != 5.5 {
		t.Errorf("median %v iqr %v, want 5.5 and 5.5", med, iqr)
	}
}
