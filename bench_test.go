// Package repro_test holds the top-level benchmark harness: one
// testing.B benchmark per table and figure-series of the paper's
// evaluation (see DESIGN.md §6 for the experiment index). Each
// benchmark reports the paper's columns as custom metrics, so
// `go test -bench=. -benchmem` regenerates the evaluation.
package repro_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bench"
)

// benchWorkloads mirrors the paper's four configurations but also
// exposes each as a sub-benchmark.
func tableBench(b *testing.B, protected bool) {
	for _, w := range bench.PaperWorkloads() {
		w := w
		b.Run(fmt.Sprintf("inputs=%d/cycles=%d", w.Inputs, w.Cycles), func(b *testing.B) {
			var last bench.Result
			for i := 0; i < b.N; i++ {
				var err error
				if protected {
					last, err = bench.RunProtected(w)
				} else {
					last, err = bench.RunPlain(w)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(last.SignVerify.Microseconds())/1000, "signverify-ms")
			b.ReportMetric(float64(last.Cycle.Microseconds())/1000, "cycle-ms")
			b.ReportMetric(float64(last.Remainder.Microseconds())/1000, "remainder-ms")
			b.ReportMetric(float64(last.Overall.Microseconds())/1000, "overall-ms")
		})
	}
}

// BenchmarkTable1Plain regenerates Table 1: plain agents, signed and
// verified as a whole.
func BenchmarkTable1Plain(b *testing.B) { tableBench(b, false) }

// BenchmarkTable2Protected regenerates Table 2: agents protected by the
// example mechanism (refproto).
func BenchmarkTable2Protected(b *testing.B) { tableBench(b, true) }

// BenchmarkSeriesOverhead regenerates Series A: the overall overhead
// factor vs computation share (§4.1/§6 analytic claim).
func BenchmarkSeriesOverhead(b *testing.B) {
	var minF, maxF float64
	for i := 0; i < b.N; i++ {
		points, err := bench.SeriesOverhead([]int{1, 100, 1000}, []int{1, 100})
		if err != nil {
			b.Fatal(err)
		}
		minF, maxF = points[0].Values["factor"], points[0].Values["factor"]
		for _, p := range points {
			f := p.Values["factor"]
			if f < minF {
				minF = f
			}
			if f > maxF {
				maxF = f
			}
		}
	}
	b.ReportMetric(minF, "factor-min")
	b.ReportMetric(maxF, "factor-max")
}

// BenchmarkSeriesReplication regenerates Series B: replication cost vs
// replica-set size (§3.2).
func BenchmarkSeriesReplication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.SeriesReplication([]int{1, 3, 5, 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeriesTrace regenerates Series C: trace growth and audit
// cost (§3.3).
func BenchmarkSeriesTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.SeriesTrace([]int{1, 10, 100}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeriesProof regenerates Series D: spot-check vs full
// recheck cost (§3.4).
func BenchmarkSeriesProof(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.SeriesProof([]int{100, 1000, 5000}, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentItineraries measures the worker-pool win of the
// async intake: N agents launched at once through a three-host
// deployment whose sessions wait on external data. workers=1
// reproduces the serialized seed behaviour; workers=4 overlaps
// distinct agents. The itineraries/s metric is the comparison the
// redesign is accountable to (>2x at 4 workers).
func BenchmarkConcurrentItineraries(b *testing.B) {
	const agents = 16
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				d, err := bench.ConcurrentItineraries(bench.ConcurrentConfig{
					Workers:     workers,
					Agents:      agents,
					FeedLatency: 2 * time.Millisecond,
				})
				if err != nil {
					b.Fatal(err)
				}
				elapsed = d
			}
			b.ReportMetric(float64(agents)/elapsed.Seconds(), "itineraries/s")
			b.ReportMetric(float64(elapsed.Microseconds())/1000, "batch-ms")
		})
	}
}
