// Command benchmark is the repository's fixed yardstick: it drives
// seeded, fixed-route 3-hop itineraries through a 48-node fleet of
// protected agent hosts, checks every outcome against ground truth, and
// prints each metric by name and unit. See README.md.
//
//	benchmark --workload light --seed 1 --seconds 10 --trace 0
//
// measures the end-to-end metrics of one workload; --trace 1 measures
// the per-layer metrics instead. The last line of standard output is
// one JSON object: correct, attempted, failed, metrics. The exit status
// is 1 when an operation failed or a tampered session went undetected.
//
//	benchmark --repeat 10 --out a.json     runs every workload on seeds 1..10
//	benchmark --compare a.json b.json      sets two such files side by side
//	benchmark --spec                       prints BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// runSeconds is how long the driver lets one run measure.
const runSeconds = 20

// A run sets up between minSetups and maxSetups times, stopping once
// setupBudget is spent; setup_s is the median. compute's set-up takes
// 60 ms and needs the 15 repeats to read steadily; light's takes 0.4 s.
const (
	minSetups   = 5
	maxSetups   = 15
	setupBudget = 2500 * time.Millisecond
)

func main() {
	workloadName := flag.String("workload", "", "workload to run: light, compute, bulk-tcp-durable or hostile")
	seed := flag.Int64("seed", 1, "seed for routes and agent identities")
	seconds := flag.Float64("seconds", runSeconds, "how long the run measures; phase itinerary counts scale with it")
	trace := flag.Int("trace", 0, "0 measures the end-to-end metrics, 1 the per-layer metrics with tracing on")
	printSpec := flag.Bool("spec", false, "print BENCHMARK.json and exit")
	repeat := flag.Int("repeat", 0, "run every workload (or the one named) on seeds 1..N, each in a process of its own")
	out := flag.String("out", "", "with --repeat: file to write the collected values to")
	compare := flag.Bool("compare", false, "compare two --repeat files given as arguments")
	flag.Parse()

	var err error
	switch {
	case *printSpec:
		err = writeSpec(os.Stdout)
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("--compare takes two files")
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *repeat > 0:
		err = repeatRuns(*workloadName, *repeat, *seconds, *out)
	default:
		err = runOne(*workloadName, *seed, *seconds, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne is the driver's contract: one workload, one seed, one JSON
// line.
func runOne(name string, seed int64, seconds float64, trace int) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	var r *result
	var err error
	if trace == 0 {
		r, err = runEndToEnd(w, fullShape, seed, seconds, setupBudget)
	} else {
		r, err = runTraced(w, fullShape, seed, seconds)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !r.Correct {
		return fmt.Errorf("%s seed %d: %d of %d operations failed: %s", name, seed, r.Failed, r.Attempted, r.problem)
	}
	return nil
}

// writeSpec prints BENCHMARK.json from the tables this program reports
// from, so the two cannot disagree.
func writeSpec(f io.Writer) error {
	type workloadSpec struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []spec         `json:"end_to_end"`
		PerLayer   []spec         `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer, // no bound, so the field is left out
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadSpec{w.name, w.why})
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
