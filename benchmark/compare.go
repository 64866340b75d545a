package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runSet holds the end-to-end values of repeated runs:
// workload -> metric -> one value per seed.
type runSet map[string]map[string][]float64

// repeatRuns runs each workload on seeds 1..n, each run in a process of
// its own so that peak memory and caches start fresh, prints the median
// and spread of every end-to-end metric, and writes the values to out.
func repeatRuns(only string, n int, seconds float64, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := make(runSet)
	for _, w := range workloads {
		if only != "" && only != w.name {
			continue
		}
		set[w.name] = make(map[string][]float64)
		for seed := 1; seed <= n; seed++ {
			cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			var r result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			for name, m := range r.Metrics {
				set[w.name][name] = append(set[w.name][name], m.Value)
			}
		}
		fmt.Printf("%s, %d runs\n", w.name, n)
		for _, s := range endToEnd {
			med, iqr := spread(set[w.name][s.Name])
			fmt.Printf("  %-16s median %10.4f %-4s spread %5.2f%% of median (bound %4.1f%%)\n",
				s.Name, med, s.Unit, 100*iqr/med, 100*s.Bound)
		}
	}
	if out == "" {
		return nil
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

// spread returns the median of the values and the distance between
// their first and third quartiles, with the quartiles Python's
// statistics.quantiles(values, n=4) gives.
func spread(values []float64) (median, iqr float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	if len(v) == 0 {
		return 0, 0
	}
	if len(v) == 1 {
		return v[0], 0
	}
	at := func(p float64) float64 {
		pos := p * float64(len(v)+1) // 1-based, exclusive method
		lo := int(math.Floor(pos))
		lo = min(max(lo, 1), len(v)-1)
		return v[lo-1] + (pos-float64(lo))*(v[lo]-v[lo-1])
	}
	return at(0.5), at(0.75) - at(0.25)
}

// compareFiles prints, per workload and end-to-end metric, how much
// worse b's median is than a's, against the metric's bound: ok when
// within it, regressed when beyond it by more than the runs' own
// spread, unresolved when beyond it but within that spread.
func compareFiles(w io.Writer, pathA, pathB string) error {
	load := func(path string) (runSet, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var set runSet
		return set, json.Unmarshal(data, &set)
	}
	a, err := load(pathA)
	if err != nil {
		return err
	}
	b, err := load(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-18s %-16s %12s %12s %8s %7s %8s  %s\n", "workload", "metric", "a median", "b median", "worse", "bound", "spread", "verdict")
	regressed := 0
	for _, wl := range workloads {
		if a[wl.name] == nil || b[wl.name] == nil {
			continue
		}
		for _, s := range endToEnd {
			ma, ia := spread(a[wl.name][s.Name])
			mb, ib := spread(b[wl.name][s.Name])
			if ma == 0 {
				continue
			}
			worse := (mb - ma) / ma
			if s.Better == "higher" {
				worse = -worse
			}
			noise := math.Max(ia, ib) / ma
			verdict := "ok"
			switch {
			case worse <= s.Bound:
			case worse <= noise:
				verdict = "unresolved"
			default:
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(w, "%-18s %-16s %12.4f %12.4f %+7.2f%% %6.1f%% %7.2f%%  %s\n",
				wl.name, s.Name, ma, mb, 100*worse, 100*s.Bound, 100*noise, verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed", regressed)
	}
	return nil
}
