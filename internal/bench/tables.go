package bench

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// TableRow pairs a workload with its plain and protected measurements.
type TableRow struct {
	Workload  Workload
	Plain     Result
	Protected Result
}

// MeasureTables runs each workload in both configurations, producing
// the data for Tables 1 and 2 when given PaperWorkloads(). progress
// (may be nil) is called before each run.
func MeasureTables(workloads []Workload, progress func(msg string)) ([]TableRow, error) {
	note := func(format string, args ...any) {
		if progress != nil {
			progress(fmt.Sprintf(format, args...))
		}
	}
	var rows []TableRow
	for _, w := range workloads {
		note("plain      %s", w)
		plain, err := RunPlain(w)
		if err != nil {
			return nil, fmt.Errorf("bench: plain %s: %w", w, err)
		}
		note("protected  %s", w)
		prot, err := RunProtected(w)
		if err != nil {
			return nil, fmt.Errorf("bench: protected %s: %w", w, err)
		}
		rows = append(rows, TableRow{Workload: w, Plain: plain, Protected: prot})
	}
	return rows, nil
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000.0)
}

// FormatTable1 renders the plain-agent measurements in the paper's
// Table 1 layout (times in ms).
func FormatTable1(w io.Writer, rows []TableRow) {
	fmt.Fprintln(w, "Table 1: Measured times for plain agents in [ms]")
	fmt.Fprintf(w, "%-24s %12s %12s %12s %12s\n", "", "sign&verify", "cycle", "remainder", "overall")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %12s %12s %12s %12s\n",
			r.Workload, ms(r.Plain.SignVerify), ms(r.Plain.Cycle), ms(r.Plain.Remainder), ms(r.Plain.Overall))
	}
}

// FormatTable2 renders the protected-agent measurements with overhead
// factors in brackets, in the paper's Table 2 layout.
func FormatTable2(w io.Writer, rows []TableRow) {
	fmt.Fprintln(w, "Table 2: Measured times for protected agents in [ms] (factor vs plain)")
	fmt.Fprintf(w, "%-24s %20s %20s %20s %20s\n", "", "sign&verify", "cycle", "remainder", "overall")
	for _, r := range rows {
		fs, fc, fr, fo := r.Protected.Factor(r.Plain)
		cell := func(d time.Duration, f float64) string {
			return fmt.Sprintf("%s (%.1f)", ms(d), f)
		}
		fmt.Fprintf(w, "%-24s %20s %20s %20s %20s\n",
			r.Workload,
			cell(r.Protected.SignVerify, fs),
			cell(r.Protected.Cycle, fc),
			cell(r.Protected.Remainder, fr),
			cell(r.Protected.Overall, fo))
	}
}

// PaperTable1 and PaperTable2 hold the paper's published numbers (ms)
// for side-by-side shape comparison in EXPERIMENTS.md.
var (
	PaperTable1 = map[string][4]int64{
		"1 inputs, 1 cycles":       {209, 2, 93, 304},
		"100 inputs, 1 cycles":     {409, 3, 153, 564},
		"1 inputs, 10000 cycles":   {217, 27158, 93, 27468},
		"100 inputs, 10000 cycles": {400, 27235, 155, 27789},
	}
	PaperTable2 = map[string][4]int64{
		"1 inputs, 1 cycles":       {237, 3, 345, 584},
		"100 inputs, 1 cycles":     {560, 4, 670, 1234},
		"1 inputs, 10000 cycles":   {235, 36353, 341, 36929},
		"100 inputs, 10000 cycles": {472, 36272, 1983, 38727},
	}
)

// FormatShapeComparison renders measured overall factors against the
// paper's, the headline reproduction claim: ≈1.3-1.4 when computation
// dominates, ≈1.9-2.2 when it does not.
func FormatShapeComparison(w io.Writer, rows []TableRow) {
	fmt.Fprintln(w, "Overall overhead factor (protected/plain): paper vs this reproduction")
	fmt.Fprintf(w, "%-24s %14s %14s\n", "", "paper", "measured")
	for _, r := range rows {
		key := r.Workload.String()
		p1, ok1 := PaperTable1[key]
		p2, ok2 := PaperTable2[key]
		paperFactor := "n/a"
		if ok1 && ok2 && p1[3] > 0 {
			paperFactor = fmt.Sprintf("%.1f", float64(p2[3])/float64(p1[3]))
		}
		_, _, _, fo := r.Protected.Factor(r.Plain)
		fmt.Fprintf(w, "%-24s %14s %14.1f\n", key, paperFactor, fo)
	}
	fmt.Fprintln(w, strings.TrimSpace(`
Note: absolute times are not comparable (1998 interpreted Java + DSA-512
vs Go + Ed25519); the reproduced claim is the factor structure — the
cycle factor tracks 4 executions vs 3 (~1.33), the remainder column
inflates the most, and the overall factor falls toward ~1.3 as
computation share grows.`))
}
