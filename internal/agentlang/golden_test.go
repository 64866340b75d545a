package agentlang

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/canon"
	"repro/internal/value"
)

// The golden differential test. testdata/golden.json was recorded from
// the value-returning tree walker this package had before the
// destination-passing evaluator replaced it, by a recorder that is not
// kept: the file is the corpus. It holds every program literal of
// interp_test.go, cow_test.go and replay_test.go at that time
// (tests/), the repository benchmark's agent (work/), stores whose
// destination is an operand (alias/), every runtime error kind and
// control transfers out of every expression position (error/), 220
// seeded random programs (random/) and three programs run under every
// fuel limit up to their step count (sweep/). Two tree walkers have
// since gone; the corpus now holds the closure compiler (compile.go)
// to the first one's record, which it must reproduce bit for bit: final
// state digest, copy-on-write flags, outcome, step count, error text,
// and the complete interleaving of hook events and environment calls.
//
// Later cases were added by hand and recorded from the closure compiler
// before the change they guard: the int shapes the compiler fuses
// (fused/: self-aliasing stores, int64 wrap-around, a string, list and
// null operand in each fused form, division and modulo by zero inside
// a fused loop body, break and continue under a fused loop test, a
// slot a fused loop only writes, the statement after a fused loop) and
// a fourth fuel sweep over a fused for loop (sweep/3).
//
// There is no way to re-record it, on purpose: that would turn the
// differential into a pin. A new case is added by hand, name and src,
// and its want copied from the failure the test then prints, after
// checking it against the language's documented behaviour.

const goldenPath = "testdata/golden.json"

// goldenFuel stops a case that runs away; work() at 50 cycles needs
// ≈ 150 000 steps.
const goldenFuel = 200_000

type goldenCase struct {
	Name string `json:"name"`
	Src  string `json:"src"`
	// Sweep cases run once per fuel limit 1..Want.Steps; Sweep[k-1] is
	// the fingerprint of the run under limit k.
	Sweep []string     `json:"sweep,omitempty"`
	Want  goldenResult `json:"want"`
}

type goldenResult struct {
	State  string `json:"state"`            // canon.HashState of the globals, hex
	Shared string `json:"shared,omitempty"` // paths of composites flagged copy-on-write
	Kind   int    `json:"kind"`
	Host   string `json:"host,omitempty"`
	Entry  string `json:"entry,omitempty"`
	Steps  int64  `json:"steps"`
	Events int    `json:"events"` // hook callbacks + environment calls
	Stream string `json:"stream"` // sha256 over their rendering, in order
	Procs  string `json:"-"`      // sha256 over the EnterProc/ExitProc subsequence
	Err    string `json:"err,omitempty"`
}

// goldenLog hashes the event stream; procs hashes the procedure
// enter/exit subsequence on its own so a ProcEventsOnly run can be
// held against it.
type goldenLog struct {
	all, procs hash.Hash
	n          int
	lines      []string // the stream itself, when kept
	keep       bool
}

func newGoldenLog() *goldenLog { return &goldenLog{all: sha256.New(), procs: sha256.New()} }

func (l *goldenLog) add(format string, args ...any) {
	l.n++
	line := fmt.Sprintf(format, args...)
	fmt.Fprintln(l.all, line)
	if l.keep {
		l.lines = append(l.lines, line)
	}
}

func renderArgs(args []value.Value) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = a.String()
	}
	return strings.Join(parts, ", ")
}

type goldenHook struct{ log *goldenLog }

func (h goldenHook) Statement(id int, usedInput bool, assigned []Assignment) {
	var b strings.Builder
	for _, a := range assigned {
		fmt.Fprintf(&b, " %s=%s", a.Name, a.Val)
	}
	h.log.add("S %d %t%s", id, usedInput, b.String())
}
func (h goldenHook) EnterProc(name string) {
	h.log.add("> %s", name)
	fmt.Fprintf(h.log.procs, "> %s\n", name)
}
func (h goldenHook) ExitProc(name string) {
	h.log.add("< %s", name)
	fmt.Fprintf(h.log.procs, "< %s\n", name)
}

type goldenProcHook struct{ goldenHook }

func (goldenProcHook) ProcEventsOnly() {}
func (goldenProcHook) Statement(int, bool, []Assignment) {
	panic("Statement delivered to a ProcEventsOnly hook")
}

// goldenEnv is the scripted world: every answer is a function of the
// call, its arguments and the call's sequence number, composites are
// built fresh per call, and read("fail") / act("fail") fail.
type goldenEnv struct {
	log   *goldenLog
	count int
	kept  [][]value.Value // argument slices retained, as real Envs may
}

func (e *goldenEnv) Input(call string, args []value.Value) (value.Value, error) {
	e.count++
	e.kept = append(e.kept, args)
	v, err := scriptedInput(call, args, int64(e.count))
	if err != nil {
		e.log.add("I %s(%s) ! %s", call, renderArgs(args), err)
		return value.Null(), err
	}
	e.log.add("I %s(%s) = %s", call, renderArgs(args), v)
	return v, nil
}

// scriptedInput answers the n-th input call of a session.
func scriptedInput(call string, args []value.Value, n int64) (value.Value, error) {
	switch call {
	case "read":
		switch key := args[0]; {
		case key.Kind != value.KindString:
			return value.Str("value-?"), nil
		case key.Str == "fail":
			return value.Null(), errors.New("no such key")
		case key.Str == "elem":
			return value.Str(fmt.Sprintf("elem-%05d", n)), nil
		case strings.HasPrefix(key.Str, "n"):
			return value.Int(n * 7 % 23), nil
		default:
			return value.Str("value-" + key.Str), nil
		}
	case "recv":
		return value.List(value.Int(n), value.Str("msg")), nil
	case "time":
		return value.Int(1_000_000 + n), nil
	case "rand":
		return value.Int(n % 7), nil
	case "resource":
		return value.Map(map[string]value.Value{
			"name": args[0],
			"rows": value.List(value.Int(1), value.Int(2), value.Int(3)),
		}), nil
	default: // here
		return value.Str("host-a"), nil
	}
}

func (e *goldenEnv) Output(action string, args []value.Value) error {
	e.kept = append(e.kept, args)
	if len(args) > 0 && args[0].Kind == value.KindString && args[0].Str == "fail" {
		e.log.add("O %s(%s) ! refused", action, renderArgs(args))
		return errors.New("refused")
	}
	e.log.add("O %s(%s)", action, renderArgs(args))
	return nil
}

// goldenState is the data state every case starts from, taken through
// Snapshot so that every composite in it is flagged copy-on-write.
func goldenState() value.State {
	ints := func(ns ...int64) value.Value {
		out := make([]value.Value, len(ns))
		for i, n := range ns {
			out[i] = value.Int(n)
		}
		return value.List(out...)
	}
	return value.State{
		"total": value.Int(0), "hops": value.Int(0), "sum": value.Int(0),
		"got":  value.List(),
		"xs":   value.List(ints(1), ints(2)),
		"lst":  value.List(ints(2)),
		"m":    value.Map(map[string]value.Value{"inner": ints(10, 20), "k": ints(3)}),
		"n":    value.Int(7),
		"name": value.Str("agent"),
	}
}

// sharedPaths lists, sorted, the composites in st that carry the
// copy-on-write flag.
func sharedPaths(st value.State) string {
	var out []string
	var walk func(path string, v value.Value)
	walk = func(path string, v value.Value) {
		if v.Shared() {
			out = append(out, path)
		}
		switch v.Kind {
		case value.KindList:
			for i, e := range v.List {
				walk(path+"["+strconv.Itoa(i)+"]", e)
			}
		case value.KindMap:
			for _, k := range value.SortedKeys(v.Map) {
				walk(path+"."+k, v.Map[k])
			}
		}
	}
	for _, k := range value.SortedKeys(st) {
		walk(k, st[k])
	}
	return strings.Join(out, " ")
}

type hookMode int

const (
	hookFull hookMode = iota
	hookNone
	hookProcs
)

// runGolden executes src's main from goldenState under the scripted
// environment. A snapshot taken before the run must come out of it
// unchanged whatever the program did.
func runGolden(t *testing.T, src string, fuel int64, mode hookMode) goldenResult {
	t.Helper()
	res, _, _ := runGoldenLog(t, src, fuel, mode, false)
	return res
}

// runGoldenLog is runGolden that also returns the run's error and, if
// keep is set, its event stream line by line.
func runGoldenLog(t *testing.T, src string, fuel int64, mode hookMode, keep bool) (goldenResult, []string, error) {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, src)
	}
	return runGoldenProg(t, prog, fuel, mode, keep)
}

// runGoldenProg is runGoldenLog over a parsed program; it may be called
// from several goroutines at once.
func runGoldenProg(t *testing.T, prog *Program, fuel int64, mode hookMode, keep bool) (goldenResult, []string, error) {
	st := goldenState()
	before := canon.HashState(st)
	snap := st.Snapshot()
	log := newGoldenLog()
	log.keep = keep
	opts := Options{Fuel: fuel}
	switch mode {
	case hookFull:
		opts.Hook = goldenHook{log}
	case hookProcs:
		opts.Hook = goldenProcHook{goldenHook{log}}
	}
	env := &goldenEnv{log: log}
	out, err := Run(prog, "main", st, env, opts)
	if after := canon.HashState(snap); after != before {
		t.Errorf("pre-session snapshot changed during the run\n%s", prog.Source())
	}
	digest := canon.HashState(st)
	res := goldenResult{
		State:  hex.EncodeToString(digest[:]),
		Shared: sharedPaths(st),
		Kind:   int(out.Kind),
		Host:   out.MigrateHost,
		Entry:  out.MigrateEntry,
		Steps:  out.Steps,
		Events: log.n,
		Stream: hex.EncodeToString(log.all.Sum(nil)),
		Procs:  hex.EncodeToString(log.procs.Sum(nil)),
	}
	if err != nil {
		res.Err = err.Error()
	}
	return res, log.lines, err
}

// fingerprint folds a result into 16 hex digits for the fuel sweeps.
func (r goldenResult) fingerprint() string {
	b, _ := json.Marshal(r)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// evaluate fills in a case's expectations from the evaluator in the
// tree, checking on the way what must hold on any evaluator: hooks do
// not change behaviour.
func evaluate(t *testing.T, c goldenCase) goldenCase {
	t.Helper()
	c.Want = runGolden(t, c.Src, goldenFuel, hookFull)
	bare := runGolden(t, c.Src, goldenFuel, hookNone)
	procs := runGolden(t, c.Src, goldenFuel, hookProcs)
	for _, other := range []goldenResult{bare, procs} {
		if other.State != c.Want.State || other.Shared != c.Want.Shared || other.Err != c.Want.Err ||
			other.Steps != c.Want.Steps || other.Kind != c.Want.Kind {
			t.Errorf("%s: behaviour depends on the hook:\n with  %+v\n other %+v", c.Name, c.Want, other)
		}
	}
	if procs.Procs != c.Want.Procs {
		t.Errorf("%s: ProcEventsOnly hook saw a different enter/exit sequence", c.Name)
	}
	if c.Sweep != nil {
		c.Sweep = make([]string, c.Want.Steps)
		for k := range c.Sweep {
			c.Sweep[k] = runGolden(t, c.Src, int64(k+1), hookFull).fingerprint()
		}
	}
	return c
}

// readGolden loads the recorded cases.
func readGolden(tb testing.TB) []goldenCase {
	tb.Helper()
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		tb.Fatal(err)
	}
	var cases []goldenCase
	if err := json.Unmarshal(b, &cases); err != nil {
		tb.Fatal(err)
	}
	return cases
}

// goldenSrc returns the source of the recorded case called name.
func goldenSrc(tb testing.TB, name string) string {
	tb.Helper()
	for _, c := range readGolden(tb) {
		if c.Name == name {
			return c.Src
		}
	}
	tb.Fatalf("no golden case %q", name)
	return ""
}

func TestGolden(t *testing.T) {
	cases := readGolden(t)
	if len(cases) < 300 {
		t.Fatalf("golden file holds %d cases, want at least 300", len(cases))
	}
	kinds := map[string]int{}
	for _, want := range cases {
		kinds[strings.SplitN(want.Name, "/", 2)[0]]++
		got := evaluate(t, want)
		got.Want.Procs = ""
		if got.Want != want.Want {
			t.Errorf("%s: diverges from the recorded evaluator\n got  %+v\n want %+v\n%s",
				want.Name, got.Want, want.Want, want.Src)
		}
		if len(got.Sweep) != len(want.Sweep) {
			t.Errorf("%s: fuel sweep has %d limits, recorded %d", want.Name, len(got.Sweep), len(want.Sweep))
			continue
		}
		for k := range want.Sweep {
			if got.Sweep[k] != want.Sweep[k] {
				t.Errorf("%s: under fuel limit %d the run stops elsewhere than recorded", want.Name, k+1)
				break
			}
		}
	}
	if kinds["random"] < 200 || kinds["sweep"] < 4 || kinds["alias"] == 0 || kinds["work"] < 4 || kinds["fused"] < 20 {
		t.Errorf("golden file lacks a case family: %v", kinds)
	}
}

// TestGoldenFuelEdge pins where the budget bites on every case, where the
// sweep/ cases pin it on three: a case that ends without an error runs
// the same under a budget of exactly its step count, and one step less
// stops it with ErrFuelExhausted after a prefix of its events. Each
// statement and each loop condition charges one step, before anything
// it does is seen. The error then unwinds the procedures still open,
// and each reports its exit on the way out. The prefix is the whole
// stream only where the last step is a migrate or done() statement,
// which reports no event of its own. Both budgets also run with no
// hook, as production sessions and re-executions do, and must end the
// same way after the same environment calls.
func TestGoldenFuelEdge(t *testing.T) {
	n := 0
	for _, c := range readGolden(t) {
		if c.Want.Err != "" || c.Want.Steps < 2 {
			continue
		}
		n++
		exact, full, err := runGoldenLog(t, c.Src, c.Want.Steps, hookFull, true)
		exact.Procs = ""
		if err != nil || exact != c.Want {
			t.Errorf("%s: under a budget of its %d steps the run diverges from the record\n got  %+v\n want %+v",
				c.Name, c.Want.Steps, exact, c.Want)
			continue
		}
		cut, short, err := runGoldenLog(t, c.Src, c.Want.Steps-1, hookFull, true)
		if !errors.Is(err, ErrFuelExhausted) {
			t.Errorf("%s: under a budget of %d steps: err = %v, want ErrFuelExhausted", c.Name, c.Want.Steps-1, err)
			continue
		}
		if !cutShort(short, full) {
			t.Errorf("%s: the %d events before the budget ran out are not a prefix of the full run's %d,"+
				" followed by the exits of the procedures still open\n short %q\n full  %q",
				c.Name, len(short), len(full), short, full[:min(len(full), len(short)+2)])
		}
		for _, run := range []struct {
			budget int64
			want   goldenResult
			events []string
		}{{c.Want.Steps, exact, full}, {c.Want.Steps - 1, cut, short}} {
			bare, calls, _ := runGoldenLog(t, c.Src, run.budget, hookNone, true)
			if !sameEnd(bare, run.want) || !slices.Equal(calls, envCalls(run.events)) {
				t.Errorf("%s: under a budget of %d steps the run with no hook diverges from the hooked one\n got  %+v\n want %+v",
					c.Name, run.budget, bare, run.want)
			}
		}
	}
	if n < 150 {
		t.Errorf("only %d golden cases end without an error after 2 steps or more, want at least 150", n)
	}
}

// sameEnd reports whether two runs of one program end alike: state,
// copy-on-write flags, outcome, step count and error.
func sameEnd(a, b goldenResult) bool {
	return a.State == b.State && a.Shared == b.Shared && a.Kind == b.Kind && a.Host == b.Host &&
		a.Entry == b.Entry && a.Steps == b.Steps && a.Err == b.Err
}

// envCalls keeps the environment calls of an event stream.
func envCalls(events []string) []string {
	var out []string
	for _, line := range events {
		if strings.HasPrefix(line, "I ") || strings.HasPrefix(line, "O ") {
			out = append(out, line)
		}
	}
	return out
}

// cutShort reports whether short is a prefix of full followed by the
// exits, innermost first, of the procedures open at its end.
func cutShort(short, full []string) bool {
	k := 0
	for k < len(short) && k < len(full) && short[k] == full[k] {
		k++
	}
	var open []string
	for _, line := range short[:k] {
		if name, ok := strings.CutPrefix(line, "> "); ok {
			open = append(open, name)
		} else if strings.HasPrefix(line, "< ") {
			open = open[:len(open)-1]
		}
	}
	for _, line := range short[k:] {
		if len(open) == 0 || line != "< "+open[len(open)-1] {
			return false
		}
		open = open[:len(open)-1]
	}
	return len(open) == 0
}

// TestRunSharedProgramConcurrently runs each golden case with three
// procedures or more from 8 goroutines at once, over one freshly parsed
// Program, so that their first calls of each procedure race to compile
// it. Every run has its own state, environment and hook, and must end
// exactly as a run on its own does. A case whose run allocates more
// than 4 MiB is left out: eight of them at once under the race
// detector, whose shadow memory multiplies the heap, need gigabytes.
func TestRunSharedProgramConcurrently(t *testing.T) {
	const sessions = 8
	n := 0
	var before, after runtime.MemStats
	for _, c := range readGolden(t) {
		if strings.Count(c.Src, "proc ") < 3 || c.Want.Steps > 10_000 {
			continue
		}
		runtime.ReadMemStats(&before)
		want, _, _ := runGoldenLog(t, c.Src, goldenFuel, hookFull, false)
		if runtime.ReadMemStats(&after); after.TotalAlloc-before.TotalAlloc > 4<<20 {
			continue
		}
		n++
		prog := MustParse(c.Src)
		got := make([]goldenResult, sessions)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], _, _ = runGoldenProg(t, prog, goldenFuel, hookFull, false)
			}()
		}
		wg.Wait()
		for i, g := range got {
			if g != want {
				t.Errorf("%s: session %d of %d sharing the program diverges from a run on its own\n got  %+v\n want %+v",
					c.Name, i, sessions, g, want)
				break
			}
		}
	}
	if n < 100 {
		t.Errorf("only %d golden cases have three procedures, want at least 100", n)
	}
}
