package agentlang

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/testutil"
	"repro/internal/value"
)

// testEnv is a scripted environment: input calls are served from a
// queue keyed only by order; outputs are collected.
type testEnv struct {
	inputs  []value.Value
	next    int
	outputs []OutputRecord
	// inputErr, when set, is returned by the next Input call.
	inputErr error
}

func (e *testEnv) Input(call string, args []value.Value) (value.Value, error) {
	if e.inputErr != nil {
		return value.Null(), e.inputErr
	}
	if e.next >= len(e.inputs) {
		return value.Null(), fmt.Errorf("testEnv: no input %d for %s", e.next, call)
	}
	v := e.inputs[e.next]
	e.next++
	return v, nil
}

func (e *testEnv) Output(action string, args []value.Value) error {
	e.outputs = append(e.outputs, OutputRecord{Action: action, Args: args})
	return nil
}

// run is a helper executing src's main with the given globals.
func run(t *testing.T, src string, globals value.State, env Env) (Outcome, value.State) {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if globals == nil {
		globals = value.State{}
	}
	if env == nil {
		env = &testEnv{}
	}
	out, err := Run(prog, "main", globals, env, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return out, globals
}

func TestArithmeticAndVariables(t *testing.T) {
	_, g := run(t, `
proc main() {
    a = 2 + 3 * 4
    b = (2 + 3) * 4
    c = 17 / 5
    d = 17 % 5
    e = -d
    f = 10 - 2 - 3
}`, nil, nil)
	want := map[string]int64{"a": 14, "b": 20, "c": 3, "d": 2, "e": -2, "f": 5}
	for name, wantV := range want {
		if got := g[name]; got.Int != wantV {
			t.Errorf("%s = %s, want %d", name, got, wantV)
		}
	}
}

func TestStringsAndConcat(t *testing.T) {
	_, g := run(t, `
proc main() {
    s = "foo" + "bar"
    t = str(42)
    u = s[1]
    v = slice(s, 0, 3)
    w = len(s)
}`, nil, nil)
	if g["s"].Str != "foobar" || g["t"].Str != "42" || g["u"].Str != "o" ||
		g["v"].Str != "foo" || g["w"].Int != 6 {
		t.Errorf("string ops: %v", g)
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	_, g := run(t, `
proc main() {
    a = 1 < 2
    b = "a" < "b"
    c = 2 <= 2 && 3 > 2
    d = false || true
    e = !false
    f = 1 == 1
    h = [1, 2] == [1, 2]
    i = {"x": 1} == {"x": 2}
    j = null == null
}`, nil, nil)
	for _, name := range []string{"a", "b", "c", "d", "e", "f", "h", "j"} {
		if !g[name].Bool {
			t.Errorf("%s = %s, want true", name, g[name])
		}
	}
	if g["i"].Bool {
		t.Error("i should be false")
	}
}

func TestShortCircuitSkipsInput(t *testing.T) {
	// The right operand of && must not be evaluated when the left is
	// false — if it were, it would consume input and break replay.
	env := &testEnv{inputs: []value.Value{value.Int(1)}}
	_, g := run(t, `
proc main() {
    a = false && read("never") == 1
    b = true || read("never") == 1
}`, nil, env)
	if env.next != 0 {
		t.Errorf("short-circuit evaluated input externals %d times", env.next)
	}
	if g["a"].Bool || !g["b"].Bool {
		t.Errorf("short-circuit values wrong: a=%s b=%s", g["a"], g["b"])
	}
}

func TestListsAndMaps(t *testing.T) {
	_, g := run(t, `
proc main() {
    xs = [1, 2, 3]
    xs[1] = 20
    m = {"a": 1}
    m["b"] = 2
    nested = {"inner": [10]}
    nested["inner"][0] = 11
    total = sum(xs)
    ks = keys(m)
    has = contains(m, "b")
    missing = get(m, "zzz", -1)
    smaller = delete(m, "a")
    sorted = sort([3, 1, 2])
}`, nil, nil)
	if g["total"].Int != 24 {
		t.Errorf("total = %s, want 24", g["total"])
	}
	if !g["ks"].Equal(value.List(value.Str("a"), value.Str("b"))) {
		t.Errorf("keys = %s", g["ks"])
	}
	if !g["has"].Bool {
		t.Error("contains failed")
	}
	if g["missing"].Int != -1 {
		t.Errorf("get default = %s", g["missing"])
	}
	if _, ok := g["smaller"].Map["a"]; ok {
		t.Error("delete did not remove key")
	}
	if !g["sorted"].Equal(value.List(value.Int(1), value.Int(2), value.Int(3))) {
		t.Errorf("sorted = %s", g["sorted"])
	}
	if g["nested"].Map["inner"].List[0].Int != 11 {
		t.Error("nested indexed assignment failed")
	}
}

func TestControlFlow(t *testing.T) {
	_, g := run(t, `
proc main() {
    n = 0
    while n < 10 { n = n + 1 }
    s = 0
    for let i = 0; i < 5; i = i + 1 { s = s + i }
    evens = 0
    for let j = 0; j < 10; j = j + 1 {
        if j % 2 != 0 { continue }
        if j >= 8 { break }
        evens = evens + 1
    }
    grade = ""
    x = 85
    if x >= 90 { grade = "A" } else if x >= 80 { grade = "B" } else { grade = "C" }
}`, nil, nil)
	if g["n"].Int != 10 || g["s"].Int != 10 || g["evens"].Int != 4 || g["grade"].Str != "B" {
		t.Errorf("control flow: n=%s s=%s evens=%s grade=%s", g["n"], g["s"], g["evens"], g["grade"])
	}
}

func TestProceduresAndLocals(t *testing.T) {
	_, g := run(t, `
proc double(x) { return x * 2 }
proc fib(n) {
    if n < 2 { return n }
    return fib(n - 1) + fib(n - 2)
}
proc main() {
    let tmp = double(21)
    answer = tmp
    f10 = fib(10)
}`, nil, nil)
	if g["answer"].Int != 42 {
		t.Errorf("answer = %s", g["answer"])
	}
	if g["f10"].Int != 55 {
		t.Errorf("fib(10) = %s", g["f10"])
	}
	if _, leaked := g["tmp"]; leaked {
		t.Error("local variable leaked into globals")
	}
	if _, leaked := g["x"]; leaked {
		t.Error("parameter leaked into globals")
	}
}

func TestLocalsShadowGlobals(t *testing.T) {
	_, g := run(t, `
proc main() {
    x = 1
    helper()
}
proc helper() {
    let x = 100
    x = x + 1
    seen = x
}`, nil, nil)
	if g["x"].Int != 1 {
		t.Errorf("global x = %s, want 1 (local should shadow)", g["x"])
	}
	if g["seen"].Int != 101 {
		t.Errorf("seen = %s, want 101", g["seen"])
	}
}

func TestGlobalsSharedAcrossProcs(t *testing.T) {
	_, g := run(t, `
proc bump() { counter = counter + 1 }
proc main() {
    counter = 0
    bump()
    bump()
}`, nil, nil)
	if g["counter"].Int != 2 {
		t.Errorf("counter = %s, want 2", g["counter"])
	}
}

func TestMigrateOutcome(t *testing.T) {
	out, g := run(t, `
proc main() {
    x = 1
    migrate("host2", "resume")
    x = 99
}`, nil, nil)
	if out.Kind != OutcomeMigrated {
		t.Fatalf("Kind = %v, want Migrated", out.Kind)
	}
	if out.MigrateHost != "host2" || out.MigrateEntry != "resume" {
		t.Errorf("migrate target = %q/%q", out.MigrateHost, out.MigrateEntry)
	}
	if g["x"].Int != 1 {
		t.Error("statements after migrate executed")
	}
}

func TestMigratePropagatesFromNestedProc(t *testing.T) {
	out, _ := run(t, `
proc go() { migrate("h", "e") }
proc main() { go() }`, nil, nil)
	if out.Kind != OutcomeMigrated || out.MigrateHost != "h" {
		t.Errorf("nested migrate: %+v", out)
	}
}

func TestDoneAndImplicitDone(t *testing.T) {
	out, _ := run(t, `proc main() { done() }`, nil, nil)
	if out.Kind != OutcomeDone {
		t.Errorf("done(): Kind = %v", out.Kind)
	}
	out, _ = run(t, `proc main() { x = 1 }`, nil, nil)
	if out.Kind != OutcomeDone {
		t.Errorf("implicit done: Kind = %v", out.Kind)
	}
}

func TestInputAndOutputExternals(t *testing.T) {
	env := &testEnv{inputs: []value.Value{
		value.Int(42),       // read
		value.Str("hello"),  // recv
		value.Int(1000),     // time
		value.Int(3),        // rand
		value.Str("db-row"), // resource
		value.Str("host-1"), // here
	}}
	_, g := run(t, `
proc main() {
    a = read("key")
    b = recv()
    c = time()
    d = rand(10)
    e = resource("db")
    f = here()
    send("partner", "offer")
    act("buy", "book", 42)
}`, nil, env)
	if g["a"].Int != 42 || g["b"].Str != "hello" || g["c"].Int != 1000 ||
		g["d"].Int != 3 || g["e"].Str != "db-row" || g["f"].Str != "host-1" {
		t.Errorf("input results wrong: %v", g)
	}
	if len(env.outputs) != 2 || env.outputs[0].Action != "send" || env.outputs[1].Action != "act" {
		t.Errorf("outputs = %+v", env.outputs)
	}
}

func TestRuntimeErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want string
	}{
		{"div by zero", `proc main() { x = 1 / 0 }`, "division by zero"},
		{"mod by zero", `proc main() { x = 1 % 0 }`, "modulo by zero"},
		{"undefined var", `proc main() { x = y + 1 }`, "undefined variable"},
		{"type mismatch", `proc main() { x = 1 + "a" }`, "needs ints"},
		{"bad compare", `proc main() { x = [1] < [2] }`, "cannot compare"},
		{"index out of range", `proc main() { xs = [1] x = xs[5] }`, "out of range"},
		{"negative index", `proc main() { xs = [1] x = xs[-1] }`, "out of range"},
		{"missing map key", `proc main() { m = {} x = m["k"] }`, "not present"},
		{"index into int", `proc main() { x = 5 y = x[0] }`, "cannot index"},
		{"unary minus string", `proc main() { x = -"a" }`, "needs int"},
		{"indexed assign to undefined", `proc main() { zs[0] = 1 }`, "undefined variable"},
		{"builtin error", `proc main() { x = int("nope") }`, "cannot parse"},
		{"recursion limit", `proc loop() { loop() } proc main() { loop() }`, "call depth"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			prog, err := Parse(tt.src)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			_, err = Run(prog, "main", value.State{}, &testEnv{}, Options{})
			if err == nil {
				t.Fatal("Run succeeded, want runtime error")
			}
			var rte *RuntimeError
			if !errors.As(err, &rte) {
				t.Fatalf("error %v is not a RuntimeError", err)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not contain %q", err, tt.want)
			}
		})
	}
}

// TestSelfContainingWriteRefused: an indexed write that would close a
// cycle is a runtime error, the state it leaves behind can still be
// walked, and writes that merely share structure stay legal.
func TestSelfContainingWriteRefused(t *testing.T) {
	for src, wantErr := range map[string]bool{
		`proc main() { x = [0] x[0] = x }`:                            true,
		`proc main() { let x = [0, 0] x[1] = x }`:                     true,
		`proc main() { m = {} m["a"] = m }`:                           true,
		`proc main() { x = [[0]] x[0][0] = x }`:                       true,
		`proc main() { x = [[0]] y = x[0] y[0] = x + x }`:             true,
		`proc main() { x = [{"k": 0}] y = x[0] y["k"] = {"x": [x]} }`: true,
		`proc main() { x = [0] y = [x] y[0] = x  x[0] = [1] }`:        false,
		`proc main() { x = [[1], 0] x[1] = x[0] y = x == x }`:         false,
		`proc main() { m = {"a": {}} n = {} n["m"] = m m["a"] = {} }`: false,
	} {
		st := value.State{}
		_, err := Run(MustParse(src), "main", st, &testEnv{}, Options{})
		if got := err != nil && strings.Contains(err.Error(), "contain itself"); got != wantErr {
			t.Errorf("%s: err = %v, want refusal %t", src, err, wantErr)
		}
		if s := fmt.Sprint(st); len(s) > 100 || len(st.Diff(st.Clone())) > 0 {
			t.Errorf("%s: state not a finite tree: %.100s", src, s)
		}
	}
}

func TestFuelExhaustion(t *testing.T) {
	prog := MustParse(`proc main() { while true { x = 1 } }`)
	_, err := Run(prog, "main", value.State{}, &testEnv{}, Options{Fuel: 1000})
	if !errors.Is(err, ErrFuelExhausted) {
		t.Errorf("err = %v, want ErrFuelExhausted", err)
	}
}

func TestRunValidation(t *testing.T) {
	prog := MustParse(`proc main() { x = 1 } proc helper(a) { return a }`)
	if _, err := Run(prog, "missing", value.State{}, &testEnv{}, Options{}); err == nil {
		t.Error("unknown entry accepted")
	}
	if _, err := Run(prog, "helper", value.State{}, &testEnv{}, Options{}); err == nil {
		t.Error("entry with parameters accepted")
	}
	if _, err := Run(prog, "main", nil, &testEnv{}, Options{}); err == nil {
		t.Error("nil globals accepted")
	}
	if _, err := Run(prog, "main", value.State{}, nil, Options{}); err == nil {
		t.Error("nil env accepted")
	}
}

func TestInputErrorPropagates(t *testing.T) {
	prog := MustParse(`proc main() { x = read("k") }`)
	env := &testEnv{inputErr: errors.New("boom")}
	_, err := Run(prog, "main", value.State{}, env, Options{})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("input error not propagated: %v", err)
	}
}

func TestStepsCounted(t *testing.T) {
	out, _ := run(t, `
proc main() {
    s = 0
    for let i = 0; i < 10; i = i + 1 { s = s + i }
}`, nil, nil)
	if out.Steps < 20 {
		t.Errorf("Steps = %d, suspiciously low", out.Steps)
	}
}

// hookRecorder captures hook callbacks.
type hookRecorder struct {
	stmts   []int
	inputs  map[int][]Assignment
	procIn  []string
	procOut []string
}

func (h *hookRecorder) Statement(id int, usedInput bool, assigned []Assignment) {
	h.stmts = append(h.stmts, id)
	if usedInput {
		if h.inputs == nil {
			h.inputs = make(map[int][]Assignment)
		}
		h.inputs[id] = assigned
	}
}
func (h *hookRecorder) EnterProc(name string) { h.procIn = append(h.procIn, name) }
func (h *hookRecorder) ExitProc(name string)  { h.procOut = append(h.procOut, name) }

func TestHookStatementAndProcEvents(t *testing.T) {
	prog := MustParse(`
proc helper() { return 7 }
proc main() {
    x = read("k")
    y = x + helper()
}`)
	env := &testEnv{inputs: []value.Value{value.Int(5)}}
	hook := &hookRecorder{}
	if _, err := Run(prog, "main", value.State{}, env, Options{Hook: hook}); err != nil {
		t.Fatal(err)
	}
	if len(hook.procIn) != 2 || hook.procIn[0] != "main" || hook.procIn[1] != "helper" {
		t.Errorf("EnterProc sequence = %v", hook.procIn)
	}
	if len(hook.procOut) != 2 || hook.procOut[0] != "helper" || hook.procOut[1] != "main" {
		t.Errorf("ExitProc sequence = %v", hook.procOut)
	}
	// Exactly one statement consumed input: the read assignment. It must
	// record x = 5 per the Fig. 3 trace format.
	if len(hook.inputs) != 1 {
		t.Fatalf("inputs recorded at %d statements, want 1: %v", len(hook.inputs), hook.inputs)
	}
	for _, assigned := range hook.inputs {
		if len(assigned) != 1 || assigned[0].Name != "x" || assigned[0].Val.Int != 5 {
			t.Errorf("input statement bindings = %+v, want x=5", assigned)
		}
	}
}

func TestHookCalleeInputDoesNotMarkCaller(t *testing.T) {
	prog := MustParse(`
proc fetch() { return read("k") }
proc main() {
    y = fetch()
}`)
	env := &testEnv{inputs: []value.Value{value.Int(9)}}
	hook := &hookRecorder{}
	if _, err := Run(prog, "main", value.State{}, env, Options{Hook: hook}); err != nil {
		t.Fatal(err)
	}
	// The return statement inside fetch consumed the input; the caller's
	// assignment must not be flagged.
	for id, assigned := range hook.inputs {
		for _, a := range assigned {
			if a.Name == "y" {
				t.Errorf("caller statement %d flagged as input-consuming: %+v", id, assigned)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	// Same program + same input => identical resulting state, repeatedly.
	src := `
proc main() {
    m = {}
    for let i = 0; i < 20; i = i + 1 {
        m[str(i)] = i * read("x")
    }
    ks = keys(m)
    order = ""
    for let j = 0; j < len(ks); j = j + 1 { order = order + ks[j] }
}`
	prog := MustParse(src)
	var ref value.State
	for trial := 0; trial < 5; trial++ {
		inputs := make([]value.Value, 20)
		for i := range inputs {
			inputs[i] = value.Int(int64(i + 1))
		}
		g := value.State{}
		if _, err := Run(prog, "main", g, &testEnv{inputs: inputs}, Options{}); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = g
			continue
		}
		if d := ref.Diff(g); len(d) > 0 {
			t.Fatalf("nondeterministic execution: %v vs %v", d, g)
		}
	}
}

// BenchmarkSummationCycle is the paper's unit of computation: one cycle
// = integer summation of 1000 values. ns/stmt is the time per charged
// step, the figure to compare evaluators by.
func BenchmarkSummationCycle(b *testing.B) {
	benchRun(b, MustParse(`
proc main() {
    let s = 0
    for let j = 0; j < 1000; j = j + 1 { s = s + j }
    total = s
}`), func() value.State { return value.State{} })
}

// BenchmarkWorkSession runs one session of the repository benchmark's
// agent in each of its golden shapes. cycles=50,inputs=1 is the unit
// the `compute` workload is made of (five of these per itinerary, more
// when a checker re-executes); inputs=100 is `bulk`'s input loop.
func BenchmarkWorkSession(b *testing.B) {
	for _, c := range readGolden(b) {
		name, ok := strings.CutPrefix(c.Name, "work/")
		if !ok {
			continue
		}
		b.Run(name, func(b *testing.B) {
			benchRun(b, MustParse(c.Src), func() value.State {
				return value.State{"total": value.Int(0), "hops": value.Int(0), "sum": value.Int(0), "got": value.List()}
			})
		})
	}
}

// BenchmarkFirstSession is what an agent arriving at a host pays for
// its code: Parse, then the first Run, of one light-workload hop.
func BenchmarkFirstSession(b *testing.B) {
	src := goldenSrc(b, "work/cycles=1,inputs=1")
	env := &scriptedEnv{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, err := Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		st := value.State{"total": value.Int(0), "hops": value.Int(0), "sum": value.Int(0), "got": value.List()}
		if _, err := Run(prog, "main", st, env, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRun(b *testing.B, prog *Program, initial func() value.State) {
	var steps int64
	env := &scriptedEnv{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := Run(prog, "main", initial(), env, Options{})
		if err != nil {
			b.Fatal(err)
		}
		steps += out.Steps
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/stmt")
}

// BenchmarkExprEval evaluates the appraisal rule the repository
// benchmark's owner signs, as appraisal.Check does once per hop.
func BenchmarkExprEval(b *testing.B) {
	rule := MustParseExpression("total == hops")
	st := value.State{"total": value.Int(5), "hops": value.Int(5)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, err := rule.EvalBool(st); err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
}

// TestEvaluatorAllocs pins what the evaluator may allocate: a fixed
// amount per Run, and per statement only what the statement's own
// result needs. Locals, arguments and temporaries live on the value
// stack.
func TestEvaluatorAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation ceilings are not meaningful under the race detector")
	}
	// allocs returns the allocations of one Run of a loop of n rounds
	// of body, helper procedures included.
	allocs := func(n int, body string) float64 {
		prog := MustParse(fmt.Sprintf(`
proc add(a, b) { let c = a + b return c }
proc main() {
    let s = "text"
    let l = [3, 1, 2]
    let x = 0
    for let i = 0; i < %d; i = i + 1 { %s }
    out = x
}`, n, body))
		st := value.State{"g": value.Int(1)}
		return testing.AllocsPerRun(20, func() {
			if _, err := Run(prog, "main", st, &testEnv{}, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	tests := []struct {
		name, body string
		perRound   float64
		atMost     bool // perRound is a ceiling: growth allocates now and then
	}{
		{"arithmetic and comparison", `x = x + i * 2 - g  if x > 10 && i != 3 { x = x % 7 }`, 0, false},
		{"straight-line int body", `x = x + i  let y = x * 3  x = y % 7`, 0, false},
		{"scalar builtins", `x = len(s) + abs(x) + min(i, 3) + max(l) + sum(l) + int(contains(l, i)) + int(isnull(g))`, 0, false},
		{"indexing", `x = l[i % 3] + len(s[0])  l[1] = x`, 0, false},
		{"procedure calls", `x = add(x, add(i, 1))`, 0, false},
		{"append to another variable allocates its result only", `m = append(l, i)`, 1, false},
		{"append to the same variable grows in place", `l = append(l, i)`, 0.1, true},
		{"list literal allocates its elements only", `l = [i, x]`, 1, false},
	}
	for _, tt := range tests {
		few, many := allocs(10, tt.body), allocs(110, tt.body)
		if got := (many - few) / 100; got != tt.perRound && !(tt.atMost && got <= tt.perRound) {
			t.Errorf("%s: %.2f allocations per round (%.0f at 10 rounds, %.0f at 110), want %g",
				tt.name, got, few, many, tt.perRound)
		}
		if few > 4 && tt.perRound == 0 {
			t.Errorf("%s: %.0f allocations per Run, want at most 4", tt.name, few)
		}
	}

	// An arriving agent's code: Parse, then the first Run compiles what
	// the session reaches. Each closure the compiler builds is an
	// allocation.
	src, env := goldenSrc(t, "work/cycles=1,inputs=1"), &scriptedEnv{}
	first := testing.AllocsPerRun(20, func() {
		prog, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		st := value.State{"total": value.Int(0), "hops": value.Int(0), "sum": value.Int(0), "got": value.List()}
		if _, err := Run(prog, "main", st, env, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if first > 197 {
		t.Errorf("Parse and first Run of one light hop: %.0f allocations, want at most 197", first)
	}

	// A rule needs the value stack only for builtin arguments.
	st := value.State{"total": value.Int(5), "hops": value.Int(5), "got": value.List()}
	for rule, want := range map[string]float64{
		"total == hops && 2 * total - hops > 0": 0,
		"len(got) <= 3 * max(hops, abs(total))": 1,
	} {
		e := MustParseExpression(rule)
		if avg := testing.AllocsPerRun(100, func() { _, _ = e.EvalBool(st) }); avg != want {
			t.Errorf("Eval(%s) allocs/op = %.1f, want %.0f", rule, avg, want)
		}
	}
}
