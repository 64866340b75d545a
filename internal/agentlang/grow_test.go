package agentlang

import (
	"fmt"
	"testing"

	"repro/internal/canon"
	"repro/internal/value"
)

// copyingForm parses src and leaves every x = append(x, e…) to the
// append builtin, which copies the list on every call: the evaluator
// before appendSelf, which the in-place path is held to.
func copyingForm(tb testing.TB, src string) *Program {
	tb.Helper()
	prog, err := Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	for _, s := range prog.stmtByID {
		if a, ok := s.(*assignStmt); ok {
			a.grow = nil
		}
	}
	return prog
}

func intList(ns ...int64) value.Value {
	out := make([]value.Value, len(ns))
	for i, n := range ns {
		out[i] = value.Int(n)
	}
	return value.List(out...)
}

// roomy is intList with room behind the elements, as a Go caller that
// built the list with append hands it over.
func roomy(ns ...int64) value.Value {
	return value.List(append(make([]value.Value, 0, len(ns)+8), intList(ns...).List...)...)
}

func wantValue(t *testing.T, what string, got, want value.Value) {
	t.Helper()
	if !got.Equal(want) {
		t.Errorf("%s = %s, want %s", what, got, want)
	}
}

// A growCase is a program whose self-appends an in-place path could get
// wrong. It must end as its copying form does. Every case before the
// three error-order ones fails when appendSelf just appends, with Go's
// append, to the list it read before its arguments (no clipping, no
// compaction).
type growCase struct {
	name   string
	src    string
	inputs func() []value.Value // read() answers, handed out as they are
	check  func(t *testing.T, r growRun)
}

// growRun is one run of a growCase from an empty state, under a hook
// that keeps the assignments it is handed.
type growRun struct {
	st   value.State
	env  *testEnv
	hook *hookRecorder
	out  Outcome
	err  error
}

func (c growCase) run(prog *Program) growRun {
	r := growRun{st: value.State{}, env: &testEnv{}, hook: &hookRecorder{}}
	if c.inputs != nil {
		r.env.inputs = c.inputs()
	}
	r.out, r.err = Run(prog, "main", r.st, r.env, Options{Hook: r.hook})
	return r
}

// fingerprint is what the copying form must agree on.
func (r growRun) fingerprint() string {
	return fmt.Sprintf("state=%x shared=%q out=%+v err=%v stmts=%v inputs=%d",
		canon.HashState(r.st), sharedPaths(r.st), r.out, r.err, r.hook.stmts, r.env.next)
}

var growCases = []growCase{
	{
		name: "alias taken before an append",
		src: `
proc main() {
    x = []
    x = append(x, 1)
    x = append(x, 2)
    x = append(x, 3)
    y = x
    x = append(x, 4)
    x[0] = 9
    let l = [1]
    l = append(l, 2)
    l = append(l, 3)
    let m = l
    l = append(l, 4)
    l[0] = 9
    z = m
}`,
		check: func(t *testing.T, r growRun) {
			wantValue(t, "y", r.st["y"], intList(1, 2, 3))
			wantValue(t, "z", r.st["z"], intList(1, 2, 3))
			wantValue(t, "x", r.st["x"], intList(9, 2, 3, 4))
		},
	},
	{
		name: "list appended to itself",
		src: `
proc main() {
    x = [1]
    x = append(x, 2)
    x = append(x, 3)
    x = append(x, x)
    x[0] = 5
}`,
		check: func(t *testing.T, r growRun) {
			wantValue(t, "x", r.st["x"], value.List(value.Int(5), value.Int(2), value.Int(3), intList(1, 2, 3)))
		},
	},
	{
		name: "argument reassigns x",
		src: `
proc swap() {
    y = x
    x = [7]
    return 1
}
proc main() {
    x = [1]
    x = append(x, 2)
    x = append(x, 3)
    x = append(x, swap())
    x[0] = 9
}`,
		check: func(t *testing.T, r growRun) {
			wantValue(t, "y", r.st["y"], intList(1, 2, 3))
			wantValue(t, "x", r.st["x"], intList(9, 2, 3, 1))
		},
	},
	{
		name: "argument appends to x",
		src: `
proc more() {
    x = append(x, 5)
    y = x
    return 1
}
proc main() {
    x = [1]
    x = append(x, 2)
    x = append(x, 3)
    x = append(x, more())
}`,
		check: func(t *testing.T, r growRun) {
			wantValue(t, "y", r.st["y"], intList(1, 2, 3, 5))
			wantValue(t, "x", r.st["x"], intList(1, 2, 3, 1))
		},
	},
	{
		name: "argument reads x",
		src: `
proc keep() {
    y = x
    return len(x)
}
proc main() {
    x = [1]
    x = append(x, 2)
    x = append(x, 3)
    x = append(x, keep())
    x[0] = 9
}`,
		check: func(t *testing.T, r growRun) {
			wantValue(t, "y", r.st["y"], intList(1, 2, 3))
			wantValue(t, "x", r.st["x"], intList(9, 2, 3, 3))
		},
	},
	{
		name: "len(x) appended, x passed to a procedure",
		src: `
proc grow(l) {
    l = append(l, len(l) * 10)
    return l
}
proc main() {
    let a = [0]
    a = append(a, len(a))
    a = append(a, len(a))
    b = grow(a)
    a = append(a, len(a))
    c = a
}`,
		check: func(t *testing.T, r growRun) {
			wantValue(t, "b", r.st["b"], intList(0, 1, 2, 30))
			wantValue(t, "c", r.st["c"], intList(0, 1, 2, 3))
		},
	},
	{
		name: "Env list with room behind it",
		src: `
proc main() {
    a = read("l")
    b = read("l")
    a = append(a, 1)
    b = append(b, 2)
    a[0] = 7
}`,
		inputs: func() []value.Value {
			l := roomy(0)
			return []value.Value{l, l}
		},
		check: func(t *testing.T, r growRun) {
			wantValue(t, "a", r.st["a"], intList(7, 1))
			wantValue(t, "b", r.st["b"], intList(0, 2))
			l := r.env.inputs[0].List
			wantValue(t, "the Env's list", r.env.inputs[0], intList(0))
			if behind := l[:cap(l)][len(l)]; behind.Kind != 0 {
				t.Errorf("the room behind the Env's list was written: %s", behind)
			}
		},
	},
	{
		name: "hook keeps the value reported",
		src: `
proc main() {
    x = [0]
    x = append(x, 1)
    x = append(x, read("n"))
    x = append(x, 2)
    x[0] = 9
}`,
		inputs: func() []value.Value { return []value.Value{value.Int(5)} },
		check: func(t *testing.T, r growRun) {
			got := r.hook.inputs[3]
			if len(got) != 1 {
				t.Fatalf("statement 3 reported %v", got)
			}
			wantValue(t, "x as reported", got[0].Val, intList(0, 1, 5))
		},
	},
	{
		name: "undefined x, failing argument",
		src:  `proc main() { x = append(x, 1 / 0) }`,
	},
	{
		name:   "x not a list, argument read first",
		src:    "proc main() {\n    x = 5\n    x = append(x, read(\"n\"))\n}",
		inputs: func() []value.Value { return []value.Value{value.Int(1)} },
	},
	{
		name: "argument migrates",
		src: `
proc away() {
    migrate("h", "main")
    return 1
}
proc main() {
    x = [1]
    x = append(x, 2)
    x = append(x, away())
}`,
		check: func(t *testing.T, r growRun) {
			wantValue(t, "x", r.st["x"], intList(1, 2))
		},
	},
}

// TestSelfAppendMatchesCopying holds appendSelf to the copying builtin
// on the programs an in-place append could get wrong.
func TestSelfAppendMatchesCopying(t *testing.T) {
	for _, c := range growCases {
		t.Run(c.name, func(t *testing.T) {
			r := c.run(MustParse(c.src))
			if got, want := r.fingerprint(), c.run(copyingForm(t, c.src)).fingerprint(); got != want {
				t.Fatalf("in place and copying differ:\n %s\n %s", got, want)
			}
			for name, v := range r.st {
				if cap(v.List) != len(v.List) {
					t.Errorf("%s left the session with room for %d more elements", name, cap(v.List)-len(v.List))
				}
			}
			if c.check != nil {
				c.check(t, r)
			}
		})
	}
}

// TestSelfAppendAcrossSessions: a list handed in with room behind it,
// and a value held between two sessions on one state, keep what they
// hold whatever the sessions append.
func TestSelfAppendAcrossSessions(t *testing.T) {
	sessions := []string{`
proc main() {
    x = append(x, read("n"))
    x = append(x, read("n"))
    x[0] = 9
}`, `
proc main() {
    x = append(x, 5)
    x[1] = 8
}`}
	run := func(parse func(string) *Program) (value.State, []value.Value) {
		st := value.State{"x": roomy(1, 2)}
		held := []value.Value{st["x"]}
		env := &testEnv{inputs: []value.Value{value.Int(3), value.Int(4)}}
		for _, src := range sessions {
			if _, err := Run(parse(src), "main", st, env, Options{}); err != nil {
				t.Fatal(err)
			}
			if v := st["x"]; cap(v.List) != len(v.List) {
				t.Errorf("x left the session with room for %d more elements", cap(v.List)-len(v.List))
			}
			held = append(held, st["x"])
		}
		return st, held
	}
	st, held := run(MustParse)
	ref, _ := run(func(src string) *Program { return copyingForm(t, src) })
	if canon.HashState(st) != canon.HashState(ref) {
		t.Fatalf("in place %v, copying %v", st, ref)
	}
	wantValue(t, "x as handed in", held[0], intList(1, 2))
	wantValue(t, "x held after the first session", held[1], intList(9, 2, 3, 4))
	wantValue(t, "x after the second", held[2], intList(9, 8, 3, 4, 5))
}

// BenchmarkAppendSession is the input loop of the repository
// benchmark's bulk-tcp-durable agent: five sessions on one state, each
// appending 100 inputs to one global list, with a snapshot at every
// session start as host.RunSession takes one.
func BenchmarkAppendSession(b *testing.B) {
	prog := MustParse(`
proc main() {
    let i = 0
    while i < 100 {
        got = append(got, read("elem"))
        i = i + 1
    }
}`)
	env := &scriptedEnv{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st := value.State{"got": value.List()}
		for s := 0; s < 5; s++ {
			st.Snapshot()
			if _, err := Run(prog, "main", st, env, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
