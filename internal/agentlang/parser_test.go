package agentlang

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/testutil"
	"repro/internal/value"
)

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want string
	}{
		{"empty", ``, "no procedures"},
		{"junk", `42`, "expected 'proc'"},
		{"missing paren", `proc main { }`, "expected '('"},
		{"missing body", `proc main()`, "expected '{'"},
		{"unterminated block", `proc main() { x = 1`, "unexpected end of input"},
		{"bad statement", `proc main() { 42 }`, "expected statement"},
		{"assign to call", `proc main() { f() = 1 }`, "expected statement"},
		{"duplicate proc", `proc a() {} proc a() {}`, "duplicate procedure"},
		{"duplicate param", `proc f(x, x) {} proc main() {}`, "duplicate parameter"},
		{"duplicate let", `proc main() { let x = 1 let x = 2 }`, "already declared"},
		{"undefined proc call", `proc main() { nothere() }`, "undefined procedure"},
		{"arity mismatch", `proc f(a, b) {} proc main() { f(1) }`, "takes 2 parameters"},
		{"builtin arity", `proc main() { x = len() }`, "builtin len called with 0"},
		{"external arity", `proc main() { x = read() }`, "read expects 1"},
		{"migrate arity", `proc main() { migrate("h") }`, "migrate expects 2"},
		{"unterminated string", `proc main() { x = "abc }`, "unterminated string"},
		{"bad escape", `proc main() { x = "a\q" }`, "unknown escape"},
		{"stray char", `proc main() { x = 1 @ }`, "unexpected character"},
		{"lonely ampersand", `proc main() { x = 1 & 2 }`, "unexpected character"},
		{"number then letter", `proc main() { x = 12ab }`, "malformed number"},
		{"huge int", `proc main() { x = 99999999999999999999 }`, "out of range"},
		{"missing colon in map", `proc main() { m = {"a" 1} }`, "expected ':'"},
		{"missing comma in list", `proc main() { l = [1 2] }`, "expected ','"},
		{"unclosed paren", `proc main() { x = (1 + 2 }`, "expected ')'"},
		{"for without semicolons", `proc main() { for x { } }`, "expected '='"},
		{"for with bad init", `proc main() { for 1; x; { } }`, "expected init statement"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Parse(tt.src)
			if err == nil {
				t.Fatal("Parse succeeded, want error")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not contain %q", err, tt.want)
			}
		})
	}
}

func TestParseErrorPositions(t *testing.T) {
	_, err := Parse("proc main() {\n    x = 1 +\n}")
	if err == nil {
		t.Fatal("want error")
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T, want *SyntaxError", err)
	}
	if se.Pos.Line != 3 {
		t.Errorf("error line = %d, want 3", se.Pos.Line)
	}
}

func TestStatementIDsAreStable(t *testing.T) {
	src := `
proc main() {
    a = 1
    if a > 0 { b = 2 } else { c = 3 }
    while a < 10 { a = a + 1 }
}`
	p1 := MustParse(src)
	p2 := MustParse(src)
	if p1.NumStatements() != p2.NumStatements() {
		t.Fatal("statement counts differ between parses")
	}
	for id := 1; id <= p1.NumStatements(); id++ {
		if p1.StatementText(id) != p2.StatementText(id) {
			t.Errorf("statement %d text differs: %q vs %q", id, p1.StatementText(id), p2.StatementText(id))
		}
	}
}

func TestStatementIDsSequential(t *testing.T) {
	prog := MustParse(`
proc main() {
    a = 1
    b = 2
    c = 3
}`)
	if prog.NumStatements() != 3 {
		t.Fatalf("NumStatements = %d, want 3", prog.NumStatements())
	}
	for id := 1; id <= 3; id++ {
		if prog.StatementText(id) == "" {
			t.Errorf("statement %d has no text", id)
		}
	}
	if prog.StatementText(0) != "" || prog.StatementText(99) != "" {
		t.Error("out-of-range statement IDs returned text")
	}
}

func TestStatementTextStripsComments(t *testing.T) {
	prog := MustParse(`
proc main() {
    a = 1   # this comment must not appear
}`)
	if got := prog.StatementText(1); got != "a = 1" {
		t.Errorf("StatementText = %q, want %q", got, "a = 1")
	}
}

func TestHasProcAndSource(t *testing.T) {
	src := `proc main() { x = 1 }`
	prog := MustParse(src)
	if !prog.HasProc("main") || prog.HasProc("other") {
		t.Error("HasProc misreports")
	}
	if prog.Source() != src {
		t.Error("Source() does not round-trip")
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	prog := MustParse(`
# leading comment
proc main() {   # trailing
    # interior
    x = 1
}
# closing comment`)
	if prog.NumStatements() != 1 {
		t.Errorf("NumStatements = %d, want 1", prog.NumStatements())
	}
}

func TestNestedIndexingParse(t *testing.T) {
	// Parses and runs: deep index paths on both sides.
	_, g := run(t, `
proc main() {
    m = {"a": [{"b": 1}]}
    m["a"][0]["b"] = 2
    v = m["a"][0]["b"]
}`, nil, nil)
	if g["v"].Int != 2 {
		t.Errorf("v = %s, want 2", g["v"])
	}
}

func TestMustParsePanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse did not panic on bad source")
		}
	}()
	MustParse("not a program")
}

func TestKeywordsNotIdentifiers(t *testing.T) {
	_, err := Parse(`proc main() { while = 1 }`)
	if err == nil {
		t.Error("keyword used as identifier accepted")
	}
}

func TestEscapeSequences(t *testing.T) {
	_, g := run(t, `proc main() { s = "a\nb\t\"c\\" }`, nil, nil)
	if g["s"].Str != "a\nb\t\"c\\" {
		t.Errorf("escapes decoded to %q", g["s"].Str)
	}
}

func TestBareReturn(t *testing.T) {
	_, g := run(t, `
proc f() {
    early = 1
    return
}
proc main() { f() marker = 1 }`, nil, nil)
	if g["marker"].Int != 1 || g["early"].Int != 1 {
		t.Errorf("bare return: %v", g)
	}
}

func TestReturnFollowedByBlockEnd(t *testing.T) {
	// `return` directly before '}' must parse as bare return, not try to
	// consume '}' as an expression.
	_, g := run(t, `
proc f(x) { if x > 0 { return } hit = 1 }
proc main() { f(1) f(0) }`, nil, nil)
	if g["hit"].Int != 1 {
		t.Errorf("hit = %s", g["hit"])
	}
}

// exprHeight measures an expression tree the way every walk over it
// recurses: one level per node.
func exprHeight(e expr) int {
	h := 0
	switch ex := e.(type) {
	case nil:
		return 0
	case *listLit:
		for _, el := range ex.elems {
			h = max(h, exprHeight(el))
		}
	case *mapLit:
		for i := range ex.keys {
			h = max(h, exprHeight(ex.keys[i]), exprHeight(ex.vals[i]))
		}
	case *indexExpr:
		h = max(exprHeight(ex.base), exprHeight(ex.idx))
	case *unaryExpr:
		h = exprHeight(ex.x)
	case *binaryExpr:
		h = max(exprHeight(ex.l), exprHeight(ex.r))
	case *callExpr:
		for _, a := range ex.args {
			h = max(h, exprHeight(a))
		}
	}
	return h + 1
}

// tallestExpr returns the height of the tallest expression in prog.
func tallestExpr(prog *Program) int {
	h := 0
	for _, s := range prog.stmtByID {
		switch st := s.(type) {
		case *letStmt:
			h = max(h, exprHeight(st.rhs))
		case *assignStmt:
			h = max(h, exprHeight(st.rhs))
			for _, idx := range st.path {
				h = max(h, exprHeight(idx))
			}
		case *ifStmt:
			for _, c := range st.conds {
				h = max(h, exprHeight(c))
			}
		case *whileStmt:
			h = max(h, exprHeight(st.cond))
		case *forStmt:
			h = max(h, exprHeight(st.cond))
		case *returnStmt:
			h = max(h, exprHeight(st.val))
		case *exprStmt:
			h = max(h, exprHeight(&st.call))
		}
	}
	return h
}

// TestNestingBound: source text comes from untrusted peers, and the
// parser, the evaluator and checkPure all recurse once per level of it.
// Whatever shape the nesting takes, Parse must either refuse it or
// produce a tree no taller than maxNesting, and it must never take the
// process down: 3 M parentheses are 6 MB, far below any transport
// limit, and used to end in an unrecoverable stack overflow.
func TestNestingBound(t *testing.T) {
	rep := strings.Repeat
	shapes := []struct {
		name string
		src  func(n int) string
	}{
		{"parens", func(n int) string { return "proc main() { x = " + rep("(", n) + "1" + rep(")", n) + " }" }},
		{"lists", func(n int) string { return "proc main() { x = " + rep("[", n) + rep("]", n) + " }" }},
		{"maps", func(n int) string { return "proc main() { x = " + rep(`{"k": `, n) + "1" + rep("}", n) + " }" }},
		{"calls", func(n int) string { return "proc main() { x = " + rep("abs(", n) + "1" + rep(")", n) + " }" }},
		{"unary", func(n int) string { return "proc main() { x = " + rep("- ", n) + "1 }" }},
		{"sum chain", func(n int) string { return "proc main() { x = 1" + rep(" + 1", n) + " }" }},
		{"or chain", func(n int) string { return "proc main() { x = true" + rep(" || false", n) + " }" }},
		{"index chain", func(n int) string { return "proc main() { x = [] y = x" + rep("[0]", n) + " }" }},
		{"index nest", func(n int) string { return "proc main() { x = [0] y = " + rep("x[", n) + "0" + rep("]", n) + " }" }},
		{"path index", func(n int) string { return "proc main() { x = [0] x[1" + rep(" + 1", n) + "] = 2 }" }},
		{"blocks", func(n int) string { return "proc main() { " + rep("if true { ", n) + "x = 1" + rep(" }", n) + " }" }},
		{"loops", func(n int) string { return "proc main() { " + rep("while false { ", n) + rep(" }", n) + " }" }},
		{"else chain", func(n int) string { return "proc main() { if false { }" + rep(" else if false { }", n) + " }" }},
		// A chain grows upwards from its first operand: n levels of
		// twelve-term sums, each the first term of the next.
		{"chains of chains", func(n int) string {
			return "proc main() { x = " + rep("(", n) + "1" + rep(rep(" + 1", 12)+")", n) + " }"
		}},
		{"mixed precedence", func(n int) string {
			return "proc main() { x = " + rep("1 || 1 && 1 == 1 < 1 + 1 * (", n) + "1" + rep(")", n) + " }"
		}},
	}
	for _, sh := range shapes {
		for _, n := range []int{1, 10, 20, 100, 200, 254, 300, 5000} {
			prog, err := Parse(sh.src(n))
			if err != nil {
				var se *SyntaxError
				if !errors.As(err, &se) || !strings.Contains(err.Error(), "nesting deeper") {
					t.Errorf("%s/%d: err = %v, want the nesting SyntaxError", sh.name, n, err)
				}
				if n <= 10 {
					t.Errorf("%s/%d refused: %v", sh.name, n, err)
				}
				continue
			}
			if h := tallestExpr(prog); h > maxNesting {
				t.Errorf("%s/%d: accepted with an expression %d nodes tall, limit %d", sh.name, n, h, maxNesting)
			}
			if n >= 300 && sh.name != "else chain" {
				t.Errorf("%s/%d: accepted", sh.name, n)
			}
			// What parses must also run: errors are fine, a crash is not.
			_, _ = Run(prog, "main", value.State{}, &testEnv{}, Options{Fuel: 10_000})
		}
	}

	for _, src := range []string{
		"proc main() { x = " + rep("(", 3<<20) + "1" + rep(")", 3<<20) + " }",
		"proc main() { " + rep("if true { ", 1<<20) + rep(" }", 1<<20) + " }",
	} {
		if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "nesting deeper") {
			t.Errorf("Parse of %d bytes of nesting: err = %v", len(src), err)
		}
	}
	deepRule := rep("(", 3<<20) + "1" + rep(")", 3<<20)
	if _, err := ParseExpression(deepRule); err == nil {
		t.Error("ParseExpression accepted 3 M parentheses")
	}
	if _, err := ParseExpression("1" + rep(" + 1", 1<<20)); err == nil {
		t.Error("ParseExpression accepted a sum of 1 M terms")
	}
}

// longProgram is an n-statement, n+2-line program.
func longProgram(n int) string {
	var b strings.Builder
	b.WriteString("proc main() {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "    total = total + %d # step\n", i)
	}
	b.WriteString("}\n")
	return b.String()
}

// itineraryProgram has the shape of the repository benchmark's agent:
// a five-host route, a work() procedure with two loops.
const itineraryProgram = `proc main() {
    work()
    migrate("w01", "step")
}
proc step() {
    work()
    let at = here()
    if at == "w01" { migrate("w02", "step") }
    if at == "w02" { migrate("w03", "step") }
    if at == "w03" { migrate("w04", "step") }
    if at == "w04" { migrate("w05", "step") }
    if at == "w05" { migrate("home", "fin") }
    done()
}
proc fin() {
    work()
    done()
}
proc work() {
    total = total + 1
    hops = hops + 1
    let i = 0
    while i < 1 {
        got = append(got, read("elem"))
        i = i + 1
    }
    let c = 0
    while c < 1 {
        let s = 0
        let j = 0
        while j < 1000 {
            s = s + j
            j = j + 1
        }
        sum = s
        c = c + 1
    }
}
`

// unicodeProgram is itineraryProgram with names in other scripts,
// escapes in its string literals and comments that are not ASCII: the
// lexer's slow paths.
const unicodeProgram = `# Reiseroute über fünf Gastgeber — 行程
proc main() {
    arbeit()
    migrate("w01", "schritt") # erster Schritt
}
proc schritt() {
    arbeit()
    let ort = here()
    notiz = "Ort:\t" + ort + "\n\"geprüft\" ✓"
    if ort == "w01" { migrate("w02", "schritt") } # → w02
    if ort == "w02" { migrate("w03", "schritt") } # → w03
    if ort == "w03" { migrate("w04", "schritt") } # → w04
    if ort == "w04" { migrate("w05", "schritt") } # → w05
    if ort == "w05" { migrate("heim", "ende") }   # → 家
    done()
}
proc ende() {
    arbeit()
    done()
}
proc arbeit() {
    summe = summe + 1
    größe = größe + 1
    let ι = 0
    while ι < 1 {
        gelesen = append(gelesen, read("élément"))
        ι = ι + 1
    }
    let ζ = 0
    while ζ < 1 {
        let σ = 0
        let ј = 0
        while ј < 1000 {
            σ = σ + ј
            ј = ј + 1
        }
        ergebnis_π = σ
        ζ = ζ + 1
    }
}
`

// TestParseAllocs pins what parsing the benchmark-shaped agent
// allocates: its nodes, their slices, the Program and one copy of each
// distinct name and string literal. Every arrival pays it.
func TestParseAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const ceiling = 141
	got := testing.AllocsPerRun(200, func() {
		if _, err := Parse(itineraryProgram); err != nil {
			t.Fatal(err)
		}
	})
	if got > ceiling {
		t.Errorf("Parse(itineraryProgram) allocates %.1f times, ceiling %d", got, ceiling)
	}
}

// TestParsedStringsCopied: no name or string literal value reachable
// from a parsed Program or rule shares bytes with its source text.
// Literal values and names travel on into agent state, journal entries
// and events; a window into the source there would keep each agent's
// whole source alive. Statement snippets may, and do, share them.
func TestParsedStringsCopied(t *testing.T) {
	srcs := []string{itineraryProgram, unicodeProgram, longProgram(50)}
	for _, c := range readGolden(t) {
		srcs = append(srcs, c.Src)
	}
	for _, src := range srcs {
		prog, err := Parse(src)
		if err != nil {
			continue // golden cases include parse errors
		}
		lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
		hi := lo + uintptr(len(src))
		n := 0
		eachString(prog, func(what, s string) {
			n++
			if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); s != "" && lo <= p && p < hi {
				t.Errorf("%s %q is a window into its source", what, s)
			}
		})
		if n == 0 {
			t.Errorf("no strings found in %q", src)
		}
	}
	for _, src := range []string{`total == hops`, `len(got) <= 5 && visited["w01"] != "x"`} {
		e, err := ParseExpression(src)
		if err != nil {
			t.Fatal(err)
		}
		lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
		hi := lo + uintptr(len(src))
		walkExpr(e.root, func(what, s string) {
			if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); s != "" && lo <= p && p < hi {
				t.Errorf("rule %s %q is a window into its source", what, s)
			}
		})
	}
}

// eachString calls fn on every name and string literal value of prog.
func eachString(prog *Program, fn func(what, s string)) {
	var block func([]stmt)
	var one func(stmt)
	one = func(s stmt) {
		switch s := s.(type) {
		case *letStmt:
			fn("local", s.name)
			walkExpr(s.rhs, fn)
		case *assignStmt:
			fn("variable", s.name)
			for _, e := range s.path {
				walkExpr(e, fn)
			}
			walkExpr(s.rhs, fn)
		case *ifStmt:
			for i := range s.conds {
				walkExpr(s.conds[i], fn)
				block(s.bodies[i])
			}
			block(s.els)
		case *whileStmt:
			walkExpr(s.cond, fn)
			block(s.body)
		case *forStmt:
			if s.init != nil {
				one(s.init)
			}
			walkExpr(s.cond, fn)
			if s.post != nil {
				one(s.post)
			}
			block(s.body)
		case *returnStmt:
			if s.val != nil {
				walkExpr(s.val, fn)
			}
		case *exprStmt:
			walkExpr(&s.call, fn)
		}
	}
	block = func(stmts []stmt) {
		for _, s := range stmts {
			one(s)
		}
	}
	for key, p := range prog.procs {
		fn("procedure key", key)
		fn("procedure", p.Name)
		for _, param := range p.Params {
			fn("parameter", param)
		}
		block(p.body)
	}
}

// walkExpr calls fn on every name and string literal value under e.
func walkExpr(e expr, fn func(what, s string)) {
	switch e := e.(type) {
	case *literal:
		if e.Kind == value.KindString {
			fn("literal", e.Str)
		}
	case *listLit:
		for _, el := range e.elems {
			walkExpr(el, fn)
		}
	case *mapLit:
		for i := range e.keys {
			walkExpr(e.keys[i], fn)
			walkExpr(e.vals[i], fn)
		}
	case *varRef:
		fn("variable", e.name)
	case *indexExpr:
		walkExpr(e.base, fn)
		walkExpr(e.idx, fn)
	case *unaryExpr:
		walkExpr(e.x, fn)
	case *binaryExpr:
		walkExpr(e.l, fn)
		walkExpr(e.r, fn)
	case *callExpr:
		fn("callee", e.name)
		for _, a := range e.args {
			walkExpr(a, fn)
		}
	}
}

// TestParseAllocationLinear: what Parse allocates grows with the source,
// not with its square. Every arrival parses the agent's code — and so
// does every checker that re-executes it — and any peer chooses that
// code. Splitting the whole source once per statement made a 4000-line
// program cost hundreds of megabytes.
func TestParseAllocationLinear(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation bounds are not meaningful under the race detector")
	}
	for _, n := range []int{500, 4000} {
		src := longProgram(n)
		if _, err := Parse(src); err != nil {
			t.Fatal(err)
		}
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			_, _ = Parse(src)
		}
		runtime.ReadMemStats(&after)
		perParse := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%d statements: %d bytes allocated per parse of %d source bytes", n, perParse, len(src))
		if limit := uint64(64 * len(src)); perParse > limit {
			t.Errorf("%d statements (%d bytes): Parse allocates %d bytes, want <= %d", n, len(src), perParse, limit)
		}
	}
}

// BenchmarkParse parses the benchmark-shaped agent, the same agent
// written with non-ASCII names, escapes and comments, and a
// 4000-statement program.
func BenchmarkParse(b *testing.B) {
	for _, c := range []struct{ name, src string }{
		{"itinerary", itineraryProgram},
		{"itinerary-unicode", unicodeProgram},
		{"4000-statements", longProgram(4000)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Parse(c.src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
