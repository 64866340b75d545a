package agentlang

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// The parse corpus. testdata/parse.json was recorded from the
// rune-at-a-time lexer and the parser it fed, before the byte-level
// front end replaced them, by a recorder that is not kept. It holds
// every source of golden.json, every string literal of parser_test.go
// and lexer_test.go, a few appraisal rules (parsed as expressions), and
// seeded byte-level mutants of them: deletions, non-ASCII letters and
// digits, CRLF line ends, escapes, stray quotes, NUL bytes and invalid
// UTF-8. For each source it records either the exact error text, with
// its line:col, or the sha256 of parseShape's rendering of the AST:
// procedures, parameters, local counts, statement IDs, positions,
// snippets, literal values and which literals are one node.
//
// As with golden.json there is no way to re-record it: a front end
// that disagrees with it has changed the language.

const parseCorpusPath = "testdata/parse.json"

type parseCase struct {
	Src   string `json:"src,omitempty"`
	Hex   string `json:"hex,omitempty"` // the source, when it is not valid UTF-8
	Expr  bool   `json:"expr,omitempty"`
	Err   string `json:"err,omitempty"`
	Shape string `json:"shape,omitempty"`
}

func (c parseCase) source(t testing.TB) string {
	if c.Hex == "" {
		return c.Src
	}
	b, err := hex.DecodeString(c.Hex)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// parseOutcome parses src as a program or, with isExpr, as a rule, and
// returns the error text or the shape digest.
func parseOutcome(src string, isExpr bool) (errText, shape string) {
	var dump string
	if isExpr {
		e, err := ParseExpression(src)
		if err != nil {
			return err.Error(), ""
		}
		dump = exprShape(e.root)
	} else {
		prog, err := Parse(src)
		if err != nil {
			return err.Error(), ""
		}
		dump = parseShape(prog)
	}
	sum := sha256.Sum256([]byte(dump))
	return "", hex.EncodeToString(sum[:12])
}

func TestParseGolden(t *testing.T) {
	raw, err := os.ReadFile(parseCorpusPath)
	if err != nil {
		t.Fatal(err)
	}
	var cases []parseCase
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) < 1000 {
		t.Fatalf("corpus holds %d sources", len(cases))
	}
	bad := 0
	for i, c := range cases {
		src := c.source(t)
		gotErr, gotShape := parseOutcome(src, c.Expr)
		if gotErr != c.Err || gotShape != c.Shape {
			bad++
			if bad <= 10 {
				t.Errorf("case %d %q:\n got err=%q shape=%s\nwant err=%q shape=%s", i, src, gotErr, gotShape, c.Err, c.Shape)
			}
		}
	}
	if bad > 10 {
		t.Errorf("%d of %d cases differ", bad, len(cases))
	}
}

// parseShape renders everything Parse decides about a program. Literals
// are numbered in order of first appearance, so the rendering also pins
// which occurrences share one node (parser.constant).
func parseShape(prog *Program) string {
	r := &shapeRenderer{lits: map[*literal]int{}}
	fmt.Fprintf(&r.b, "source=%d statements=%d\n", len(prog.Source()), prog.NumStatements())
	names := make([]string, 0, len(prog.procs))
	for name := range prog.procs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := prog.procs[name]
		fmt.Fprintf(&r.b, "proc %q key=%q params=%q locals=%d @%s\n", p.Name, name, p.Params, p.numLocals, p.pos)
		r.block(p.body, 1)
	}
	for i, s := range prog.stmtByID {
		fmt.Fprintf(&r.b, "id %d: %T %d @%s %q\n", i+1, s, s.id(), s.pos(), prog.StatementText(i+1))
	}
	return r.b.String()
}

// exprShape renders a standalone expression as parseShape renders one
// inside a program.
func exprShape(e expr) string {
	r := &shapeRenderer{lits: map[*literal]int{}}
	r.expr(e)
	return r.b.String()
}

type shapeRenderer struct {
	b    strings.Builder
	lits map[*literal]int
}

func (r *shapeRenderer) block(stmts []stmt, depth int) {
	fmt.Fprintf(&r.b, "%s{%d\n", strings.Repeat(" ", depth), len(stmts))
	for _, s := range stmts {
		r.stmt(s, depth)
	}
	fmt.Fprintf(&r.b, "%s}\n", strings.Repeat(" ", depth))
}

func (r *shapeRenderer) stmt(s stmt, depth int) {
	if s == nil {
		fmt.Fprintf(&r.b, "%snil\n", strings.Repeat(" ", depth))
		return
	}
	fmt.Fprintf(&r.b, "%s%d @%s ", strings.Repeat(" ", depth), s.id(), s.pos())
	switch s := s.(type) {
	case *letStmt:
		fmt.Fprintf(&r.b, "let %q slot=%d src=%q = ", s.name, s.slot, s.src)
		r.expr(s.rhs)
		r.b.WriteByte('\n')
	case *assignStmt:
		fmt.Fprintf(&r.b, "assign %q local=%d grow=%t src=%q path=", s.name, s.local, s.grow != nil, s.src)
		for _, e := range s.path {
			r.b.WriteByte('[')
			r.expr(e)
			r.b.WriteByte(']')
		}
		r.b.WriteString(" = ")
		r.expr(s.rhs)
		if s.grow != nil && s.grow != s.rhs {
			r.b.WriteString(" grow-not-rhs")
		}
		r.b.WriteByte('\n')
	case *ifStmt:
		fmt.Fprintf(&r.b, "if src=%q arms=%d else=%t\n", s.src, len(s.conds), s.els != nil)
		for i, c := range s.conds {
			r.b.WriteString(strings.Repeat(" ", depth) + "cond ")
			r.expr(c)
			r.b.WriteByte('\n')
			r.block(s.bodies[i], depth+1)
		}
		if s.els != nil {
			r.block(s.els, depth+1)
		}
	case *whileStmt:
		fmt.Fprintf(&r.b, "while src=%q ", s.src)
		r.expr(s.cond)
		r.b.WriteByte('\n')
		r.block(s.body, depth+1)
	case *forStmt:
		fmt.Fprintf(&r.b, "for src=%q ", s.src)
		r.expr(s.cond)
		r.b.WriteByte('\n')
		r.stmt(s.init, depth+1)
		r.stmt(s.post, depth+1)
		r.block(s.body, depth+1)
	case *returnStmt:
		fmt.Fprintf(&r.b, "return src=%q ", s.src)
		if s.val != nil {
			r.expr(s.val)
		}
		r.b.WriteByte('\n')
	case *breakStmt:
		fmt.Fprintf(&r.b, "break src=%q\n", s.src)
	case *continueStmt:
		fmt.Fprintf(&r.b, "continue src=%q\n", s.src)
	case *exprStmt:
		fmt.Fprintf(&r.b, "call src=%q ", s.src)
		r.expr(&s.call)
		r.b.WriteByte('\n')
	default:
		fmt.Fprintf(&r.b, "unknown %T\n", s)
	}
}

func (r *shapeRenderer) expr(e expr) {
	switch e := e.(type) {
	case *literal:
		n, ok := r.lits[e]
		if !ok {
			n = len(r.lits)
			r.lits[e] = n
		}
		fmt.Fprintf(&r.b, "L%d(%d %d %q %t)", n, e.Kind, e.Int, e.Str, e.Bool)
	case *listLit:
		fmt.Fprintf(&r.b, "list@%s[", e.p)
		for _, el := range e.elems {
			r.expr(el)
			r.b.WriteByte(',')
		}
		r.b.WriteByte(']')
	case *mapLit:
		fmt.Fprintf(&r.b, "map@%s{", e.p)
		for i := range e.keys {
			r.expr(e.keys[i])
			r.b.WriteByte(':')
			r.expr(e.vals[i])
			r.b.WriteByte(',')
		}
		r.b.WriteByte('}')
	case *varRef:
		fmt.Fprintf(&r.b, "var@%s(%q %d)", e.p, e.name, e.local)
	case *indexExpr:
		fmt.Fprintf(&r.b, "index@%s(", e.p)
		r.expr(e.base)
		r.b.WriteByte('[')
		r.expr(e.idx)
		r.b.WriteString("])")
	case *unaryExpr:
		fmt.Fprintf(&r.b, "unary@%s(%s ", e.p, e.op)
		r.expr(e.x)
		r.b.WriteByte(')')
	case *binaryExpr:
		fmt.Fprintf(&r.b, "binary@%s(", e.p)
		r.expr(e.l)
		fmt.Fprintf(&r.b, " %s ", e.op)
		r.expr(e.r)
		r.b.WriteByte(')')
	case *callExpr:
		target, ext := "", ""
		if e.proc != nil {
			target = e.proc.Name
		}
		if e.ext != nil {
			ext = e.ext.name
		}
		fmt.Fprintf(&r.b, "call@%s(%q kind=%d builtin=%t ext=%q proc=%q", e.p, e.name, e.kind, e.builtin != nil, ext, target)
		for _, a := range e.args {
			r.b.WriteByte(' ')
			r.expr(a)
		}
		r.b.WriteByte(')')
	default:
		fmt.Fprintf(&r.b, "unknown %T", e)
	}
}
