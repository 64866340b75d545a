package agentlang

import (
	"sync"

	"repro/internal/value"
)

// The AST. Statements carry globally unique identifiers assigned in
// parse order; these identifiers are the "statement identifiers" that
// execution traces record (paper §3.3, Fig. 3). Because parsing is
// deterministic, two hosts that hold the same source assign the same
// IDs, which is what makes traces comparable across hosts.

// Node positions are retained for error reporting only; they do not
// influence statement identity.

// expr is an expression node.
type expr interface {
	pos() Pos
}

// literal is an int, string, bool or null constant: the value.Value
// itself, which the evaluator reads in place. Programs are shared
// between interpreters, so nothing may write through one. Equal
// literals of a program are one node (parser.constant) and so carry no
// position; no error is reported at a literal.
type literal value.Value

type listLit struct {
	p     Pos
	elems []expr
}

type mapLit struct {
	p    Pos
	keys []expr
	vals []expr
}

// varRef reads a variable. If local >= 0 it addresses a procedure-local
// slot; otherwise it reads the agent's global data state by name.
type varRef struct {
	p     Pos
	name  string
	local int
}

type indexExpr struct {
	p    Pos
	base expr
	idx  expr
}

type unaryExpr struct {
	p  Pos
	op tokenKind // tokMinus or tokBang
	x  expr
}

type binaryExpr struct {
	p    Pos
	op   tokenKind
	l, r expr
}

// callKind distinguishes what a call expression invokes.
type callKind int

const (
	callBuiltin  callKind = iota + 1 // pure function, recomputable
	callExternal                     // input/output routed through the host Env
	callProc                         // user-defined procedure in the same program
)

type callExpr struct {
	p    Pos
	kind callKind
	name string
	args []expr
	// builtin is resolved at parse time for callBuiltin.
	builtin builtinFunc
	// ext is resolved at parse time for callExternal.
	ext *externalSpec
	// proc is resolved at link time (after all procs are parsed).
	proc *Proc
}

func (e *literal) pos() Pos    { return Pos{} }
func (e *listLit) pos() Pos    { return e.p }
func (e *mapLit) pos() Pos     { return e.p }
func (e *varRef) pos() Pos     { return e.p }
func (e *indexExpr) pos() Pos  { return e.p }
func (e *unaryExpr) pos() Pos  { return e.p }
func (e *binaryExpr) pos() Pos { return e.p }
func (e *callExpr) pos() Pos   { return e.p }

// stmt is a statement node. Every stmt has an ID.
type stmt interface {
	id() int
	pos() Pos
}

type stmtBase struct {
	sid int
	p   Pos
	src string // one-line rendering for traces and evidence reports
}

func (s *stmtBase) id() int  { return s.sid }
func (s *stmtBase) pos() Pos { return s.p }

// letStmt declares a procedure-local variable.
type letStmt struct {
	stmtBase
	slot int
	name string
	rhs  expr
}

// assignStmt writes a variable or an element of a composite.
// If len(path) == 0 the target variable itself is written; otherwise
// the path indexes into lists/maps reached from the target.
type assignStmt struct {
	stmtBase
	name  string
	local int // local slot or -1 for global
	path  []expr
	rhs   expr
	// grow is rhs when the statement is x = append(x, e…), which the
	// interpreter runs by growing x's own array (interp.appendSelf).
	grow *callExpr
}

// ifStmt is a chain of conditions with an optional trailing else.
type ifStmt struct {
	stmtBase
	conds  []expr
	bodies [][]stmt
	els    []stmt
}

type whileStmt struct {
	stmtBase
	cond expr
	body []stmt
}

type forStmt struct {
	stmtBase
	init stmt // letStmt or assignStmt, may be nil
	cond expr
	post stmt // assignStmt, may be nil
	body []stmt
}

type returnStmt struct {
	stmtBase
	val expr // may be nil
}

type breakStmt struct{ stmtBase }

type continueStmt struct{ stmtBase }

// exprStmt evaluates a call for its effect.
type exprStmt struct {
	stmtBase
	call callExpr
}

// Proc is a user-defined procedure.
type Proc struct {
	Name      string
	Params    []string
	numLocals int
	body      []stmt
	pos       Pos
	// once guards code, the body compiled on the procedure's first call
	// (compiled).
	once sync.Once
	code *procCode
}

// Program is a parsed agent program. Apart from the code each procedure
// compiles into on its first call, once, it is immutable after Parse,
// and it is safe for concurrent execution by multiple interpreters.
type Program struct {
	source   string
	procs    map[string]*Proc
	stmtByID []stmt // index = statement ID - 1
}

// Source returns the exact source text the program was parsed from.
// Hosts digest this text to establish code identity.
func (p *Program) Source() string { return p.source }

// NumStatements returns the number of statements in the program.
func (p *Program) NumStatements() int { return len(p.stmtByID) }

// HasProc reports whether a procedure with the given name exists.
func (p *Program) HasProc(name string) bool {
	_, ok := p.procs[name]
	return ok
}

// StatementText returns the one-line source rendering of the statement
// with the given ID, for traces and evidence reports. It returns "" for
// unknown IDs.
func (p *Program) StatementText(id int) string {
	if id < 1 || id > len(p.stmtByID) {
		return ""
	}
	switch s := p.stmtByID[id-1].(type) {
	case *letStmt:
		return s.src
	case *assignStmt:
		return s.src
	case *ifStmt:
		return s.src
	case *whileStmt:
		return s.src
	case *forStmt:
		return s.src
	case *returnStmt:
		return s.src
	case *breakStmt:
		return s.src
	case *continueStmt:
		return s.src
	case *exprStmt:
		return s.src
	default:
		return ""
	}
}
