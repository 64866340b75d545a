package agentlang

import (
	"fmt"
	"strings"

	"repro/internal/value"
)

// Parse compiles agentlang source into an immutable Program. Statement
// identifiers are assigned in parse order starting at 1, so identical
// source always yields identical IDs on every host.
func Parse(src string) (*Program, error) {
	p := &parser{
		lex:  newLexer(src),
		src:  src,
		prog: &Program{source: src, procs: make(map[string]*Proc)},
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	for p.tok.kind != tokEOF {
		proc, err := p.parseProc()
		if err != nil {
			return nil, err
		}
		if _, dup := p.prog.procs[proc.Name]; dup {
			return nil, &SyntaxError{Pos: proc.pos, Msg: fmt.Sprintf("duplicate procedure %q", proc.Name)}
		}
		p.prog.procs[proc.Name] = proc
	}
	if len(p.prog.procs) == 0 {
		return nil, &SyntaxError{Pos: Pos{Line: 1, Col: 1}, Msg: "program has no procedures"}
	}
	if err := p.link(); err != nil {
		return nil, err
	}
	return p.prog, nil
}

// MustParse is a test and example helper that panics on parse errors.
// It must not be used on untrusted input.
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

type parser struct {
	lex *lexer
	src string
	tok token
	// lines is src split into lines, on the first statement.
	lines []string
	prog  *Program
	// Per-proc state during parsing.
	locals    map[string]int
	numLocals int
	// Unresolved proc calls to link after all procs are known.
	pending []*callExpr
	// depth counts the constructs open around the current token: blocks,
	// bracketed expressions, operators whose operand is being parsed.
	// height is the height of the expression tree parsed last; a chain
	// like a+b+c grows upwards from its first operand, which depth alone
	// cannot see. Together they hold every path through the AST to
	// maxNesting nodes. Neither is restored on errors: they end the parse.
	depth, height int
	// consts holds the distinct literals seen so far, up to maxConsts.
	consts []*literal
}

// maxConsts bounds the literals a program's later literals are matched
// against, which keeps Parse linear in hostile source text.
const maxConsts = 64

// constant returns the program's node for the literal v. A node is 80
// bytes where the constant itself was 8 or 16, hosts keep the parsed
// program of every agent they hold, and programs repeat their
// constants (0, 1, a host name per branch): one node per distinct
// value leaves a benchmark agent's tree 2 % larger than it was before
// literals were values, one per occurrence made it 20 %.
func (p *parser) constant(v value.Value) *literal {
	for _, lit := range p.consts {
		if lit.Kind == v.Kind && lit.Int == v.Int && lit.Str == v.Str && lit.Bool == v.Bool {
			return lit
		}
	}
	lit := (*literal)(&v)
	if len(p.consts) < maxConsts {
		p.consts = append(p.consts, lit)
	}
	return lit
}

// maxNesting bounds how deep blocks and expressions may nest. The
// parser, the evaluator and every other walk over the AST recurse once
// per level, and source text arrives from untrusted peers: without a
// bound, a few megabytes of parentheses overflow the stack, which Go
// cannot recover from.
const maxNesting = 256

// nest opens one level; the caller closes it with p.depth--.
func (p *parser) nest() error {
	p.depth++
	return p.fits(0)
}

// grow records that a node was built over subtrees of height h.
func (p *parser) grow(h int) error {
	p.height = h + 1
	return p.fits(p.height)
}

// fits checks that a tree of the given height may hang at this depth.
func (p *parser) fits(height int) error {
	if p.depth+height > maxNesting {
		return p.errf("nesting deeper than %d levels", maxNesting)
	}
	return nil
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Pos: Pos{Line: p.tok.line, Col: p.tok.col}, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(k tokenKind) (token, error) {
	if p.tok.kind != k {
		return token{}, p.errf("expected %s, found %s", k, p.describeTok())
	}
	t := p.tok
	if err := p.advance(); err != nil {
		return token{}, err
	}
	return t, nil
}

func (p *parser) describeTok() string {
	switch p.tok.kind {
	case tokIdent:
		return fmt.Sprintf("identifier %q", p.tok.text)
	case tokInt:
		return fmt.Sprintf("integer %s", p.tok.text)
	case tokString:
		return fmt.Sprintf("string %q", p.tok.text)
	default:
		return p.tok.kind.String()
	}
}

func (p *parser) pos() Pos { return Pos{Line: p.tok.line, Col: p.tok.col} }

// snippet returns the trimmed source line containing the position, for
// statement rendering in traces. The source is split into lines once
// per parse: splitting it per statement made Parse quadratic.
func (p *parser) snippet(pos Pos) string {
	if p.lines == nil {
		p.lines = strings.Split(p.src, "\n")
	}
	if pos.Line < 1 || pos.Line > len(p.lines) {
		return ""
	}
	line := strings.TrimSpace(p.lines[pos.Line-1])
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = strings.TrimSpace(line[:i])
	}
	return line
}

func (p *parser) parseProc() (*Proc, error) {
	start := p.pos()
	if _, err := p.expect(tokProc); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	p.locals = make(map[string]int)
	p.numLocals = 0
	var params []string
	for p.tok.kind != tokRParen {
		if len(params) > 0 {
			if _, err := p.expect(tokComma); err != nil {
				return nil, err
			}
		}
		param, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if _, dup := p.locals[param.text]; dup {
			return nil, &SyntaxError{Pos: Pos{param.line, param.col},
				Msg: fmt.Sprintf("duplicate parameter %q", param.text)}
		}
		p.locals[param.text] = p.numLocals
		p.numLocals++
		params = append(params, param.text)
	}
	if err := p.advance(); err != nil { // consume ')'
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &Proc{
		Name:      name.text,
		Params:    params,
		numLocals: p.numLocals,
		body:      body,
		pos:       start,
	}, nil
}

func (p *parser) parseBlock() ([]stmt, error) {
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	if err := p.nest(); err != nil {
		return nil, err
	}
	var stmts []stmt
	for p.tok.kind != tokRBrace {
		if p.tok.kind == tokEOF {
			return nil, p.errf("unexpected end of input inside block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	if err := p.advance(); err != nil { // consume '}'
		return nil, err
	}
	p.depth--
	return stmts, nil
}

// newBase allocates the next statement ID.
func (p *parser) newBase(pos Pos) stmtBase {
	base := stmtBase{sid: len(p.prog.stmtByID) + 1, p: pos, src: p.snippet(pos)}
	p.prog.stmtByID = append(p.prog.stmtByID, nil) // placeholder, patched by register
	return base
}

func (p *parser) register(s stmt) stmt {
	p.prog.stmtByID[s.id()-1] = s
	return s
}

func (p *parser) parseStmt() (stmt, error) {
	switch p.tok.kind {
	case tokLet:
		s, err := p.parseLet()
		if err != nil {
			return nil, err
		}
		return p.register(s), nil
	case tokIf:
		return p.parseIf()
	case tokWhile:
		return p.parseWhile()
	case tokFor:
		return p.parseFor()
	case tokReturn:
		base := p.newBase(p.pos())
		if err := p.advance(); err != nil {
			return nil, err
		}
		s := &returnStmt{stmtBase: base}
		// `return` directly followed by a token that cannot start an
		// expression means a bare return.
		if startsExpr(p.tok.kind) {
			val, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.val = val
		}
		return p.register(s), nil
	case tokBreak:
		base := p.newBase(p.pos())
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.register(&breakStmt{stmtBase: base}), nil
	case tokContinue:
		base := p.newBase(p.pos())
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.register(&continueStmt{stmtBase: base}), nil
	case tokIdent:
		s, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		return p.register(s), nil
	default:
		return nil, p.errf("expected statement, found %s", p.describeTok())
	}
}

func startsExpr(k tokenKind) bool {
	switch k {
	case tokInt, tokString, tokIdent, tokTrue, tokFalse, tokNull,
		tokLParen, tokLBracket, tokLBrace, tokMinus, tokBang:
		return true
	default:
		return false
	}
}

func (p *parser) parseLet() (stmt, error) {
	base := p.newBase(p.pos())
	if err := p.advance(); err != nil { // consume 'let'
		return nil, err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if _, dup := p.locals[name.text]; dup {
		return nil, &SyntaxError{Pos: Pos{name.line, name.col},
			Msg: fmt.Sprintf("local %q already declared in this procedure", name.text)}
	}
	if _, err := p.expect(tokAssign); err != nil {
		return nil, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	slot := p.numLocals
	p.locals[name.text] = slot
	p.numLocals++
	return &letStmt{stmtBase: base, slot: slot, name: name.text, rhs: rhs}, nil
}

// parseSimpleStmt parses an assignment or a call statement starting at
// an identifier.
func (p *parser) parseSimpleStmt() (stmt, error) {
	base := p.newBase(p.pos())
	name := p.tok
	if err := p.advance(); err != nil {
		return nil, err
	}
	if p.tok.kind == tokLParen {
		call, err := p.parseCallTail(name)
		if err != nil {
			return nil, err
		}
		return &exprStmt{stmtBase: base, call: call}, nil
	}
	// Assignment target, possibly with an index path.
	var path []expr
	for p.tok.kind == tokLBracket {
		if err := p.advance(); err != nil {
			return nil, err
		}
		idx, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRBracket); err != nil {
			return nil, err
		}
		path = append(path, idx)
	}
	if _, err := p.expect(tokAssign); err != nil {
		return nil, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	local := -1
	if slot, ok := p.locals[name.text]; ok {
		local = slot
	}
	s := &assignStmt{stmtBase: base, name: name.text, local: local, path: path, rhs: rhs}
	// x = append(x, e…): within one statement a name resolves to one
	// local slot or one global, so equal names are the same variable.
	if call, ok := rhs.(*callExpr); ok && len(path) == 0 && call.kind == callBuiltin && call.name == "append" {
		if ref, ok := call.args[0].(*varRef); ok && ref.name == name.text {
			s.grow = call
		}
	}
	return s, nil
}

func (p *parser) parseIf() (stmt, error) {
	base := p.newBase(p.pos())
	s := &ifStmt{stmtBase: base}
	for {
		if err := p.advance(); err != nil { // consume 'if'
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		s.conds = append(s.conds, cond)
		s.bodies = append(s.bodies, body)
		if p.tok.kind != tokElse {
			return p.register(s), nil
		}
		if err := p.advance(); err != nil { // consume 'else'
			return nil, err
		}
		if p.tok.kind == tokIf {
			continue
		}
		els, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		s.els = els
		return p.register(s), nil
	}
}

func (p *parser) parseWhile() (stmt, error) {
	base := p.newBase(p.pos())
	if err := p.advance(); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return p.register(&whileStmt{stmtBase: base, cond: cond, body: body}), nil
}

func (p *parser) parseFor() (stmt, error) {
	base := p.newBase(p.pos())
	if err := p.advance(); err != nil {
		return nil, err
	}
	s := &forStmt{stmtBase: base}
	if p.tok.kind != tokSemicolon {
		var init stmt
		var err error
		if p.tok.kind == tokLet {
			init, err = p.parseLet()
		} else if p.tok.kind == tokIdent {
			init, err = p.parseSimpleStmt()
		} else {
			return nil, p.errf("expected init statement in for, found %s", p.describeTok())
		}
		if err != nil {
			return nil, err
		}
		s.init = p.register(init)
	}
	if _, err := p.expect(tokSemicolon); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	s.cond = cond
	if _, err := p.expect(tokSemicolon); err != nil {
		return nil, err
	}
	if p.tok.kind != tokLBrace {
		if p.tok.kind != tokIdent {
			return nil, p.errf("expected post statement in for, found %s", p.describeTok())
		}
		post, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		s.post = p.register(post)
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	s.body = body
	return p.register(s), nil
}

// Expression parsing: precedence climbing over binaryPrec.

func (p *parser) parseExpr() (expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	e, err := p.parseBinary(1)
	p.depth--
	return e, err
}

// binaryPrec returns how tightly a binary operator binds, or 0 for any
// other token.
func binaryPrec(k tokenKind) int {
	switch k {
	case tokOrOr:
		return 1
	case tokAndAnd:
		return 2
	case tokEq, tokNe:
		return 3
	case tokLt, tokLe, tokGt, tokGe:
		return 4
	case tokPlus, tokMinus:
		return 5
	case tokStar, tokSlash, tokPercent:
		return 6
	default:
		return 0
	}
}

// parseBinary parses a left-associative chain of operators binding at
// least as tightly as minPrec.
func (p *parser) parseBinary(minPrec int) (expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op, pos := p.tok.kind, p.pos()
		prec := binaryPrec(op)
		if prec == 0 || prec < minPrec {
			return left, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		h := p.height
		p.depth++
		right, err := p.parseBinary(prec + 1)
		p.depth--
		if err != nil {
			return nil, err
		}
		if err := p.grow(max(h, p.height)); err != nil {
			return nil, err
		}
		left = &binaryExpr{p: pos, op: op, l: left, r: right}
	}
}

func (p *parser) parseUnary() (expr, error) {
	if p.tok.kind == tokMinus || p.tok.kind == tokBang {
		op, pos := p.tok.kind, p.pos()
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.nest(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		p.depth--
		if err != nil {
			return nil, err
		}
		p.height++
		return &unaryExpr{p: pos, op: op, x: x}, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (expr, error) {
	base, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokLBracket {
		pos := p.pos()
		if err := p.advance(); err != nil {
			return nil, err
		}
		h := p.height
		idx, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRBracket); err != nil {
			return nil, err
		}
		if err := p.grow(max(h, p.height)); err != nil {
			return nil, err
		}
		base = &indexExpr{p: pos, base: base, idx: idx}
	}
	return base, nil
}

func (p *parser) parsePrimary() (expr, error) {
	pos := p.pos()
	p.height = 1 // stands for the cases that parse no subexpression
	switch p.tok.kind {
	case tokInt:
		v := p.tok.num
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.constant(value.Int(v)), nil
	case tokString:
		s := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.constant(value.Str(s)), nil
	case tokTrue, tokFalse:
		b := p.tok.kind == tokTrue
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.constant(value.Bool(b)), nil
	case tokNull:
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.constant(value.Null()), nil
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tokLBracket:
		if err := p.advance(); err != nil {
			return nil, err
		}
		lit := &listLit{p: pos}
		h := 0
		for p.tok.kind != tokRBracket {
			if len(lit.elems) > 0 {
				if _, err := p.expect(tokComma); err != nil {
					return nil, err
				}
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			lit.elems = append(lit.elems, e)
			h = max(h, p.height)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		p.height = h + 1
		return lit, nil
	case tokLBrace:
		if err := p.advance(); err != nil {
			return nil, err
		}
		lit := &mapLit{p: pos}
		h := 0
		for p.tok.kind != tokRBrace {
			if len(lit.keys) > 0 {
				if _, err := p.expect(tokComma); err != nil {
					return nil, err
				}
			}
			k, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			h = max(h, p.height)
			if _, err := p.expect(tokColon); err != nil {
				return nil, err
			}
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			h = max(h, p.height)
			lit.keys = append(lit.keys, k)
			lit.vals = append(lit.vals, v)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		p.height = h + 1
		return lit, nil
	case tokIdent:
		name := p.tok
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind == tokLParen {
			return p.parseCallTail(name)
		}
		ref := &varRef{p: pos, name: name.text, local: -1}
		if slot, ok := p.locals[name.text]; ok {
			ref.local = slot
		}
		return ref, nil
	default:
		return nil, p.errf("expected expression, found %s", p.describeTok())
	}
}

// parseCallTail parses the argument list of a call whose callee token
// has already been consumed, and classifies the call.
func (p *parser) parseCallTail(name token) (*callExpr, error) {
	pos := Pos{Line: name.line, Col: name.col}
	if err := p.advance(); err != nil { // consume '('
		return nil, err
	}
	call := &callExpr{p: pos, name: name.text}
	h := 0
	for p.tok.kind != tokRParen {
		if len(call.args) > 0 {
			if _, err := p.expect(tokComma); err != nil {
				return nil, err
			}
		}
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		call.args = append(call.args, a)
		h = max(h, p.height)
	}
	if err := p.advance(); err != nil { // consume ')'
		return nil, err
	}
	p.height = h + 1
	if spec, ok := builtins[name.text]; ok {
		if len(call.args) < spec.minArgs || (spec.maxArgs >= 0 && len(call.args) > spec.maxArgs) {
			return nil, &SyntaxError{Pos: pos, Msg: fmt.Sprintf(
				"builtin %s called with %d arguments", name.text, len(call.args))}
		}
		call.kind = callBuiltin
		call.builtin = spec.fn
		return call, nil
	}
	if spec, ok := externals[name.text]; ok {
		if err := spec.checkArity(len(call.args), pos); err != nil {
			return nil, err
		}
		call.kind = callExternal
		call.ext = spec
		return call, nil
	}
	call.kind = callProc
	p.pending = append(p.pending, call)
	return call, nil
}

// link resolves user-procedure calls after all procedures are parsed.
func (p *parser) link() error {
	for _, call := range p.pending {
		proc, ok := p.prog.procs[call.name]
		if !ok {
			return &SyntaxError{Pos: call.p, Msg: fmt.Sprintf("call to undefined procedure %q", call.name)}
		}
		if len(call.args) != len(proc.Params) {
			return &SyntaxError{Pos: call.p, Msg: fmt.Sprintf(
				"procedure %q takes %d parameters, called with %d arguments",
				call.name, len(proc.Params), len(call.args))}
		}
		call.proc = proc
	}
	return nil
}
