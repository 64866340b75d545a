package agentlang

import (
	"fmt"
	"hash/maphash"
	"strings"
	"sync"

	"repro/internal/value"
)

// Parse compiles agentlang source into an immutable Program. Statement
// identifiers are assigned in parse order starting at 1, so identical
// source always yields identical IDs on every host.
func Parse(src string) (*Program, error) {
	p := newParser(src)
	defer p.release()
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
	p.prog.stmtByID = append([]stmt(nil), p.byID...)
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

// parsers keeps parsers between parses: a parser is a few kilobytes
// of buffers, which cost a benchmark agent's parse more to allocate and
// clear than its nodes.
var parsers = sync.Pool{New: func() any { return new(parser) }}

// newParser returns a parser positioned before the first token of src.
// The caller releases it once the parse is over.
func newParser(src string) *parser {
	p := parsers.Get().(*parser)
	p.lex = newLexer(src)
	p.prog = &Program{source: src, procs: make(map[string]*Proc)}
	p.snipStart = -1
	p.stmts, p.exprs, p.byID, p.pending = p.stmtBuf[:0], p.exprBuf[:0], p.byIDBuf[:0], p.pendingBuf[:0]
	p.names, p.nameSlots = p.nameBuf[:0], p.slotBuf[:]
	return p
}

// release clears p, so the pool holds nothing of the parse, and pools
// it.
func (p *parser) release() {
	*p = parser{}
	parsers.Put(p)
}

// The parser keeps no window into the source on the Program except
// statement snippets: every name and string literal value it stores is
// a copy (lookup), so what a session hands on to agent state, journal
// entries and events never pins the agent's whole source text.
type parser struct {
	lex  lexer
	tok  token
	prog *Program
	// snip is the snippet of the line starting at offset snipStart, the
	// line of the statement parsed last.
	snip      string
	snipStart int
	// names holds each distinct name and string literal text seen so
	// far, and nameSlots indexes it (lookup).
	names     []name
	nameSlots []int32
	// stmts and exprs are stacks from which each block and each list of
	// subexpressions is copied out at its exact length once complete.
	stmts []stmt
	exprs []expr
	// byID collects the statements by ID - 1, for Program.stmtByID.
	byID []stmt
	// proc counts the procedures begun, numLocals the locals declared
	// in the last one.
	proc, numLocals int
	// Unresolved proc calls to link after all procs are known.
	pending []*callExpr
	// The first stretch of each slice above; a benchmark agent fits.
	stmtBuf    [16]stmt
	exprBuf    [16]expr
	byIDBuf    [64]stmt
	pendingBuf [16]*callExpr
	nameBuf    [32]name
	slotBuf    [64]int32
	// depth counts the constructs open around the current token: blocks,
	// bracketed expressions, operators whose operand is being parsed.
	// height is the height of the expression tree parsed last; a chain
	// like a+b+c grows upwards from its first operand, which depth alone
	// cannot see. Together they hold every path through the AST to
	// maxNesting nodes. Neither is restored on errors: they end the parse.
	depth, height int
	// consts holds the distinct literals seen so far, up to maxConsts.
	consts  [maxConsts]*literal
	nconsts int
}

// maxConsts bounds the literals a program's later literals are matched
// against, which keeps Parse linear in hostile source text.
const maxConsts = 64

// constant returns the program's node for the literal v. A node is 80
// bytes where the constant itself was 8 or 16, hosts keep the parsed
// program of every agent they hold, and programs repeat their
// constants (0, 1, a host name per branch): one node per distinct
// value leaves a benchmark agent's tree 2 % larger than it was before
// literals were values, one per occurrence made it 20 %. kept reports
// whether later literals are matched against the node.
func (p *parser) constant(v value.Value) (lit *literal, kept bool) {
	for _, lit := range p.consts[:p.nconsts] {
		if lit.Kind == v.Kind && lit.Int == v.Int && lit.Str == v.Str && lit.Bool == v.Bool {
			return lit, true
		}
	}
	lit = new(literal)
	*lit = literal(v)
	if p.nconsts == maxConsts {
		return lit, false
	}
	p.consts[p.nconsts] = lit
	p.nconsts++
	return lit, true
}

// name is one distinct name or string literal text of a parse.
type name struct {
	text string // the copy the Program keeps
	hash uint64
	// slot is the name's local slot if proc is the procedure being
	// parsed (parser.proc, from 1).
	slot, proc int
	// lit is the string literal node of text, once constant keeps one.
	lit *literal
	// As a callee, the name is a builtin, an external or a procedure
	// (callKind), resolved on its first call.
	call    callKind
	builtin builtinSpec
	ext     *externalSpec
}

// nameSeed keys the hash of the name table: names come from untrusted
// peers, and a known hash would let one choose names that all collide.
var nameSeed = maphash.MakeSeed()

// lookup returns the index in p.names of text, copying text on its
// first use. nameSlots is an open-addressing table over p.names: a
// slot holds an index plus one, or 0 if free, and at least half the
// slots are free.
func (p *parser) lookup(text string) int {
	h := maphash.String(nameSeed, text)
	mask := uint64(len(p.nameSlots) - 1)
	j := h & mask
	for ; p.nameSlots[j] != 0; j = (j + 1) & mask {
		if n := &p.names[p.nameSlots[j]-1]; n.hash == h && n.text == text {
			return int(p.nameSlots[j] - 1)
		}
	}
	i := len(p.names)
	p.names = append(p.names, name{text: strings.Clone(text), hash: h})
	p.nameSlots[j] = int32(i + 1)
	if 2*len(p.names) > len(p.nameSlots) {
		slots := make([]int32, 2*len(p.nameSlots))
		mask = uint64(len(slots) - 1)
		for k, n := range p.names {
			j := n.hash & mask
			for slots[j] != 0 {
				j = (j + 1) & mask
			}
			slots[j] = int32(k + 1)
		}
		p.nameSlots = slots
	}
	return i
}

// local returns the slot of the local named by p.names[i], or -1.
func (p *parser) local(i int) int {
	if n := &p.names[i]; n.proc != 0 && n.proc == p.proc {
		return n.slot
	}
	return -1
}

// declare gives the name p.names[i] the next local slot.
func (p *parser) declare(i int) {
	p.names[i].slot, p.names[i].proc = p.numLocals, p.proc
	p.numLocals++
}

// pop returns what was pushed on stack since mark as a slice of its
// own, nil if nothing was, and pops it.
func pop[T any](stack *[]T, mark int) []T {
	var out []T
	if len(*stack) > mark {
		out = make([]T, len(*stack)-mark)
		copy(out, (*stack)[mark:])
	}
	*stack = (*stack)[:mark]
	return out
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
	return p.lex.next(&p.tok)
}

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Pos: Pos{Line: p.tok.line, Col: p.tok.col}, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(k tokenKind) error {
	if p.tok.kind != k {
		return p.errf("expected %s, found %s", k, p.describeTok())
	}
	return p.advance()
}

// expectIdent is expect(tokIdent) returning the identifier token.
func (p *parser) expectIdent() (token, error) {
	t := p.tok
	return t, p.expect(tokIdent)
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

// snippet returns the current token's source line, trimmed and without
// its comment, for statement rendering in traces. Statements on one
// line share one rendering: rendering the line per statement made Parse
// quadratic in the length of a line.
func (p *parser) snippet() string {
	if p.tok.lineStart != p.snipStart {
		line := p.lex.src[p.tok.lineStart:]
		if i := strings.IndexByte(line, '\n'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		p.snip, p.snipStart = line, p.tok.lineStart
	}
	return p.snip
}

func (p *parser) parseProc() (*Proc, error) {
	start := p.pos()
	if err := p.expect(tokProc); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	p.proc++
	p.numLocals = 0
	var params []string
	for p.tok.kind != tokRParen {
		if len(params) > 0 {
			if err := p.expect(tokComma); err != nil {
				return nil, err
			}
		}
		param, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		i := p.lookup(param.text)
		if p.local(i) >= 0 {
			return nil, &SyntaxError{Pos: Pos{param.line, param.col},
				Msg: fmt.Sprintf("duplicate parameter %q", param.text)}
		}
		p.declare(i)
		params = append(params, p.names[i].text)
	}
	if err := p.advance(); err != nil { // consume ')'
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &Proc{
		Name:      p.names[p.lookup(name.text)].text,
		Params:    params,
		numLocals: p.numLocals,
		body:      body,
		pos:       start,
	}, nil
}

func (p *parser) parseBlock() ([]stmt, error) {
	if err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	if err := p.nest(); err != nil {
		return nil, err
	}
	mark := len(p.stmts)
	for p.tok.kind != tokRBrace {
		if p.tok.kind == tokEOF {
			return nil, p.errf("unexpected end of input inside block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		p.stmts = append(p.stmts, s)
	}
	if err := p.advance(); err != nil { // consume '}'
		return nil, err
	}
	p.depth--
	return pop(&p.stmts, mark), nil
}

// newBase allocates the next statement ID to a statement starting at
// the current token.
func (p *parser) newBase() stmtBase {
	base := stmtBase{sid: len(p.byID) + 1, p: p.pos(), src: p.snippet()}
	p.byID = append(p.byID, nil) // placeholder, patched by register
	return base
}

func (p *parser) register(s stmt) stmt {
	p.byID[s.id()-1] = s
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
		base := p.newBase()
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
		base := p.newBase()
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.register(&breakStmt{stmtBase: base}), nil
	case tokContinue:
		base := p.newBase()
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
	base := p.newBase()
	if err := p.advance(); err != nil { // consume 'let'
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	i := p.lookup(name.text)
	if p.local(i) >= 0 {
		return nil, &SyntaxError{Pos: Pos{name.line, name.col},
			Msg: fmt.Sprintf("local %q already declared in this procedure", name.text)}
	}
	if err := p.expect(tokAssign); err != nil {
		return nil, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	slot := p.numLocals
	p.declare(i)
	return &letStmt{stmtBase: base, slot: slot, name: p.names[i].text, rhs: rhs}, nil
}

// parseSimpleStmt parses an assignment or a call statement starting at
// an identifier.
func (p *parser) parseSimpleStmt() (stmt, error) {
	base := p.newBase()
	name := p.tok
	if err := p.advance(); err != nil {
		return nil, err
	}
	if p.tok.kind == tokLParen {
		s := &exprStmt{stmtBase: base}
		if err := p.parseCallTail(name, &s.call); err != nil {
			return nil, err
		}
		return s, nil
	}
	// Assignment target, possibly with an index path.
	mark := len(p.exprs)
	for p.tok.kind == tokLBracket {
		if err := p.advance(); err != nil {
			return nil, err
		}
		idx, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRBracket); err != nil {
			return nil, err
		}
		p.exprs = append(p.exprs, idx)
	}
	path := pop(&p.exprs, mark)
	if err := p.expect(tokAssign); err != nil {
		return nil, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	i := p.lookup(name.text)
	s := &assignStmt{stmtBase: base, name: p.names[i].text, local: p.local(i), path: path, rhs: rhs}
	// x = append(x, e…): within one statement a name resolves to one
	// local slot or one global, so equal names are the same variable.
	if call, ok := rhs.(*callExpr); ok && len(path) == 0 && call.kind == callBuiltin && call.name == "append" {
		if ref, ok := call.args[0].(*varRef); ok && ref.name == s.name {
			s.grow = call
		}
	}
	return s, nil
}

func (p *parser) parseIf() (stmt, error) {
	base := p.newBase()
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
	base := p.newBase()
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
	base := p.newBase()
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
	if err := p.expect(tokSemicolon); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	s.cond = cond
	if err := p.expect(tokSemicolon); err != nil {
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
		if err := p.expect(tokRBracket); err != nil {
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
		lit, _ := p.constant(value.Int(v))
		return lit, nil
	case tokString:
		i := p.lookup(p.tok.text)
		if err := p.advance(); err != nil {
			return nil, err
		}
		n := &p.names[i]
		if n.lit == nil {
			lit, kept := p.constant(value.Str(n.text))
			if !kept {
				return lit, nil
			}
			n.lit = lit
		}
		return n.lit, nil
	case tokTrue, tokFalse:
		b := p.tok.kind == tokTrue
		if err := p.advance(); err != nil {
			return nil, err
		}
		lit, _ := p.constant(value.Bool(b))
		return lit, nil
	case tokNull:
		if err := p.advance(); err != nil {
			return nil, err
		}
		lit, _ := p.constant(value.Null())
		return lit, nil
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tokLBracket:
		if err := p.advance(); err != nil {
			return nil, err
		}
		mark, h := len(p.exprs), 0
		for p.tok.kind != tokRBracket {
			if len(p.exprs) > mark {
				if err := p.expect(tokComma); err != nil {
					return nil, err
				}
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			p.exprs = append(p.exprs, e)
			h = max(h, p.height)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		p.height = h + 1
		return &listLit{p: pos, elems: pop(&p.exprs, mark)}, nil
	case tokLBrace:
		if err := p.advance(); err != nil {
			return nil, err
		}
		mark, h := len(p.exprs), 0
		for p.tok.kind != tokRBrace {
			if len(p.exprs) > mark {
				if err := p.expect(tokComma); err != nil {
					return nil, err
				}
			}
			k, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			h = max(h, p.height)
			if err := p.expect(tokColon); err != nil {
				return nil, err
			}
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			h = max(h, p.height)
			p.exprs = append(p.exprs, k, v)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		p.height = h + 1
		// The stack holds keys and values alternately.
		pairs := p.exprs[mark:]
		lit := &mapLit{p: pos}
		if n := len(pairs) / 2; n > 0 {
			lit.keys, lit.vals = make([]expr, n), make([]expr, n)
			for i := range n {
				lit.keys[i], lit.vals[i] = pairs[2*i], pairs[2*i+1]
			}
		}
		p.exprs = p.exprs[:mark]
		return lit, nil
	case tokIdent:
		name := p.tok
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind == tokLParen {
			call := new(callExpr)
			if err := p.parseCallTail(name, call); err != nil {
				return nil, err
			}
			return call, nil
		}
		i := p.lookup(name.text)
		return &varRef{p: pos, name: p.names[i].text, local: p.local(i)}, nil
	default:
		return nil, p.errf("expected expression, found %s", p.describeTok())
	}
}

// parseCallTail parses into call the argument list of a call whose
// callee token has already been consumed, and classifies the call.
func (p *parser) parseCallTail(name token, call *callExpr) error {
	pos := Pos{Line: name.line, Col: name.col}
	if err := p.advance(); err != nil { // consume '('
		return err
	}
	mark, h := len(p.exprs), 0
	for p.tok.kind != tokRParen {
		if len(p.exprs) > mark {
			if err := p.expect(tokComma); err != nil {
				return err
			}
		}
		a, err := p.parseExpr()
		if err != nil {
			return err
		}
		p.exprs = append(p.exprs, a)
		h = max(h, p.height)
	}
	if err := p.advance(); err != nil { // consume ')'
		return err
	}
	p.height = h + 1
	n := &p.names[p.lookup(name.text)]
	if n.call == 0 {
		n.call = callProc
		if spec, ok := builtins[n.text]; ok {
			n.call, n.builtin = callBuiltin, spec
		} else if spec, ok := externals[n.text]; ok {
			n.call, n.ext = callExternal, spec
		}
	}
	*call = callExpr{p: pos, kind: n.call, name: n.text, args: pop(&p.exprs, mark)}
	switch n.call {
	case callBuiltin:
		spec := n.builtin
		if len(call.args) < spec.minArgs || (spec.maxArgs >= 0 && len(call.args) > spec.maxArgs) {
			return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(
				"builtin %s called with %d arguments", name.text, len(call.args))}
		}
		call.builtin = spec.fn
	case callExternal:
		if err := n.ext.checkArity(len(call.args), pos); err != nil {
			return err
		}
		call.ext = n.ext
	default:
		p.pending = append(p.pending, call)
	}
	return nil
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
