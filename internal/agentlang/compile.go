package agentlang

import (
	"fmt"
	"slices"

	"repro/internal/value"
)

// The compiler lowers a procedure, on its first call, into a tree of Go
// closures, one per statement and expression node, and caches the
// result on the Proc (Proc.compiled). What a walk over the AST decides
// at every visit is decided here once: which node kind runs, which slot
// or literal an operand is read from, which cell a subexpression is
// evaluated into, which operator an int fast path computes. Run, and so
// host sessions and every re-execution, and Expr.Eval run only this
// code.
//
// The int shapes of the summation loop (intShape) compile to larger
// units than one node: an assignment of one to a local is one closure
// (intStmt), a loop tests one without a closure, and a loop body made
// of such assignments runs as a flat list of them (loopCode), on int64
// registers while its slots hold ints (intLoop).

// evalFn evaluates an expression into *dst, which may alias an operand
// (see interp). It stores nothing unless it returns nil. Only a call
// returns a transfer, errMigrate or errDone: the code of an expression
// without one returns nil or a runtime error.
type evalFn func(in *interp, locals []value.Value, dst *value.Value) error

// execFn runs a statement whose step has been charged, or a block.
type execFn func(in *interp, locals []value.Value) error

// procCode is a procedure's compiled form.
type procCode struct {
	body execFn
	// locals is the procedure's parameter and local slots; frame adds
	// the temporaries its expressions evaluate operands into.
	locals, frame int
}

// compiled returns p's code, compiling it on the first call. A Program
// is shared between sessions, which may race here; the code, once
// built, is never written.
func (p *Proc) compiled() *procCode {
	p.once.Do(func() {
		c := &compiler{cells: p.numLocals, frame: p.numLocals}
		body := c.block(p.body)
		p.code = &procCode{body: body, locals: p.numLocals, frame: c.frame}
	})
	return p.code
}

// compiler lowers one procedure or expression. It hands out frame
// temporaries above the locals, last in first out: a temporary is held
// while the code that must not overwrite it is compiled.
type compiler struct {
	cells int // frame cells in use at this point of the compile
	frame int // the most ever in use
}

func (c *compiler) temp() int {
	t := c.cells
	c.cells++
	c.frame = max(c.frame, c.cells)
	return t
}

func (c *compiler) release() { c.cells-- }

func (c *compiler) block(body []stmt) execFn {
	fns := make([]execFn, len(body))
	for i, s := range body {
		fns[i] = c.stmt(s)
	}
	return func(in *interp, locals []value.Value) error {
		for _, f := range fns {
			if in.spent() {
				return in.outOfFuel()
			}
			if err := f(in, locals); err != nil {
				return err
			}
		}
		return nil
	}
}

func (c *compiler) stmt(s stmt) execFn {
	if o, ok := intStmtOf(s); ok {
		return func(in *interp, locals []value.Value) error {
			in.usedInput = false
			return o.run(in, locals)
		}
	}
	switch st := s.(type) {
	case *letStmt:
		rhs, slot, sid, name := c.expr(st.rhs), st.slot, st.sid, st.name
		return func(in *interp, locals []value.Value) error {
			in.usedInput = false
			dst := &locals[slot]
			if err := rhs(in, locals, dst); err != nil {
				return err
			}
			if in.hook != nil {
				in.emitAssign(sid, name, dst)
			}
			return nil
		}

	case *assignStmt:
		return c.assign(st)

	case *ifStmt:
		conds := make([]evalFn, len(st.conds))
		bodies := make([]execFn, len(st.bodies))
		for i := range st.conds {
			conds[i] = c.expr(st.conds[i])
			bodies[i] = c.block(st.bodies[i])
		}
		var els execFn
		if st.els != nil {
			els = c.block(st.els)
		}
		sid := st.sid
		return func(in *interp, locals []value.Value) error {
			in.usedInput = false
			for i, cond := range conds {
				if err := cond(in, locals, &in.tmp); err != nil {
					return err
				}
				if in.tmp.Truthy() {
					in.emit(sid)
					return bodies[i](in, locals)
				}
			}
			in.emit(sid)
			if els != nil {
				return els(in, locals)
			}
			return nil
		}

	case *whileStmt:
		return c.loop(st.sid, nil, st.cond, st.body, nil)

	case *forStmt:
		return c.loop(st.sid, st.init, st.cond, st.body, st.post)

	case *returnStmt:
		sid := st.sid
		if st.val == nil {
			return func(in *interp, _ []value.Value) error {
				in.usedInput = false
				in.retVal = value.Null()
				in.emit(sid)
				return errReturn
			}
		}
		val := c.expr(st.val)
		return func(in *interp, locals []value.Value) error {
			in.usedInput = false
			// Not straight into retVal: a call in st.val clears retVal
			// after copying it to its destination.
			if err := val(in, locals, &in.tmp); err != nil {
				return err
			}
			in.retVal = in.tmp
			in.emit(sid)
			return errReturn
		}

	case *breakStmt:
		sid := st.sid
		return func(in *interp, _ []value.Value) error {
			in.emit(sid)
			return errBreak
		}

	case *continueStmt:
		sid := st.sid
		return func(in *interp, _ []value.Value) error {
			in.emit(sid)
			return errContinue
		}

	case *exprStmt:
		call, sid := c.call(&st.call), st.sid
		return func(in *interp, locals []value.Value) error {
			in.usedInput = false
			if err := call(in, locals, &in.tmp); err != nil {
				return err
			}
			in.emit(sid)
			return nil
		}
	}
	panic(fmt.Sprintf("agentlang: cannot compile statement %T", s))
}

func (c *compiler) assign(st *assignStmt) execFn {
	if st.grow != nil {
		args := c.exprs(st.grow.args[1:])
		return func(in *interp, locals []value.Value) error {
			in.usedInput = false
			return in.appendSelf(st, args, locals)
		}
	}
	rhs := c.expr(st.rhs)
	if len(st.path) > 0 {
		path := c.exprs(st.path)
		return func(in *interp, locals []value.Value) error {
			in.usedInput = false
			return in.assignPath(st, rhs, path, locals)
		}
	}
	sid, name := st.sid, st.name
	if slot := st.local; slot >= 0 {
		return func(in *interp, locals []value.Value) error {
			in.usedInput = false
			dst := &locals[slot]
			if err := rhs(in, locals, dst); err != nil {
				return err
			}
			if in.hook != nil {
				in.emitAssign(sid, name, dst)
			}
			return nil
		}
	}
	return func(in *interp, locals []value.Value) error {
		in.usedInput = false
		if err := rhs(in, locals, &in.tmp); err != nil {
			return err
		}
		in.globals[name] = in.tmp
		if in.hook != nil {
			in.emitAssign(sid, name, &in.tmp)
		}
		return nil
	}
}

// loopCode is a compiled while or for loop. It runs its body's
// statements itself, charging each its step as a block does. A
// condition with an int shape is tested in place, and a body and post
// that are all int assignments run as one flat list of them, ops, or
// on registers (intLoop) while their slots hold ints.
type loopCode struct {
	sid  int
	init execFn // a for loop's init statement, or nil
	// test is the condition when it has an int shape; cond is its code
	// otherwise.
	test intShape
	cond evalFn
	ops  []intStmt
	regs intLoop  // ops on registers, unless regs.ops is nil
	body []execFn // the body's statements when ops is empty
	post execFn   // a for loop's post statement when ops is empty, or nil
}

// loop compiles a while loop, or a for loop with its optional init and
// post statements.
func (c *compiler) loop(sid int, init stmt, cond expr, body []stmt, post stmt) execFn {
	lc := &loopCode{sid: sid}
	if init != nil {
		lc.init = c.stmt(init)
	}
	if t, ok := intShapeOf(cond); ok {
		lc.test = t
	} else {
		lc.cond = c.expr(cond)
	}
	if ops := intStmts(body, post); len(ops) > 0 {
		lc.ops = ops
		if lc.cond == nil {
			lc.regs.compile(&lc.test, ops)
		}
		return lc.run
	}
	lc.body = make([]execFn, len(body))
	for i, s := range body {
		lc.body[i] = c.stmt(s)
	}
	if post != nil {
		lc.post = c.stmt(post)
	}
	return lc.run
}

// run runs the loop. Each evaluation of the condition costs one step.
func (lc *loopCode) run(in *interp, locals []value.Value) error {
	if lc.init != nil {
		if in.spent() {
			return in.outOfFuel()
		}
		if err := lc.init(in, locals); err != nil {
			return err
		}
	}
	if lc.regs.ops != nil {
		if done, err := lc.regs.run(in, locals, lc.sid); done {
			return err
		}
	}
	for {
		if in.spent() {
			return in.outOfFuel()
		}
		in.usedInput = false
		var holds bool
		if t := &lc.test; lc.cond != nil {
			if err := lc.cond(in, locals, &in.tmp); err != nil {
				return err
			}
			holds = in.tmp.Truthy()
		} else if n, m, ints := t.ints(locals); ints && !t.arith {
			holds = intCompare(t.op, n, m)
		} else {
			if err := t.eval(locals, &in.tmp); err != nil {
				return err
			}
			holds = in.tmp.Truthy()
		}
		in.emit(lc.sid)
		if !holds {
			return nil
		}
		if len(lc.ops) > 0 {
			in.usedInput = false // the condition may have read input
			for i := range lc.ops {
				if in.spent() {
					return in.outOfFuel()
				}
				if err := lc.ops[i].run(in, locals); err != nil {
					return err
				}
			}
			continue
		}
	body:
		for _, f := range lc.body {
			if in.spent() {
				return in.outOfFuel()
			}
			switch err := f(in, locals); err {
			case nil:
			case errContinue:
				break body
			case errBreak:
				return nil
			default:
				return err
			}
		}
		if lc.post != nil {
			if in.spent() {
				return in.outOfFuel()
			}
			if err := lc.post(in, locals); err != nil {
				return err
			}
		}
	}
}

// intStmts returns body and post as int assignments, or nil unless
// every one of them is one.
func intStmts(body []stmt, post stmt) []intStmt {
	n := len(body)
	if post != nil {
		n++
	}
	at := func(i int) stmt {
		if i < len(body) {
			return body[i]
		}
		return post
	}
	for i := range n {
		if _, ok := intStmtOf(at(i)); !ok {
			return nil
		}
	}
	ops := make([]intStmt, n)
	for i := range ops {
		ops[i], _ = intStmtOf(at(i))
	}
	return ops
}

// intLoop is an op list whose ops are all arithmetic under a comparing
// condition. While the slots they read hold ints, each round leaves
// every slot it writes an int, so whole rounds run on int64 copies of
// the slots, registers, which go back to their slots when the loop
// leaves them. No op reads input, and the hook is told only statement
// IDs, so nothing sees a slot until then.
type intLoop struct {
	slots [maxRegs]int // the slot of each register
	nregs int
	in    uint64 // the registers a round reads before it writes them
	test  regOp
	ops   []regOp
}

// regOp is an int shape over registers: x op y, or x op imm.
type regOp struct {
	op        tokenKind
	x, y, dst int // y is -1 for imm; dst is the op's own register
	imm       int64
	st        *intStmt
}

// maxRegs bounds an intLoop's registers; they live in an array on the
// Go stack.
const maxRegs = 8

// compile puts test and ops on registers, and leaves l.ops nil where
// an op compares or they use more than maxRegs slots.
func (l *intLoop) compile(test *intShape, ops []intStmt) {
	if test.arith {
		return
	}
	written, full := uint64(0), false
	reg := func(slot int, read bool) int {
		r := slices.Index(l.slots[:l.nregs], slot)
		if r < 0 {
			if l.nregs == maxRegs {
				full = true
				return 0
			}
			r = l.nregs
			l.slots[r] = slot
			l.nregs++
		}
		if read && written&(1<<r) == 0 {
			l.in |= 1 << r
		}
		return r
	}
	shape := func(t *intShape) regOp {
		o := regOp{op: t.op, x: reg(t.a, true), y: -1}
		if t.b >= 0 {
			o.y = reg(t.b, true)
		} else {
			o.imm = t.lit.Int
		}
		return o
	}
	l.test = shape(test)
	rops := make([]regOp, len(ops))
	for i := range ops {
		if !ops[i].arith {
			return
		}
		o := shape(&ops[i].intShape)
		o.dst, o.st = reg(ops[i].slot, false), &ops[i]
		written |= 1 << o.dst
		rops[i] = o
	}
	if !full {
		l.ops = rops
	}
}

// run runs whole rounds of the loop on registers. It is done unless a
// register a round reads before writing it does not hold an int when
// the loop starts, or the budget does not cover the next whole round;
// loopCode.run then goes on from the slots. A round's steps are charged at its start, and
// handed back for the statements it does not reach.
func (l *intLoop) run(in *interp, locals []value.Value, sid int) (done bool, err error) {
	var regs [maxRegs]int64
	for r, slot := range l.slots[:l.nregs] {
		if v := &locals[slot]; v.Kind == value.KindInt {
			regs[r] = v.Int
		} else if l.in&(1<<r) != 0 {
			return false, nil
		}
	}
	written := uint64(0)
	in.usedInput = false
	round := int64(1 + len(l.ops))
	for {
		if in.fuel-in.steps < round {
			l.store(locals, &regs, written)
			return false, nil
		}
		in.steps += round
		t := &l.test
		m := t.imm
		if t.y >= 0 {
			m = regs[t.y&(maxRegs-1)]
		}
		holds := intCompare(t.op, regs[t.x&(maxRegs-1)], m)
		if in.hook != nil {
			in.hook.Statement(sid, false, nil)
		}
		if !holds {
			in.steps -= round - 1
			l.store(locals, &regs, written)
			return true, nil
		}
		for i := range l.ops {
			o := &l.ops[i]
			m := o.imm
			if o.y >= 0 {
				m = regs[o.y&(maxRegs-1)]
			}
			n, ok := intArith(o.op, regs[o.x&(maxRegs-1)], m)
			if !ok {
				// Division or modulo by zero, which the op's own code
				// reports over the slots the ops before it left.
				in.steps -= int64(len(l.ops) - 1 - i)
				l.store(locals, &regs, written)
				return true, o.st.eval(locals, &locals[o.st.slot])
			}
			regs[o.dst&(maxRegs-1)] = n
			written |= 1 << o.dst
			if in.hook != nil {
				in.hook.Statement(o.st.sid, false, nil)
			}
		}
	}
}

func (c *compiler) exprs(es []expr) []evalFn {
	fns := make([]evalFn, len(es))
	for i, e := range es {
		fns[i] = c.expr(e)
	}
	return fns
}

func (c *compiler) expr(e expr) evalFn {
	switch ex := e.(type) {
	case *literal:
		// The literal's cell is the program's, shared by every session:
		// read, never written.
		lit := (*value.Value)(ex)
		return func(_ *interp, _ []value.Value, dst *value.Value) error {
			*dst = *lit
			return nil
		}

	case *varRef:
		// A read of the whole value takes the binding's room away (see
		// appendSelf).
		if slot := ex.local; slot >= 0 {
			return func(_ *interp, locals []value.Value, dst *value.Value) error {
				clip(&locals[slot])
				*dst = locals[slot]
				return nil
			}
		}
		name, p := ex.name, ex.p
		return func(in *interp, _ []value.Value, dst *value.Value) error {
			v, ok := in.globals[name]
			if !ok {
				return rtErrf(p, "undefined variable %q", name)
			}
			if in.grown && clip(&v) {
				in.globals[name] = v
			}
			*dst = v
			return nil
		}

	case *listLit:
		elems := c.exprs(ex.elems)
		return func(in *interp, locals []value.Value, dst *value.Value) error {
			out := make([]value.Value, len(elems))
			for i, el := range elems {
				if err := el(in, locals, &out[i]); err != nil {
					return err
				}
			}
			*dst = value.List(out...)
			return nil
		}

	case *mapLit:
		return c.mapLit(ex)

	case *indexExpr:
		base, idx := c.operands(ex.base, ex.idx)
		p := ex.p
		return func(in *interp, locals []value.Value, dst *value.Value) error {
			b, err := base.get(in, locals)
			if err != nil {
				return err
			}
			i, err := idx.get(in, locals)
			if err != nil {
				return err
			}
			return index(p, b, i, dst)
		}

	case *unaryExpr:
		x := c.operand(ex.x, cellTmp)
		if ex.op == tokBang {
			return func(in *interp, locals []value.Value, dst *value.Value) error {
				v, err := x.get(in, locals)
				if err != nil {
					return err
				}
				setBool(dst, !v.Truthy())
				return nil
			}
		}
		p := ex.p
		return func(in *interp, locals []value.Value, dst *value.Value) error {
			v, err := x.get(in, locals)
			if err != nil {
				return err
			}
			if v.Kind != value.KindInt {
				return rtErrf(p, "unary - needs int, got %s", v.Kind)
			}
			setInt(dst, -v.Int)
			return nil
		}

	case *binaryExpr:
		return c.binary(ex)

	case *callExpr:
		return c.call(ex)
	}
	panic(fmt.Sprintf("agentlang: cannot compile expression %T", e))
}

// operand is where a node reads one of its inputs. A local slot and a
// literal's cell are read in place, as they are: neither clips, and
// nothing a node evaluates can write a local of its own frame. Any other
// operand is evaluated into a cell first.
type operand struct {
	slot int          // the local slot read in place, or -1
	lit  *value.Value // the literal cell read in place, or nil
	code evalFn       // evaluates any other operand into its cell
	cell int          // that cell: a frame temporary, cellTmp or cellRead
}

// The interp's own cells an operand may be evaluated into.
const (
	cellTmp  = -1 // in.tmp
	cellRead = -2 // in.read
)

// operand compiles e to be read from cell if it is not read in place.
func (c *compiler) operand(e expr, cell int) operand {
	if inPlace(e) {
		if ref, ok := e.(*varRef); ok {
			return operand{slot: ref.local}
		}
		return operand{slot: -1, lit: (*value.Value)(e.(*literal))}
	}
	return operand{slot: -1, code: c.expr(e), cell: cell}
}

// inPlace reports whether operand reads e in place.
func inPlace(e expr) bool {
	switch ex := e.(type) {
	case *literal:
		return true
	case *varRef:
		return ex.local >= 0
	}
	return false
}

// operands compiles a node's two operands, evaluated left to right. The
// left one is evaluated into in.tmp when nothing that could write it is
// evaluated after: the right one is read in place, or is a global's
// read into in.read. Otherwise the right one goes to in.tmp and the
// left one to a frame temporary, which the right's code, compiled above
// it, cannot touch.
func (c *compiler) operands(l, r expr) (lo, ro operand) {
	if inPlace(l) || inPlace(r) {
		return c.operand(l, cellTmp), c.operand(r, cellTmp)
	}
	if ref, ok := r.(*varRef); ok {
		return c.operand(l, cellTmp), c.operand(ref, cellRead)
	}
	t := c.temp()
	defer c.release()
	return c.operand(l, t), c.operand(r, cellTmp)
}

// get returns where o's value lives, evaluating it first if need be.
func (o *operand) get(in *interp, locals []value.Value) (*value.Value, error) {
	if o.slot >= 0 {
		return &locals[o.slot], nil
	}
	if o.lit != nil {
		return o.lit, nil
	}
	var cell *value.Value
	switch o.cell {
	case cellTmp:
		cell = &in.tmp
	case cellRead:
		cell = &in.read
	default:
		cell = &locals[o.cell]
	}
	if err := o.code(in, locals, cell); err != nil {
		return nil, err
	}
	return cell, nil
}

func (c *compiler) mapLit(ex *mapLit) evalFn {
	// A key that is evaluated must survive its value's evaluation, which
	// goes to in.tmp: it gets a frame temporary, one for all keys.
	t := cellTmp
	for _, k := range ex.keys {
		if !inPlace(k) {
			t = c.temp()
			defer c.release()
			break
		}
	}
	keys := make([]operand, len(ex.keys))
	for i, k := range ex.keys {
		keys[i] = c.operand(k, t)
	}
	vals := c.exprs(ex.vals)
	p := ex.p
	return func(in *interp, locals []value.Value, dst *value.Value) error {
		m := make(map[string]value.Value, len(keys))
		for i := range keys {
			k, err := keys[i].get(in, locals)
			if err != nil {
				return err
			}
			if k.Kind != value.KindString {
				return rtErrf(p, "map literal key must be string, got %s", k.Kind)
			}
			if err := vals[i](in, locals, &in.tmp); err != nil {
				return err
			}
			m[k.Str] = in.tmp
		}
		*dst = value.Map(m)
		return nil
	}
}

// binary compiles a binary operator. Over an int shape it reads the
// operands in place; every other shape goes through binop.
func (c *compiler) binary(ex *binaryExpr) evalFn {
	if t, ok := intShapeOf(ex); ok {
		return func(_ *interp, locals []value.Value, dst *value.Value) error {
			return t.eval(locals, dst)
		}
	}
	op := ex.op
	if op == tokAndAnd || op == tokOrOr {
		// Short-circuit operators evaluate lazily; this matters for
		// replay determinism because the right operand may consume
		// input. Each operand is consumed before the next evaluation.
		l, r := c.operand(ex.l, cellTmp), c.operand(ex.r, cellTmp)
		return func(in *interp, locals []value.Value, dst *value.Value) error {
			lv, err := l.get(in, locals)
			if err != nil {
				return err
			}
			if lt := lv.Truthy(); lt == (op == tokOrOr) {
				setBool(dst, lt)
				return nil
			}
			rv, err := r.get(in, locals)
			if err != nil {
				return err
			}
			setBool(dst, rv.Truthy())
			return nil
		}
	}
	l, r := c.operands(ex.l, ex.r)
	return func(in *interp, locals []value.Value, dst *value.Value) error {
		x, err := l.get(in, locals)
		if err != nil {
			return err
		}
		y, err := r.get(in, locals)
		if err != nil {
			return err
		}
		return binop(ex, x, y, dst)
	}
}

// store puts the registers a round has written back in their slots.
func (l *intLoop) store(locals []value.Value, regs *[maxRegs]int64, written uint64) {
	for r, slot := range l.slots[:l.nregs] {
		if written&(1<<r) != 0 {
			setInt(&locals[slot], regs[r])
		}
	}
}

// intShape is a binary operator other than && and || over a local and
// a local or an int literal, the shapes of the summation loop (s + j,
// j < 1000), and the compiler's one int fast path. Both operands are
// read in place. Over two ints it computes with intArith or intCompare;
// any other operand, and a division or modulo by zero, goes to binop,
// which gives the generic path's result or error.
type intShape struct {
	ex    *binaryExpr
	op    tokenKind
	arith bool         // an arithmetic operator, else a comparison
	a, b  int          // the left and right operands' slots; b is -1 for a literal
	lit   *value.Value // the right operand's literal cell, when b is -1
}

// intShapeOf reports whether e has an int shape.
func intShapeOf(e expr) (intShape, bool) {
	ex, ok := e.(*binaryExpr)
	if !ok || ex.op == tokAndAnd || ex.op == tokOrOr {
		return intShape{}, false
	}
	l, ok := ex.l.(*varRef)
	if !ok || l.local < 0 {
		return intShape{}, false
	}
	t := intShape{ex: ex, op: ex.op, a: l.local, b: -1}
	switch ex.op {
	case tokPlus, tokMinus, tokStar, tokSlash, tokPercent:
		t.arith = true
	}
	switch r := ex.r.(type) {
	case *varRef:
		if r.local < 0 {
			return intShape{}, false
		}
		t.b = r.local
	case *literal:
		if r.Kind != value.KindInt {
			return intShape{}, false
		}
		t.lit = (*value.Value)(r)
	default:
		return intShape{}, false
	}
	return t, true
}

// operands returns where t's operands live.
func (t *intShape) operands(locals []value.Value) (x, y *value.Value) {
	if t.b >= 0 {
		return &locals[t.a], &locals[t.b]
	}
	return &locals[t.a], t.lit
}

// ints returns the values of t's operands, and whether both are ints.
func (t *intShape) ints(locals []value.Value) (n, m int64, ok bool) {
	x, y := t.operands(locals)
	return x.Int, y.Int, x.Kind == value.KindInt && y.Kind == value.KindInt
}

// eval stores the result in *dst, which may be an operand: both are
// read before the one store.
func (t *intShape) eval(locals []value.Value, dst *value.Value) error {
	if n, m, ok := t.ints(locals); ok {
		if !t.arith {
			setBool(dst, intCompare(t.op, n, m))
			return nil
		}
		if r, ok := intArith(t.op, n, m); ok {
			setInt(dst, r)
			return nil
		}
	}
	x, y := t.operands(locals)
	return binop(t.ex, x, y, dst)
}

// intStmt is an int assignment: let x = e or x = e, x a local and e an
// int shape, computed straight into x's slot.
type intStmt struct {
	intShape
	slot, sid int
	name      string
}

// intStmtOf reports whether s is an int assignment.
func intStmtOf(s stmt) (intStmt, bool) {
	switch st := s.(type) {
	case *letStmt:
		if t, ok := intShapeOf(st.rhs); ok {
			return intStmt{t, st.slot, st.sid, st.name}, true
		}
	case *assignStmt:
		if st.local < 0 || len(st.path) > 0 || st.grow != nil {
			break
		}
		if t, ok := intShapeOf(st.rhs); ok {
			return intStmt{t, st.local, st.sid, st.name}, true
		}
	}
	return intStmt{}, false
}

// run executes o, its step charged and in.usedInput cleared.
func (o *intStmt) run(in *interp, locals []value.Value) error {
	dst := &locals[o.slot]
	if err := o.eval(locals, dst); err != nil {
		return err
	}
	if in.hook != nil {
		in.emitAssign(o.sid, o.name, dst)
	}
	return nil
}

// call compiles a call. Arguments are evaluated straight into the cells
// the callee reads: a procedure's parameter slots or a builtin's
// argument list on the stack, or a fresh slice for an external, whose
// Env may retain it.
func (c *compiler) call(ex *callExpr) evalFn {
	args, p := c.exprs(ex.args), ex.p
	switch ex.kind {
	case callBuiltin:
		fn := ex.builtin
		return func(in *interp, locals []value.Value, dst *value.Value) error {
			mark := in.sp
			cells := in.push(len(args))
			for i, arg := range args {
				if err := arg(in, locals, &cells[i]); err != nil {
					return err
				}
			}
			v, err := fn(cells)
			if err != nil {
				return rtErrf(p, "%s", err)
			}
			in.sp = mark
			*dst = v
			clip(dst) // min, max and get return an element of their argument
			return nil
		}

	case callExternal:
		name, ext := ex.name, ex.ext
		return func(in *interp, locals []value.Value, dst *value.Value) error {
			cells := make([]value.Value, len(args))
			for i, arg := range args {
				if err := arg(in, locals, &cells[i]); err != nil {
					return err
				}
			}
			switch {
			case ext.isControl:
				if name == "migrate" {
					if cells[0].Kind != value.KindString || cells[1].Kind != value.KindString {
						return rtErrf(p, "migrate(host, entry) needs string arguments")
					}
					in.migrateHost = cells[0].Str
					in.migrateEntry = cells[1].Str
					return errMigrate
				}
				return errDone // done()
			case ext.isInput:
				v, err := in.env.Input(name, cells)
				if err != nil {
					return &RuntimeError{Pos: p, Msg: fmt.Sprintf("input %s: %s", name, err), Cause: err}
				}
				in.usedInput = true
				*dst = v
				clip(dst) // the Env may keep and use the room behind its list
				return nil
			default: // output
				if err := in.env.Output(name, cells); err != nil {
					return &RuntimeError{Pos: p, Msg: fmt.Sprintf("output %s: %s", name, err), Cause: err}
				}
				*dst = value.Null()
				return nil
			}
		}

	case callProc:
		proc := ex.proc
		return func(in *interp, locals []value.Value, dst *value.Value) error {
			// The callee compiles on its first call, here, since its
			// frame size is known only then.
			code := proc.compiled()
			mark := in.sp
			cells := in.frame(code, len(args))
			for i, arg := range args {
				if err := arg(in, locals, &cells[i]); err != nil {
					return err
				}
			}
			// The callee's statements reset and set the per-statement
			// input flag; restore the caller's view afterwards so the
			// calling statement is marked only for input consumed in its
			// own expression (input inside the callee is traced at the
			// callee's own statements).
			saved := in.usedInput
			err := in.callProc(proc, code, cells)
			in.usedInput = saved
			if err != nil {
				// migrate/done propagate out of nested calls.
				return err
			}
			in.sp = mark
			*dst = in.retVal
			in.retVal = value.Null()
			return nil
		}
	}
	panic(fmt.Sprintf("agentlang: cannot compile call kind %d", ex.kind))
}
