package agentlang

import (
	"fmt"

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
		return c.loop(st.sid, st.cond, st.body, nil)

	case *forStmt:
		loop := c.loop(st.sid, st.cond, st.body, st.post)
		if st.init == nil {
			return loop
		}
		init := c.stmt(st.init)
		return func(in *interp, locals []value.Value) error {
			if in.spent() {
				return in.outOfFuel()
			}
			if err := init(in, locals); err != nil {
				return err
			}
			return loop(in, locals)
		}

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

// loop compiles a while loop, or a for loop without its init statement.
// Each evaluation of the condition costs one step.
func (c *compiler) loop(sid int, cond expr, body []stmt, post stmt) execFn {
	test, run := c.expr(cond), c.block(body)
	var next execFn
	if post != nil {
		next = c.stmt(post)
	}
	return func(in *interp, locals []value.Value) error {
		for {
			if in.spent() {
				return in.outOfFuel()
			}
			in.usedInput = false
			if err := test(in, locals, &in.tmp); err != nil {
				return err
			}
			in.emit(sid)
			if !in.tmp.Truthy() {
				return nil
			}
			switch err := run(in, locals); err {
			case nil, errContinue:
			case errBreak:
				return nil
			default:
				return err
			}
			if next != nil {
				if in.spent() {
					return in.outOfFuel()
				}
				if err := next(in, locals); err != nil {
					return err
				}
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

// binary compiles a binary operator. Over a local and a local or a
// literal, the shapes of the summation loop, an int fast path reads the
// operands without a call; every other shape, and the fast paths when
// an operand is not an int, go through binop.
func (c *compiler) binary(ex *binaryExpr) evalFn {
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
	arith := op == tokPlus || op == tokMinus || op == tokStar || op == tokSlash || op == tokPercent
	switch a := l.slot; {
	case a >= 0 && r.slot >= 0:
		b := r.slot
		if arith {
			return func(_ *interp, locals []value.Value, dst *value.Value) error {
				x, y := &locals[a], &locals[b]
				if x.Kind == value.KindInt && y.Kind == value.KindInt {
					if n, ok := intArith(op, x.Int, y.Int); ok {
						setInt(dst, n)
						return nil
					}
				}
				return binop(ex, x, y, dst)
			}
		}
		return func(_ *interp, locals []value.Value, dst *value.Value) error {
			x, y := &locals[a], &locals[b]
			if x.Kind == value.KindInt && y.Kind == value.KindInt {
				setBool(dst, intCompare(op, x.Int, y.Int))
				return nil
			}
			return binop(ex, x, y, dst)
		}

	case a >= 0 && r.lit != nil && r.lit.Kind == value.KindInt:
		y := r.lit
		if arith {
			return func(_ *interp, locals []value.Value, dst *value.Value) error {
				x := &locals[a]
				if x.Kind == value.KindInt {
					if n, ok := intArith(op, x.Int, y.Int); ok {
						setInt(dst, n)
						return nil
					}
				}
				return binop(ex, x, y, dst)
			}
		}
		return func(_ *interp, locals []value.Value, dst *value.Value) error {
			x := &locals[a]
			if x.Kind == value.KindInt {
				setBool(dst, intCompare(op, x.Int, y.Int))
				return nil
			}
			return binop(ex, x, y, dst)
		}
	}
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
