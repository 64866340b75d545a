package agentlang

import (
	"cmp"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"

	"repro/internal/value"
)

// OutcomeKind describes how an execution session ended.
type OutcomeKind int

const (
	// OutcomeMigrated means the agent called migrate(host, entry): the
	// session is over and the agent wants to continue elsewhere.
	OutcomeMigrated OutcomeKind = iota + 1
	// OutcomeDone means the agent called done() or its entry procedure
	// returned: the agent has finished its task.
	OutcomeDone
)

// Outcome is the result of running one execution session.
type Outcome struct {
	Kind OutcomeKind
	// MigrateHost and MigrateEntry are set when Kind == OutcomeMigrated.
	MigrateHost  string
	MigrateEntry string
	// Steps is the number of statements executed during the session.
	Steps int64
}

// Hook observes execution for trace recording and phase timing. All
// methods are called synchronously from the interpreter goroutine.
// A nil Hook disables observation with negligible overhead.
type Hook interface {
	// Statement is called after each executed statement. assigned holds
	// the variables written by the statement *if* the statement consumed
	// external input (paper §3.3: the trace records variable contents
	// only for statements that use information from outside the agent).
	Statement(stmtID int, usedInput bool, assigned []Assignment)
	// EnterProc / ExitProc bracket user procedure invocations, enabling
	// per-procedure time accounting (the "cycle" column of Tables 1-2).
	EnterProc(name string)
	ExitProc(name string)
}

// Assignment records one variable write for trace entries.
type Assignment struct {
	Name string
	Val  value.Value
}

// ProcEventsOnly is an optional marker for hooks that consume only
// EnterProc/ExitProc. The interpreter then skips all per-statement hook
// work (including the per-assignment bookkeeping), which matters for
// timing hooks attached to computation-heavy benchmark agents.
type ProcEventsOnly interface {
	ProcEventsOnly()
}

// ErrFuelExhausted is returned when a session exceeds its statement
// budget, the platform's defence against non-terminating agents.
var ErrFuelExhausted = errors.New("agentlang: statement budget exhausted")

// DefaultFuel is the default per-session statement budget. It is large
// enough for the paper's heaviest workload (10000 cycles of 1000
// summations ≈ 3·10^7 statements) with an order of magnitude to spare.
const DefaultFuel = int64(500_000_000)

// Options configures a session run.
type Options struct {
	// Fuel bounds the number of executed statements; 0 means DefaultFuel.
	Fuel int64
	// Hook observes execution; may be nil.
	Hook Hook
}

// A control transfer leaves the statement or call that made it as one
// of these sentinel errors and travels up through the compiled code on
// the error path: a loop catches break and continue, a procedure
// return, and Run migrate and done. Every compiled closure thus returns
// one error, nil on the straight path.
type transfer struct{ what string }

func (t *transfer) Error() string { return "agentlang: " + t.what + " escaped its construct" }

var (
	errBreak    error = &transfer{"break"}
	errContinue error = &transfer{"continue"}
	errReturn   error = &transfer{"return"}
	errMigrate  error = &transfer{"migrate"}
	errDone     error = &transfer{"done"}
)

// interp is the state of one session, or of one Expr.Eval, that the
// compiled code (compile.go) runs against.
//
// Expressions are evaluated destination-passing: an expression's code
// stores its result through a pointer instead of returning an 80-byte
// value.Value, and reads operands where they already live (see
// operand). The destination may therefore be one of the operands
// (s = s + j, x = x[0]), and one rule keeps that correct: a node reads
// everything it needs from its operands before its single store to
// dst, and stores nothing on error or control transfer.
type interp struct {
	globals value.State
	env     Env
	// hook receives statement events; nil when the configured hook is
	// ProcEventsOnly. procHook receives procedure enter/exit events.
	hook     Hook
	procHook Hook
	fuel     int64
	steps    int64

	// stack holds procedure frames and builtin arguments; sp is the
	// first free cell. Cells above sp hold stale values. See push for
	// how it grows.
	stack []value.Value
	sp    int
	// tmp receives values consumed at once: conditions, the right-hand
	// side of a global assignment, discarded call results, an operand
	// that nothing is evaluated after (see operands). Evaluation nested
	// inside may use it too, since it is written last.
	tmp value.Value
	// read receives a global's value that a node reads as its right
	// operand, while its left one waits in tmp (see operands).
	read value.Value

	// Set when a control external fires.
	migrateHost  string
	migrateEntry string
	// retVal carries a return value to the calling expression, which
	// resets it to null: what a procedure that ends without a return
	// statement yields.
	retVal value.Value
	// Scratch for input-consumption tracking within one statement.
	usedInput bool
	depth     int
	// grown is set once appendSelf has left room behind a global's
	// list, and Run then compacts the globals before it returns. Until
	// it is set no global has room to clip: Run clipped them all, and
	// Expr.Eval must not write the state it reads.
	grown bool
}

// interps recycles interpreters. The compiled code takes the interp as
// an argument of calls Go cannot see through, so a fresh one would live
// on the heap: one allocation per Run and per rule evaluation.
var interps = sync.Pool{New: func() any { return new(interp) }}

// release returns in to the pool without its cells: they may hold the
// last session's values, and after deep recursion they are many.
func (in *interp) release() {
	*in = interp{}
	interps.Put(in)
}

// maxCallDepth bounds recursion in agent programs.
const maxCallDepth = 256

// Run executes the entry procedure of prog against the given global
// state. The globals map is mutated in place (it is the agent's data
// state); callers that need the pre-session snapshot must Clone first.
//
// The entry procedure must take no parameters. Nondeterministic
// operations are served by env; execution observation by opts.Hook.
func Run(prog *Program, entry string, globals value.State, env Env, opts Options) (Outcome, error) {
	proc, ok := prog.procs[entry]
	if !ok {
		return Outcome{}, fmt.Errorf("agentlang: entry procedure %q not found", entry)
	}
	if len(proc.Params) != 0 {
		return Outcome{}, fmt.Errorf("agentlang: entry procedure %q must take no parameters, has %d",
			entry, len(proc.Params))
	}
	if globals == nil {
		return Outcome{}, errors.New("agentlang: globals state must not be nil")
	}
	if env == nil {
		return Outcome{}, errors.New("agentlang: env must not be nil")
	}
	in := interps.Get().(*interp)
	defer in.release()
	in.globals, in.env, in.fuel = globals, env, opts.Fuel
	if in.fuel <= 0 {
		in.fuel = DefaultFuel
	}
	if opts.Hook != nil {
		in.procHook = opts.Hook
		if _, procOnly := opts.Hook.(ProcEventsOnly); !procOnly {
			in.hook = opts.Hook
		}
	}
	// Room behind a list handed in may be the caller's to use: only
	// appendSelf leaves room in a binding.
	for name, v := range globals {
		if clip(&v) {
			globals[name] = v
		}
	}
	code := proc.compiled()
	err := in.callProc(proc, code, in.frame(code, 0))
	in.compact()
	out := Outcome{Steps: in.steps}
	switch err {
	case nil, errDone:
		// Normal return from the entry procedure or explicit done().
		out.Kind = OutcomeDone
	case errMigrate:
		out.Kind = OutcomeMigrated
		out.MigrateHost = in.migrateHost
		out.MigrateEntry = in.migrateEntry
	default:
		return out, err
	}
	return out, nil
}

// push carves n cells off the value stack. The cells hold stale values;
// the caller overwrites or clears them. A full stack is replaced, not
// copied: every frame below keeps the slices and pointers it carved
// from the old array and never derives them again. Cells are released
// by resetting sp, on the normal path only: an error or a migrate/done
// unwinds the whole session.
func (in *interp) push(n int) []value.Value {
	if in.sp+n > len(in.stack) {
		in.stack = make([]value.Value, max(8, 2*(in.sp+n)))
	}
	cells := in.stack[in.sp : in.sp+n : in.sp+n]
	in.sp += n
	return cells
}

// frame carves a frame for code; the first nargs cells are left for the
// caller to fill with arguments, the locals start out unassigned.
// Temporaries are written before they are read and keep stale values.
func (in *interp) frame(code *procCode, nargs int) []value.Value {
	locals := in.push(code.frame)
	clear(locals[nargs:code.locals])
	return locals
}

// spent charges one step against the session's statement budget and
// reports whether that overdraws it; outOfFuel is then the error.
func (in *interp) spent() bool {
	in.steps++
	return in.steps > in.fuel
}

func (in *interp) outOfFuel() error {
	return fmt.Errorf("%w (limit %d)", ErrFuelExhausted, in.fuel)
}

// callProc runs a procedure body over its frame.
func (in *interp) callProc(proc *Proc, code *procCode, locals []value.Value) error {
	if in.depth >= maxCallDepth {
		return rtErrf(proc.pos, "call depth exceeds %d in %q", maxCallDepth, proc.Name)
	}
	in.depth++
	if in.procHook != nil {
		in.procHook.EnterProc(proc.Name)
	}
	err := code.body(in, locals)
	if in.procHook != nil {
		in.procHook.ExitProc(proc.Name)
	}
	in.depth--
	switch err {
	case errReturn:
		return nil
	case errBreak, errContinue:
		// break/continue cannot escape a procedure body: the parser
		// allows them anywhere, so enforce the constraint here.
		return rtErrf(proc.pos, "break/continue outside loop in %q", proc.Name)
	}
	return err
}

// setInt and setBool store a scalar. Over a scalar of the same kind they
// write the one field that differs, not all 80 bytes, four of them
// pointers; storing value.Int(n) whole costs s = s + j 8 % more. The
// other fields of a scalar are zero as every constructor and canon's
// decoder leave them. A hand-built or gob-decoded scalar with a stray
// Str or List keeps it through x = x + 1; nothing that reads a Value by
// its Kind (operators, builtins, canon) can tell.
func setInt(dst *value.Value, n int64) {
	if dst.Kind == value.KindInt {
		dst.Int = n
	} else {
		*dst = value.Int(n)
	}
}

func setBool(dst *value.Value, b bool) {
	if dst.Kind == value.KindBool {
		dst.Bool = b
	} else {
		*dst = value.Bool(b)
	}
}

// emit reports the execution of a statement that assigns nothing.
func (in *interp) emit(sid int) {
	if in.hook != nil {
		in.hook.Statement(sid, in.usedInput, nil)
	}
}

// emitAssign reports an assignment to a non-nil hook. The written
// variable is passed through only when the statement consumed external
// input, matching the trace format of Fig. 3. The hook may keep what it
// is handed, so v, the binding or the value about to be stored in it,
// loses its room first, as on any read (see appendSelf).
func (in *interp) emitAssign(sid int, name string, v *value.Value) {
	if in.usedInput {
		clip(v)
		in.hook.Statement(sid, true, []Assignment{{Name: name, Val: *v}})
	} else {
		in.hook.Statement(sid, false, nil)
	}
}

// appendSelf runs x = append(x, e…), the statement the parser marks in
// assignStmt.grow, and ends exactly as the builtin would: the same list,
// the same errors in the same order. While x's array has room and no
// other value holds it, the elements go into that room; otherwise x
// gets a new array, with room as Go's append leaves it. One rule keeps
// this invisible: room behind a list never leaves the binding
// appendSelf gave it to, nor the session.
//
//   - Only appendSelf leaves room in a binding. Run clips the globals it
//     is handed, and no expression yields a list with room behind it:
//     an element read out of a list and a builtin's or an Env's result
//     may come from an array someone else holds, and are clipped.
//   - Every read of a binding as a whole value clips it first: a
//     variable reference, which covers arguments, let, return and
//     stored elements, and the hook's report. Whoever got the array sees
//     x[i] = v, as before; the next append copies, so what it adds goes
//     nowhere they could look, also as before.
//   - Run gives every grown global an array of exactly its length
//     before it returns (compact).
//
// The arguments are evaluated first. If that read or reassigned x, the
// binding no longer holds the list read before them, and the append
// copies from that list, which is the one the builtin was handed.
func (in *interp) appendSelf(st *assignStmt, args []evalFn, locals []value.Value) error {
	var cur value.Value
	if st.local >= 0 {
		cur = locals[st.local]
	} else {
		var ok bool
		if cur, ok = in.globals[st.name]; !ok {
			return rtErrf(st.grow.args[0].pos(), "undefined variable %q", st.name)
		}
	}
	mark := in.sp
	elems := in.push(len(args))
	for i, arg := range args {
		if err := arg(in, locals, &elems[i]); err != nil {
			return err
		}
	}
	if err := wantKind("append", 0, cur, value.KindList); err != nil {
		return rtErrf(st.grow.p, "%s", err)
	}
	x := &in.tmp
	if st.local >= 0 {
		x = &locals[st.local]
	} else {
		in.tmp = in.globals[st.name]
	}
	if len(cur.List)+len(elems) <= cap(cur.List) && !cur.Shared() && sameList(x, &cur) {
		x.List = append(x.List, elems...)
	} else {
		n := len(cur.List)
		out := append(cur.List[:n:n], elems...)
		if cur.Shared() {
			// As the builtin: elements of a snapshot-shared list still
			// point into snapshot storage one level down.
			for i := range out[:n] {
				out[i] = value.ShareFrom(cur, out[i])
			}
		}
		*x = value.List(out...)
	}
	in.sp = mark
	if in.hook != nil {
		in.emitAssign(st.sid, st.name, x)
	}
	if st.local < 0 {
		in.globals[st.name] = in.tmp
		in.grown = true
	}
	return nil
}

// sameList reports whether x holds the very list cur is a copy of: the
// same array, length and capacity.
func sameList(x, cur *value.Value) bool {
	return x.Kind == value.KindList && !x.Shared() &&
		len(x.List) == len(cur.List) && cap(x.List) == cap(cur.List) &&
		cap(x.List) > 0 && &x.List[:1][0] == &cur.List[:1][0]
}

// clip drops the room behind v's list, reporting whether there was any.
func clip(v *value.Value) bool {
	if cap(v.List) == len(v.List) {
		return false
	}
	v.List = v.List[:len(v.List):len(v.List)]
	return true
}

// compact gives every global appendSelf grew an array of exactly its
// length, so that no room outlives the session: states, reference
// packages and traces stay the size the builtin left them.
func (in *interp) compact() {
	if !in.grown {
		return
	}
	for name, v := range in.globals {
		if cap(v.List) > len(v.List) {
			v.List = append(make([]value.Value, 0, len(v.List)), v.List...)
			in.globals[name] = v
		}
	}
}

// assignPath performs an indexed write like xs[i] = v or m["k"]["j"] = v.
// Composite values have reference semantics (like the Java objects of
// the paper's Mole agents), so the write mutates shared storage —
// unless a level is marked as co-owned with a copy-on-write snapshot
// (value.State.Snapshot), in which case that level is copied before
// the write so the snapshot stays intact.
func (in *interp) assignPath(st *assignStmt, rhs evalFn, path []evalFn, locals []value.Value) error {
	// The right-hand side, then the index expressions left to right, all
	// before the copy-on-write descent so that it is a pure structural
	// operation. They sit on the stack because each must survive the
	// evaluation of the next.
	mark := in.sp
	cells := in.push(1 + len(path))
	if err := rhs(in, locals, &cells[0]); err != nil {
		return err
	}
	idxs := cells[1:]
	for i, idx := range path {
		if err := idx(in, locals, &idxs[i]); err != nil {
			if _, ok := err.(*transfer); ok {
				return rtErrf(st.p, "control transfer inside index expression")
			}
			return err
		}
	}
	in.sp = mark
	var root value.Value
	if st.local >= 0 {
		root = locals[st.local]
	} else {
		var ok bool
		root, ok = in.globals[st.name]
		if !ok {
			return rtErrf(st.p, "indexed assignment to undefined variable %q", st.name)
		}
	}
	root, err := in.setAt(root, idxs, cells[0], st)
	if err != nil {
		return err
	}
	if in.hook != nil {
		in.emitAssign(st.sid, st.name, &root)
	}
	// Store the (possibly copied) root back into its binding.
	if st.local >= 0 {
		locals[st.local] = root
	} else {
		in.globals[st.name] = root
	}
	return nil
}

// setAt writes v at the position named by idxs inside cur, taking
// exclusive ownership of every level on the path (copy-on-write), and
// returns the updated node. On error nothing observable is mutated.
func (in *interp) setAt(cur value.Value, idxs []value.Value, v value.Value, st *assignStmt) (value.Value, error) {
	idx := idxs[0]
	switch cur.Kind {
	case value.KindList:
		if idx.Kind != value.KindInt {
			return cur, rtErrf(st.p, "list index must be int, got %s", idx.Kind)
		}
		if idx.Int < 0 || idx.Int >= int64(len(cur.List)) {
			return cur, rtErrf(st.p, "list index %d out of range (len %d)", idx.Int, len(cur.List))
		}
		// Own before descending: the copy pushes the shared flag down
		// onto its elements, so a deeper write cannot mutate storage the
		// snapshot still co-owns.
		cur = value.Owned(cur)
		if len(idxs) == 1 {
			if holds(&v, &cur) {
				return cur, rtErrf(st.p, "assignment would make the list contain itself")
			}
			cur.List[idx.Int] = v
			return cur, nil
		}
		child, err := in.setAt(cur.List[idx.Int], idxs[1:], v, st)
		if err != nil {
			return cur, err
		}
		cur.List[idx.Int] = child
		return cur, nil
	case value.KindMap:
		if idx.Kind != value.KindString {
			return cur, rtErrf(st.p, "map key must be string, got %s", idx.Kind)
		}
		cur = value.Owned(cur)
		if len(idxs) == 1 {
			if holds(&v, &cur) {
				return cur, rtErrf(st.p, "assignment would make the map contain itself")
			}
			cur.Map[idx.Str] = v
			return cur, nil
		}
		next, ok := cur.Map[idx.Str]
		if !ok {
			return cur, rtErrf(st.p, "map key %q not present", idx.Str)
		}
		child, err := in.setAt(next, idxs[1:], v, st)
		if err != nil {
			return cur, err
		}
		cur.Map[idx.Str] = child
		return cur, nil
	default:
		return cur, rtErrf(st.p, "cannot index into %s", cur.Kind)
	}
}

// holds reports whether v is, or contains at any depth, the list or map
// c. Storing v inside c would then close a cycle, and nothing that walks
// a value (Equal, String, Clone, canon.HashState) returns from one.
// Indexed assignment is the only operation that writes into existing
// storage, so refusing it there keeps every value a finite tree. A list
// always starts at its array's first element — nothing reslices from an
// offset, and appendSelf only lengthens a binding within its own array —
// so two lists share storage exactly when their first elements do.
func holds(v, c *value.Value) bool {
	switch v.Kind {
	case value.KindList:
		if c.Kind == value.KindList && len(v.List) > 0 && len(c.List) > 0 && &v.List[0] == &c.List[0] {
			return true
		}
		for i := range v.List {
			if holds(&v.List[i], c) {
				return true
			}
		}
	case value.KindMap:
		if c.Kind == value.KindMap && reflect.ValueOf(v.Map).UnsafePointer() == reflect.ValueOf(c.Map).UnsafePointer() {
			return true
		}
		for _, e := range v.Map {
			if holds(&e, c) {
				return true
			}
		}
	}
	return false
}

// index stores base[idx] in *dst, which may be base or idx.
func index(p Pos, base, idx, dst *value.Value) error {
	switch base.Kind {
	case value.KindList:
		if idx.Kind != value.KindInt {
			return rtErrf(p, "list index must be int, got %s", idx.Kind)
		}
		if idx.Int < 0 || idx.Int >= int64(len(base.List)) {
			return rtErrf(p, "list index %d out of range (len %d)", idx.Int, len(base.List))
		}
		// ShareFrom: a child read out of a snapshot-shared composite
		// co-owns snapshot storage, so writes through the extracted
		// value must copy-on-write too.
		*dst = value.ShareFrom(*base, base.List[idx.Int])
	case value.KindMap:
		if idx.Kind != value.KindString {
			return rtErrf(p, "map key must be string, got %s", idx.Kind)
		}
		v, ok := base.Map[idx.Str]
		if !ok {
			return rtErrf(p, "map key %q not present", idx.Str)
		}
		*dst = value.ShareFrom(*base, v)
	case value.KindString:
		if idx.Kind != value.KindInt {
			return rtErrf(p, "string index must be int, got %s", idx.Kind)
		}
		if idx.Int < 0 || idx.Int >= int64(len(base.Str)) {
			return rtErrf(p, "string index %d out of range (len %d)", idx.Int, len(base.Str))
		}
		*dst = value.Str(base.Str[idx.Int : idx.Int+1])
	default:
		return rtErrf(p, "cannot index into %s", base.Kind)
	}
	clip(dst) // an element of a list handed in may have room behind it
	return nil
}

// intArith is an arithmetic operator over two ints; ok is false for a
// division by zero, which binop reports.
func intArith(op tokenKind, n, m int64) (r int64, ok bool) {
	switch op {
	case tokPlus:
		return n + m, true
	case tokMinus:
		return n - m, true
	case tokStar:
		return n * m, true
	case tokSlash:
		if m == 0 {
			return 0, false
		}
		return n / m, true
	case tokPercent:
		if m == 0 {
			return 0, false
		}
		return n % m, true
	}
	return 0, false
}

// intCompare is a comparison operator over two ints.
func intCompare(op tokenKind, n, m int64) bool {
	switch op {
	case tokEq:
		return n == m
	case tokNe:
		return n != m
	case tokLt:
		return n < m
	case tokLe:
		return n <= m
	case tokGt:
		return n > m
	default:
		return n >= m
	}
}

// binop stores l op r in *dst, which may be l or r, for every binary
// operator but && and ||: the one generic path behind the int fast paths
// of the compiled code.
func binop(ex *binaryExpr, l, r, dst *value.Value) error {
	var res bool
	switch ex.op {
	case tokEq:
		res = l.Equal(*r)
	case tokNe:
		res = !l.Equal(*r)
	case tokLt, tokLe, tokGt, tokGe:
		// Ordering comparisons work on ints and strings.
		var ord int
		switch {
		case l.Kind == value.KindInt && r.Kind == value.KindInt:
			ord = cmp.Compare(l.Int, r.Int)
		case l.Kind == value.KindString && r.Kind == value.KindString:
			ord = strings.Compare(l.Str, r.Str)
		default:
			return rtErrf(ex.p, "cannot compare %s and %s", l.Kind, r.Kind)
		}
		res = intCompare(ex.op, int64(ord), 0)
	default:
		if l.Kind != value.KindInt || r.Kind != value.KindInt {
			return concat(ex, l, r, dst)
		}
		n, ok := intArith(ex.op, l.Int, r.Int)
		if !ok {
			switch ex.op {
			case tokSlash:
				return rtErrf(ex.p, "division by zero")
			case tokPercent:
				return rtErrf(ex.p, "modulo by zero")
			}
			return rtErrf(ex.p, "internal: unknown operator")
		}
		setInt(dst, n)
		return nil
	}
	setBool(dst, res)
	return nil
}

// concat is an arithmetic operator over operands that are not both
// ints: '+' joins two strings or two lists, anything else is an error.
func concat(ex *binaryExpr, l, r, dst *value.Value) error {
	switch {
	case ex.op == tokPlus && l.Kind == value.KindString && r.Kind == value.KindString:
		*dst = value.Str(l.Str + r.Str)
	case ex.op == tokPlus && l.Kind == value.KindList && r.Kind == value.KindList:
		out := make([]value.Value, 0, len(l.List)+len(r.List))
		out = append(out, l.List...)
		out = append(out, r.List...)
		*dst = value.List(out...)
	default:
		return rtErrf(ex.p, "operator needs ints, got %s and %s", l.Kind, r.Kind)
	}
	return nil
}
