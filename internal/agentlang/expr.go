package agentlang

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/value"
)

// Expr is a standalone boolean/arithmetic expression over agent state
// variables — the formalism of the state-appraisal rule mechanism
// (paper §3.1/§3.5: "simple (i.e. non turing complete) rule mechanisms
// that allow to check e.g. postconditions in form of first order
// logic (e.g. moneySpent + moneyRest = moneyInitial)").
//
// Expressions may use literals, state variables, operators, and the
// pure builtins. They must not call externals (no input — rules are
// recomputable by construction) or user procedures (no turing
// completeness, and no code to resolve against).
type Expr struct {
	src  string
	root expr
	// once guards code and frame, the expression compiled on its first
	// evaluation, as a procedure on its first call.
	once  sync.Once
	code  evalFn
	frame int
}

// ErrExprExternal is returned when an expression references externals
// or procedures.
var ErrExprExternal = errors.New("agentlang: expression must be pure (no externals or procedure calls)")

// ParseExpression compiles a standalone expression.
func ParseExpression(src string) (*Expr, error) {
	p := newParser(src)
	defer p.release()
	if err := p.advance(); err != nil {
		return nil, err
	}
	root, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errf("unexpected %s after expression", p.describeTok())
	}
	if err := checkPure(root); err != nil {
		return nil, err
	}
	return &Expr{src: src, root: root}, nil
}

// MustParseExpression panics on error; for static rule tables in tests
// and examples only.
func MustParseExpression(src string) *Expr {
	e, err := ParseExpression(src)
	if err != nil {
		panic(err)
	}
	return e
}

// Source returns the expression text.
func (e *Expr) Source() string { return e.src }

// Eval evaluates the expression against a state. Unknown variables are
// an error (a rule referencing a variable the agent does not carry is a
// rule violation in itself).
func (e *Expr) Eval(st value.State) (value.Value, error) {
	e.once.Do(func() {
		c := &compiler{}
		e.code = c.expr(e.root)
		e.frame = c.frame
	})
	in := interps.Get().(*interp)
	defer in.release()
	in.globals = st
	if err := e.code(in, in.push(e.frame), &in.tmp); err != nil {
		return value.Null(), err
	}
	return in.tmp, nil
}

// EvalBool evaluates and requires a boolean result.
func (e *Expr) EvalBool(st value.State) (bool, error) {
	v, err := e.Eval(st)
	if err != nil {
		return false, err
	}
	if v.Kind != value.KindBool {
		return false, fmt.Errorf("agentlang: rule %q evaluated to %s, want bool", e.src, v.Kind)
	}
	return v.Bool, nil
}

// checkPure walks the expression rejecting external and procedure
// calls.
func checkPure(e expr) error {
	switch ex := e.(type) {
	case *literal, *varRef:
		return nil
	case *listLit:
		for _, el := range ex.elems {
			if err := checkPure(el); err != nil {
				return err
			}
		}
		return nil
	case *mapLit:
		for i := range ex.keys {
			if err := checkPure(ex.keys[i]); err != nil {
				return err
			}
			if err := checkPure(ex.vals[i]); err != nil {
				return err
			}
		}
		return nil
	case *indexExpr:
		if err := checkPure(ex.base); err != nil {
			return err
		}
		return checkPure(ex.idx)
	case *unaryExpr:
		return checkPure(ex.x)
	case *binaryExpr:
		if err := checkPure(ex.l); err != nil {
			return err
		}
		return checkPure(ex.r)
	case *callExpr:
		if ex.kind != callBuiltin {
			return fmt.Errorf("%w: %s at %s", ErrExprExternal, ex.name, ex.p)
		}
		for _, a := range ex.args {
			if err := checkPure(a); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("agentlang: unknown expression node %T", e)
	}
}
