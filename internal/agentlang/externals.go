package agentlang

import (
	"errors"
	"fmt"

	"repro/internal/value"
)

// Env is the interface between an executing agent and the outside
// world. Every piece of nondeterminism enters agent programs through
// Input, and every externally visible action leaves through Output.
// This is the choke point that makes reference states work: a host
// records all Input results as the session's "input" (paper §2.1), and
// a checking host replays them during re-execution.
type Env interface {
	// Input services an input external (read, recv, time, rand,
	// resource, here) and returns its result. Implementations must
	// record the call so the session input log is complete.
	Input(call string, args []value.Value) (value.Value, error)

	// Output services an output external (send, act). During checking
	// re-execution, output actions are suppressed (paper §5: "output
	// actions can be suppressed as they are not needed for checking").
	Output(action string, args []value.Value) error
}

// ErrInputExhausted is returned by replay environments when an agent
// requests more input than the recorded log contains — i.e. the
// execution being checked diverges from the recorded one.
var ErrInputExhausted = errors.New("agentlang: replay input log exhausted")

// externalSpec describes one external callable.
type externalSpec struct {
	name     string
	minArgs  int
	maxArgs  int // -1 for variadic
	isInput  bool
	isOutput bool
	// control externals (migrate, done) are handled by the interpreter
	// directly rather than through Env.
	isControl bool
}

// Externals, keyed by name. The split into input / output / control
// mirrors the paper's execution model (Fig. 1): input flows into the
// session, actions flow out, and migration ends the session.
var externals = map[string]*externalSpec{
	// Input externals. Their results are injected "from the outside of
	// the agent" and must be recorded.
	"read":     {name: "read", minArgs: 1, maxArgs: 1, isInput: true},
	"recv":     {name: "recv", minArgs: 0, maxArgs: 0, isInput: true},
	"time":     {name: "time", minArgs: 0, maxArgs: 0, isInput: true},
	"rand":     {name: "rand", minArgs: 1, maxArgs: 1, isInput: true},
	"resource": {name: "resource", minArgs: 1, maxArgs: 1, isInput: true},
	"here":     {name: "here", minArgs: 0, maxArgs: 0, isInput: true},
	// Output externals.
	"send": {name: "send", minArgs: 2, maxArgs: 2, isOutput: true},
	"act":  {name: "act", minArgs: 1, maxArgs: -1, isOutput: true},
	// Control externals.
	"migrate": {name: "migrate", minArgs: 2, maxArgs: 2, isControl: true},
	"done":    {name: "done", minArgs: 0, maxArgs: 0, isControl: true},
}

func (s *externalSpec) checkArity(n int, p Pos) error {
	if n < s.minArgs || (s.maxArgs >= 0 && n > s.maxArgs) {
		return &SyntaxError{Pos: p, Msg: fmt.Sprintf("%s expects %s, got %d arguments",
			s.name, s.arityString(), n)}
	}
	return nil
}

func (s *externalSpec) arityString() string {
	switch {
	case s.maxArgs < 0:
		return fmt.Sprintf("at least %d", s.minArgs)
	case s.minArgs == s.maxArgs:
		return fmt.Sprintf("%d", s.minArgs)
	default:
		return fmt.Sprintf("%d to %d", s.minArgs, s.maxArgs)
	}
}
