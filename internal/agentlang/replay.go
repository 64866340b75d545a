package agentlang

import (
	"fmt"

	"repro/internal/value"
)

// InputRecord is one recorded input event: an input external call, its
// arguments, and the result the environment returned. A session's
// ordered sequence of InputRecords is "the input" in the paper's sense
// (§2.3): everything needed to reproduce the execution.
type InputRecord struct {
	Seq    int
	Call   string
	Args   []value.Value
	Result value.Value
}

// RecordingEnv wraps an inner environment and records every input
// result. Hosts use it to build the session input log.
type RecordingEnv struct {
	Inner   Env
	Records []InputRecord
}

var _ Env = (*RecordingEnv)(nil)

// Input services the call through the inner environment and appends
// the result to the log.
func (e *RecordingEnv) Input(call string, args []value.Value) (value.Value, error) {
	v, err := e.Inner.Input(call, args)
	if err != nil {
		return value.Null(), err
	}
	cloned := make([]value.Value, len(args))
	for i, a := range args {
		cloned[i] = a.Clone()
	}
	e.Records = append(e.Records, InputRecord{
		Seq:    len(e.Records),
		Call:   call,
		Args:   cloned,
		Result: v.Clone(),
	})
	return v, nil
}

// Output passes output actions through unchanged.
func (e *RecordingEnv) Output(action string, args []value.Value) error {
	return e.Inner.Output(action, args)
}

// ReplayEnv replays a recorded input log and suppresses output actions.
// It is the environment checking hosts use for re-execution (paper §5:
// "the code has to be executed a second time using the input taken
// from the reference input data", "output actions can be suppressed").
//
// Replay is strict: if the executing code requests a different input
// call than the log's next record, the execution has diverged from the
// recorded one and replay fails. A divergence is not by itself proof of
// an attack — a malicious host may also have tampered with the log —
// but it always means the (state, input, code) triple is inconsistent.
type ReplayEnv struct {
	records []InputRecord
	next    int
	// Outputs collects the output actions the re-executed agent
	// attempted, for checkers that want to compare them.
	Outputs []OutputRecord
}

var _ Env = (*ReplayEnv)(nil)

// OutputRecord is one output action an agent performed or attempted.
type OutputRecord struct {
	Action string
	Args   []value.Value
}

// NewReplayEnv builds a replay environment over a recorded input log.
func NewReplayEnv(records []InputRecord) *ReplayEnv {
	return &ReplayEnv{records: records}
}

// Input returns the next recorded result, verifying that the replayed
// execution asks for the same call with the same arguments.
func (e *ReplayEnv) Input(call string, args []value.Value) (value.Value, error) {
	if e.next >= len(e.records) {
		return value.Null(), fmt.Errorf("%w: call %d (%s)", ErrInputExhausted, e.next, call)
	}
	rec := e.records[e.next]
	if rec.Call != call {
		return value.Null(), fmt.Errorf("agentlang: replay divergence at input %d: recorded %s, requested %s",
			e.next, rec.Call, call)
	}
	if len(rec.Args) != len(args) {
		return value.Null(), fmt.Errorf("agentlang: replay divergence at input %d (%s): argument count %d vs %d",
			e.next, call, len(rec.Args), len(args))
	}
	for i := range args {
		if !rec.Args[i].Equal(args[i]) {
			return value.Null(), fmt.Errorf("agentlang: replay divergence at input %d (%s): argument %d is %s, recorded %s",
				e.next, call, i, args[i], rec.Args[i])
		}
	}
	e.next++
	return rec.Result.Clone(), nil
}

// Output suppresses the action, recording it for inspection.
func (e *ReplayEnv) Output(action string, args []value.Value) error {
	cloned := make([]value.Value, len(args))
	for i, a := range args {
		cloned[i] = a.Clone()
	}
	e.Outputs = append(e.Outputs, OutputRecord{Action: action, Args: cloned})
	return nil
}

// Remaining reports how many recorded inputs were not consumed. A
// nonzero value after a completed replay is itself a divergence: the
// recorded execution consumed more input than the replayed one.
func (e *ReplayEnv) Remaining() int { return len(e.records) - e.next }
