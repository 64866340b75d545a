package core

import (
	"errors"
	"fmt"

	"repro/internal/agentlang"
	"repro/internal/value"
)

// Checker is the pluggable checking algorithm (paper §3.5, "used
// checking algorithm"): rules, proofs, re-execution, or an arbitrary
// program. It examines a CheckContext and reports consistency.
//
// A Checker returns (ok, evidence, err): err signals that the check
// could not be carried out (missing reference data, undecodable
// baggage), which callers generally treat as suspicious in itself.
type Checker interface {
	Check(cc *CheckContext) (ok bool, evidence []string, err error)
}

// ProgramChecker adapts an arbitrary function — the paper's "arbitrary
// program" algorithm, "the most powerful algorithm as it includes the
// presented ones".
type ProgramChecker func(cc *CheckContext) (bool, []string, error)

var _ Checker = (ProgramChecker)(nil)

// Check implements Checker.
func (f ProgramChecker) Check(cc *CheckContext) (bool, []string, error) { return f(cc) }

// StateComparer compares a re-executed state against the claimed
// resulting state, returning whether they agree and a description of
// differences. The paper motivates pluggable comparison (§3.5: results
// whose element order depends on thread timing need "a certain compare
// method for resulting states").
type StateComparer func(reexecuted, claimed value.State) (bool, []string)

// StrictComparer requires exact equality of the two states.
func StrictComparer(reexecuted, claimed value.State) (bool, []string) {
	if reexecuted.Equal(claimed) {
		return true, nil
	}
	return false, reexecuted.Diff(claimed)
}

// UnorderedListComparer returns a comparer that treats the named state
// variables as multisets: their list elements may appear in any order.
// All other variables compare strictly. This implements the paper's
// example of an agent whose list ordering "depends on the timing of
// two threads".
func UnorderedListComparer(unorderedVars ...string) StateComparer {
	unordered := make(map[string]bool, len(unorderedVars))
	for _, v := range unorderedVars {
		unordered[v] = true
	}
	return func(reexecuted, claimed value.State) (bool, []string) {
		// Snapshots suffice: normalizeList only rebinds whole variables
		// to freshly built lists.
		a, b := reexecuted.Snapshot(), claimed.Snapshot()
		for name := range unordered {
			normalizeList(a, name)
			normalizeList(b, name)
		}
		return StrictComparer(a, b)
	}
}

func normalizeList(st value.State, name string) {
	v, ok := st[name]
	if !ok || v.Kind != value.KindList {
		return
	}
	sorted := make([]value.Value, len(v.List))
	copy(sorted, v.List)
	// Insertion sort by total order keeps this dependency-free and
	// stable for the short lists agents carry.
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].Compare(sorted[j-1]) < 0; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	st[name] = value.List(sorted...)
}

// ReExecChecker implements the re-execution algorithm (§3.5): run the
// agent's code from the packaged initial state, replaying the packaged
// input, and compare the outcome against the packaged resulting state.
// It needs initial state, input, and resulting state as reference data;
// mechanisms embedding it must declare the corresponding requester
// interfaces.
type ReExecChecker struct {
	// Compare is the state comparison; nil means StrictComparer.
	Compare StateComparer
	// Hook observes the re-execution (the benchmark harness attaches a
	// procedure timer here: the paper's Table 2 "cycle" column includes
	// the checking re-execution's computation).
	Hook agentlang.Hook
}

var _ Checker = (*ReExecChecker)(nil)

// Check implements Checker.
func (r *ReExecChecker) Check(cc *CheckContext) (bool, []string, error) {
	initial, err := cc.InitialState()
	if err != nil {
		return false, nil, err
	}
	input, err := cc.Input()
	if err != nil {
		return false, nil, err
	}
	claimed, err := cc.ResultingState()
	if err != nil {
		return false, nil, err
	}
	pkg := cc.Package()
	if pkg.Entry == "" {
		return false, nil, errors.New("core: reference package has no entry procedure")
	}
	prog, err := cc.Agent.Program()
	if err != nil {
		return false, nil, fmt.Errorf("core: re-execution: %w", err)
	}

	// A copy-on-write snapshot instead of a deep clone: the live session
	// ran on a state flagged by RunSession's own snapshot, so the
	// re-execution sees the same copy-on-write behaviour — and the
	// packaged initial state stays intact for later evidence.
	working := initial.Snapshot()
	replay := agentlang.NewReplayEnv(input)
	outcome, err := agentlang.Run(prog, pkg.Entry, working, replay, agentlang.Options{Hook: r.Hook})
	if err != nil {
		// Replay divergence: the (initial state, input, code) triple is
		// inconsistent with itself — the session as reported cannot have
		// happened.
		return false, []string{fmt.Sprintf("re-execution failed: %v", err)}, nil
	}
	var evidence []string
	if replay.Remaining() != 0 {
		evidence = append(evidence, fmt.Sprintf(
			"reported input has %d records the re-execution never consumed", replay.Remaining()))
	}
	// The execution state transition must match, too: an attacker could
	// otherwise redirect the agent to a different entry procedure.
	reexecEntry := ""
	if outcome.Kind == agentlang.OutcomeMigrated {
		reexecEntry = outcome.MigrateEntry
	}
	if reexecEntry != pkg.ResultEntry {
		evidence = append(evidence, fmt.Sprintf(
			"execution state mismatch: re-execution continues at %q, reported %q",
			reexecEntry, pkg.ResultEntry))
	}
	compare := r.Compare
	if compare == nil {
		compare = StrictComparer
	}
	ok, diffs := compare(working, claimed)
	if !ok {
		for _, d := range diffs {
			evidence = append(evidence, "state mismatch: "+d)
		}
	}
	return ok && len(evidence) == 0, evidence, nil
}
