package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/agent"
)

// Result is the terminal outcome of an agent at one node. Exactly one
// node produces a terminal outcome per itinerary: the node where the
// agent finished its task, was quarantined, or failed processing.
// Forwarding an agent onward is not terminal.
type Result struct {
	// Agent is the agent as it was when the outcome was produced,
	// decoded from the receipt's record: each Receipt.Result call
	// returns a private copy the caller may change freely. Nil when
	// the outcome carries no agent (a receipt recovered after a
	// restart, evicted from the journal, or refused by a closed node).
	Agent *agent.Agent
	// Verdicts are the verdicts accumulated over the whole journey, as
	// Agent carries them.
	Verdicts []Verdict
	// Aborted reports that the agent was stopped by a detection.
	Aborted bool
	// Err is non-nil when processing failed (detection, refused agent,
	// forwarding failure, cancellation).
	Err error
}

// Receipt tracks one agent's outcome at one node. It is the
// asynchronous replacement for the old synchronous-chain contract:
// callers enqueue an agent (Node.Launch / transport delivery) and wait
// on the receipt of the node where the journey terminates.
//
// A resolved receipt holds the agent as its canonical encoding
// (agent.Encode), not as a decoded agent: a home keeps up to
// DefaultJournalLimit settled receipts, and a decoded agent — values, parsed
// code, copied baggage — costs several times its encoding. Result
// decodes on demand.
type Receipt struct {
	agentID string
	done    chan struct{}

	mu      sync.Mutex
	record  []byte // the agent's encoding; nil when the outcome carries none
	aborted bool
	err     error
	set     bool
}

func newReceipt(agentID string) *Receipt {
	return &Receipt{agentID: agentID, done: make(chan struct{})}
}

// AgentID returns the agent the receipt tracks.
func (r *Receipt) AgentID() string { return r.agentID }

// Done returns a channel closed when the agent reaches a terminal
// outcome at this node.
func (r *Receipt) Done() <-chan struct{} { return r.done }

// Result returns the terminal outcome and whether one has been
// produced yet. Every call decodes its own copy of the agent, outside
// the receipt's lock.
func (r *Receipt) Result() (Result, bool) {
	r.mu.Lock()
	record, res, set := r.record, Result{Aborted: r.aborted, Err: r.err}, r.set
	r.mu.Unlock()
	if record == nil {
		return res, set
	}
	ag, err := agent.Decode(record)
	if err != nil {
		res.Err = errors.Join(res.Err, fmt.Errorf("core: receipt for %s: %w", r.agentID, err))
		return res, set
	}
	res.Agent, res.Verdicts = ag, AgentVerdicts(ag)
	return res, set
}

// Wait blocks until the terminal outcome is available or ctx is done.
// On success it returns the outcome's Err, so `rc.Wait(ctx)` reads
// like the old synchronous Launch.
func (r *Receipt) Wait(ctx context.Context) (Result, error) {
	select {
	case <-r.done:
		res, _ := r.Result()
		return res, res.Err
	case <-ctx.Done():
		return Result{}, fmt.Errorf("core: waiting for agent %s: %w", r.agentID, ctx.Err())
	}
}

// resolve records the terminal outcome once — record is the agent's
// encoding, nil for an outcome without one; later calls (a journal
// eviction racing the outcome) are no-ops.
func (r *Receipt) resolve(record []byte, aborted bool, err error) {
	r.mu.Lock()
	if r.set {
		r.mu.Unlock()
		return
	}
	r.record, r.aborted, r.err = record, aborted, err
	r.set = true
	r.mu.Unlock()
	close(r.done)
}

// AwaitAny waits for the first of the given receipts to resolve —
// typically one receipt per node of a deployment, so the caller
// observes the itinerary's terminal outcome wherever it happens.
func AwaitAny(ctx context.Context, receipts ...*Receipt) (Result, error) {
	if len(receipts) == 0 {
		return Result{}, fmt.Errorf("core: AwaitAny: no receipts")
	}
	any := make(chan *Receipt, len(receipts))
	stop := make(chan struct{})
	defer close(stop)
	for _, rc := range receipts {
		rc := rc
		go func() {
			select {
			case <-rc.Done():
				select {
				case any <- rc:
				case <-stop:
				}
			case <-stop:
			}
		}()
	}
	select {
	case rc := <-any:
		res, _ := rc.Result()
		return res, res.Err
	case <-ctx.Done():
		return Result{}, fmt.Errorf("core: AwaitAny: %w", ctx.Err())
	}
}
