package planner

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
)

// The Executor's attempt bound when MaxAttempts is zero, and its
// spillover wait.
const (
	// DefaultMaxAttempts bounds plan/execute/replan cycles per
	// itinerary.
	DefaultMaxAttempts = 8
	// DefaultBackoff is the base wait before relaunching after a
	// spillover (mailbox-full); it doubles per spilled attempt so a
	// saturated fleet drains instead of thrashing.
	DefaultBackoff = 5 * time.Millisecond
)

// Fleet is the executor's view of the deployment: launch a wire agent
// at a home and watch a node's receipt for an agent. NodeFleet adapts
// an in-process node map; remote deployments adapt their transport.
type Fleet interface {
	// Launch delivers the marshalled agent to the named home node.
	Launch(ctx context.Context, home string, wire []byte) error
	// Watch returns the receipt for agentID at the named host, or nil
	// when the host is not part of this fleet view.
	Watch(host, agentID string) *core.Receipt
}

// NodeFleet is the in-process Fleet over a name->node map.
type NodeFleet map[string]*core.Node

// Launch implements Fleet.
func (f NodeFleet) Launch(ctx context.Context, home string, wire []byte) error {
	n, ok := f[home]
	if !ok {
		return fmt.Errorf("planner: unknown home %q", home)
	}
	return n.HandleAgent(ctx, wire)
}

// Watch implements Fleet.
func (f NodeFleet) Watch(host, agentID string) *core.Receipt {
	n, ok := f[host]
	if !ok {
		return nil
	}
	return n.Watch(agentID)
}

// Executor drives itineraries through plan / execute-step / replan-on-
// divergence: each attempt plans a concrete route, builds and launches
// the agent, awaits the terminal receipt, and classifies any failure
// into the planner adjustment it deserves — ban the host an admission
// refusal shunned, spike the overloaded hop a mailbox-full named, ban
// the suspect of a mid-journey quarantine or the unreachable next hop
// — then replans with a fresh agent identity. Safe for concurrent
// Execute calls sharing one planner.
type Executor struct {
	Planner *Planner
	Fleet   Fleet
	// Build compiles an itinerary attempt into a launchable agent: the
	// attempt's agent ID and the planned route (home excluded).
	Build func(agentID string, route []string) ([]byte, error)
	// MaxAttempts bounds replans per itinerary; 0 means
	// DefaultMaxAttempts.
	MaxAttempts int
}

// RunResult is one itinerary's execution ledger.
type RunResult struct {
	ItineraryID string
	// Route is the last planned route; AgentIDs lists every attempt's
	// agent identity, in order.
	Route    []string
	AgentIDs []string
	// Attempts counts launches; Replans counts route changes forced by
	// divergence; Spillovers counts mailbox-full/intake-refused
	// relaunches; AdmissionRefusals counts attempts shed by a remote
	// admission policy; Quarantines counts mid-journey detections the
	// executor replanned around.
	Attempts          int
	Replans           int
	Spillovers        int
	AdmissionRefusals int
	Quarantines       int
	// ShedAgentIDs lists the agent identities whose attempt ended in an
	// admission refusal — the journeys the fleet refused to even check,
	// which scale gating must count as shed rather than undetected.
	ShedAgentIDs []string
	// Completed reports the itinerary finished cleanly; Err is the
	// terminal error otherwise.
	Completed bool
	Err       error
}

func (e *Executor) maxAttempts() int {
	if e.MaxAttempts > 0 {
		return e.MaxAttempts
	}
	return DefaultMaxAttempts
}

func (e *Executor) sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// Execute runs one itinerary to completion or terminal failure.
func (e *Executor) Execute(ctx context.Context, it Itinerary) RunResult {
	res := RunResult{ItineraryID: it.ID}
	home := e.Planner.cfg.Home
	backoff := DefaultBackoff
	for attempt := 0; attempt < e.maxAttempts(); attempt++ {
		route, err := e.Planner.PlanRoute(it)
		if err != nil {
			res.Err = err
			return res
		}
		res.Route = route
		agentID := it.ID
		if attempt > 0 {
			agentID = fmt.Sprintf("%s.r%d", it.ID, attempt)
		}
		res.AgentIDs = append(res.AgentIDs, agentID)
		res.Attempts++
		out, err := e.runAttempt(ctx, home, agentID, route)
		if err == nil {
			// Receipt-fed load feedback: attribute the journey's wall
			// time evenly over its hops (the only per-host signal a
			// terminal receipt carries).
			per := out.elapsed / time.Duration(len(route)+1)
			for _, h := range route {
				e.Planner.ObserveLatency(h, per)
			}
			res.Completed = true
			return res
		}
		divergence, terminal := e.classify(home, agentID, out, err, &res)
		if terminal {
			res.Err = err
			return res
		}
		res.Replans++
		if divergence == divergeSpillover {
			// Spilled-over attempts don't count as route divergence in
			// the same sense, but they do relaunch; wait out some queue
			// drain first.
			e.sleep(ctx, backoff)
			if backoff < 128*DefaultBackoff {
				backoff *= 2
			}
		}
		if ctx.Err() != nil {
			res.Err = fmt.Errorf("planner: itinerary %s: %w", it.ID, ctx.Err())
			return res
		}
	}
	if res.Err == nil {
		res.Err = fmt.Errorf("planner: itinerary %s: %d attempts exhausted", it.ID, res.Attempts)
	}
	return res
}

// attemptOutcome carries one attempt's observable result.
type attemptOutcome struct {
	result  core.Result
	elapsed time.Duration
}

// runAttempt builds, launches, and awaits one attempt.
func (e *Executor) runAttempt(ctx context.Context, home, agentID string, route []string) (attemptOutcome, error) {
	wire, err := e.Build(agentID, route)
	if err != nil {
		return attemptOutcome{}, fmt.Errorf("planner: building %s: %w", agentID, err)
	}
	receipts := make([]*core.Receipt, 0, len(route)+1)
	if rc := e.Fleet.Watch(home, agentID); rc != nil {
		receipts = append(receipts, rc)
	}
	for _, h := range route {
		if rc := e.Fleet.Watch(h, agentID); rc != nil {
			receipts = append(receipts, rc)
		}
	}
	start := time.Now()
	if err := e.Fleet.Launch(ctx, home, wire); err != nil {
		return attemptOutcome{elapsed: time.Since(start)}, err
	}
	out, err := core.AwaitAny(ctx, receipts...)
	return attemptOutcome{result: out, elapsed: time.Since(start)}, err
}

// divergence kinds classify drives the replan decision on.
const (
	divergeNone = iota
	divergeSpillover
	divergeBan
)

// classify maps one attempt's failure onto the planner adjustment it
// deserves and reports whether the failure is terminal. The three-way
// attribution is the point of the structured errors: an admission
// refusal bans the *sender* the fleet shunned, a mailbox-full spikes
// load on the *receiver* that was full (transient — it earns traffic
// back as the spike decays), a detection bans the verdict's suspect,
// and a dead wire bans the unreachable hop.
func (e *Executor) classify(home, agentID string, out attemptOutcome, err error, res *RunResult) (int, bool) {
	var fe *core.ForwardError
	feOK := errors.As(err, &fe)
	switch {
	case errors.Is(err, core.ErrAdmissionRefused):
		res.AdmissionRefusals++
		res.ShedAgentIDs = append(res.ShedAgentIDs, agentID)
		if !feOK || fe.From == "" || fe.From == home {
			// The fleet is shunning the home itself (or the refusal
			// lost its attribution): no replan can fix that.
			return divergeNone, true
		}
		e.Planner.Ban(fe.From)
		return divergeBan, false
	case errors.Is(err, core.ErrIntakeFull):
		// The overloaded node: the forward's destination, or the node a
		// local launch found full.
		res.Spillovers++
		var ire *core.IntakeRefusedError
		if feOK {
			e.Planner.ObserveOverload(fe.To)
		} else if errors.As(err, &ire) {
			e.Planner.ObserveOverload(ire.Node)
		}
		return divergeSpillover, false
	case errors.Is(err, core.ErrDetection):
		res.Quarantines++
		suspect := lastSuspect(out.result.Verdicts)
		if suspect == "" || suspect == home {
			return divergeNone, true
		}
		e.Planner.Ban(suspect)
		return divergeBan, false
	case feOK:
		// Transport-level failure: the next hop is down, partitioned,
		// or otherwise unreachable. Route around it.
		if fe.To == "" || fe.To == home {
			return divergeNone, true
		}
		e.Planner.Ban(fe.To)
		return divergeBan, false
	default:
		return divergeNone, true
	}
}

// lastSuspect reads the most recent failed verdict's suspect.
func lastSuspect(vs []core.Verdict) string {
	for i := len(vs) - 1; i >= 0; i-- {
		if !vs[i].OK {
			return vs[i].Suspect
		}
	}
	return ""
}
