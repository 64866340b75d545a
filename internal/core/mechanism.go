package core

import (
	"context"

	"repro/internal/agent"
	"repro/internal/host"
	"repro/internal/transport"
)

// HostContext gives a mechanism access to the host it is running on and
// the network, for protocol calls to other hosts (trace fetches, vote
// exchanges, partner confirmation).
type HostContext struct {
	Host *host.Host
	Net  transport.Network
}

// Mechanism is a protection mechanism plugged into the platform. The
// lifecycle maps onto the paper's callbacks:
//
//   - CheckAfterSession runs as the first action when an agent arrives,
//     before the local session — checking the *previous* host's session
//     ("it is called as the first action on the next host, as it would
//     be useless to check a session on the same host", §5).
//   - PrepareDeparture runs after the local session, before migration;
//     here the mechanism attaches reference data to the agent.
//   - CheckAfterTask runs on the final host after the last session.
//
// A mechanism returns a nil *Verdict when it has nothing to report
// (e.g. first hop, or the mechanism only checks at the other moment).
//
// Every lifecycle method takes a context.Context carrying the
// processing deadline and cancellation of the delivery being handled.
// Mechanism authors must pass ctx to any network call (hc.Net) and
// should honour cancellation between expensive steps; they must not
// retain ctx beyond the call.
type Mechanism interface {
	// Name identifies the mechanism; also used as its baggage key.
	Name() string
	// CheckAfterSession examines the previous session's execution.
	CheckAfterSession(ctx context.Context, hc *HostContext, ag *agent.Agent) (*Verdict, error)
	// PrepareDeparture attaches whatever the mechanism needs to check
	// the session later. rec is the host-side ground truth of the
	// session just executed (possibly tampered by a malicious host).
	PrepareDeparture(ctx context.Context, hc *HostContext, ag *agent.Agent, rec *host.SessionRecord) error
	// CheckAfterTask examines the whole journey on the final host.
	CheckAfterTask(ctx context.Context, hc *HostContext, ag *agent.Agent, rec *host.SessionRecord) (*Verdict, error)
}

// CallHandler is an optional Mechanism extension for mechanisms that
// answer protocol calls from other hosts (e.g. trace fetches in the
// vigna mechanism, vote collection in replication).
type CallHandler interface {
	// HandleCall services a method addressed to this mechanism. ctx is
	// the serving node's request context.
	HandleCall(ctx context.Context, hc *HostContext, method string, body []byte) ([]byte, error)
}

// StayEnder is an optional Mechanism extension for mechanisms that keep
// per-agent state from an agent's arrival to its departure. A stay that
// ends in a forward ends in PrepareDeparture; for every other stay —
// the agent completed here, was quarantined, or its processing failed —
// the node calls EndStay once, before it reports the outcome.
type StayEnder interface {
	EndStay(hc *HostContext, ag *agent.Agent)
}

// BaseMechanism provides no-op lifecycle methods; mechanisms embed it
// and override what they use.
type BaseMechanism struct{}

// CheckAfterSession implements Mechanism with no check.
func (BaseMechanism) CheckAfterSession(context.Context, *HostContext, *agent.Agent) (*Verdict, error) {
	return nil, nil
}

// PrepareDeparture implements Mechanism with no preparation.
func (BaseMechanism) PrepareDeparture(context.Context, *HostContext, *agent.Agent, *host.SessionRecord) error {
	return nil
}

// CheckAfterTask implements Mechanism with no check.
func (BaseMechanism) CheckAfterTask(context.Context, *HostContext, *agent.Agent, *host.SessionRecord) (*Verdict, error) {
	return nil, nil
}
