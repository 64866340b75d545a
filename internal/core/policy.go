package core

// The verdict-policy layer. The paper treats a failed reference-state
// check as the *start* of a response — suspicion accumulates against a
// host and drives escalating consequences — where the seed platform
// reduced every verdict to one boolean (quarantine or continue). A
// VerdictPolicy consumes every verdict a node's mechanisms produce (OK
// verdicts included, so reputation-tracking policies see the full event
// stream) and decides the node's response. Implementations live in
// internal/policy; the interface lives here so the node pipeline can
// route verdicts without core depending on the policy package.

// Decision is a policy's response to one verdict.
type Decision struct {
	// Quarantine stops the agent at this node and keeps it for
	// evidence (the seed's only response to a failed check).
	Quarantine bool
	// Flag lets the agent continue but marks the journey flagged at
	// this node (visible in AgentStatus.Flags) — "a compromised agent
	// continues to work" becomes a deliberate, recorded choice instead
	// of a silent one.
	Flag bool
	// NotifyOwner publishes an owner-notice event (events.KindOwnerNotice:
	// agent, suspect, Reason) on the node's bus — the paper's "notify
	// the owner" consequence.
	NotifyOwner bool
	// Reason is a one-line explanation of the decision.
	Reason string
}

// VerdictPolicy decides the node's response to each verdict produced at
// the node. Decide may be called from multiple workers concurrently.
//
// AfterTask verdicts are routed through the policy for flagging and
// owner notification, but a Quarantine decision is only honoured for
// AfterSession verdicts: once the task has completed, the journey has
// nothing left to stop, and the terminal outcome stays "completed" with
// the failed verdict on record.
type VerdictPolicy interface {
	// Name identifies the policy in logs and status output.
	Name() string
	// Decide maps one verdict to the node's response. agentID is the
	// agent the verdict was produced for.
	Decide(agentID string, v Verdict) Decision
}

// HostReputation is a snapshot of one host's standing in a reputation
// ledger — the answer to a node/reputation call.
type HostReputation struct {
	Host string
	// Suspicion is the decay-weighted suspicion mass; 0 means clean,
	// and each failed check adds roughly its weight (default 1).
	Suspicion float64
	// Events counts all observations, Failures the failed ones.
	Events   int
	Failures int
	// UpdatedUnixNano is when the ledger last recorded an observation.
	UpdatedUnixNano int64
}

// ReputationReporter is an optional VerdictPolicy extension implemented
// by policies that maintain a per-host reputation ledger; the node's
// built-in node/reputation call is served through it.
type ReputationReporter interface {
	// HostReputation reports the ledger entry for host; ok is false if
	// the host has no recorded observations.
	HostReputation(host string) (HostReputation, bool)
}

// strictPolicy reproduces the seed default: quarantine on any failed
// check, no response otherwise.
type strictPolicy struct{}

func (strictPolicy) Name() string { return "strict" }

func (strictPolicy) Decide(_ string, v Verdict) Decision {
	if v.OK {
		return Decision{}
	}
	return Decision{Quarantine: true, NotifyOwner: true, Reason: "failed check quarantines (strict)"}
}

// policy resolves the node's verdict policy, falling back to the
// strict built-in that reproduces the seed behaviour.
func (n *Node) policy() VerdictPolicy {
	if n.cfg.Policy != nil {
		return n.cfg.Policy
	}
	return strictPolicy{}
}
