package policy

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/shardstore"
)

// Defaults for the reputation policy and the adaptive gate.
const (
	// DefaultQuarantineThreshold is the suspicion at which a failed
	// check quarantines instead of flagging: roughly "a repeat offender
	// within the decay window".
	DefaultQuarantineThreshold = 2.0
	// DefaultEscalateThreshold is the suspicion at which the adaptive
	// gate stops trusting a host and re-executes every one of its
	// sessions: one failed check within the decay window is enough.
	// The ledger's escalation event fires on the same crossing.
	DefaultEscalateThreshold = 0.5
	// DefaultAuditInterval is the baseline audit cadence of the
	// adaptive gate: every Kth session of a host is fully checked even
	// when its reputation is clean, so a host that only ever cheats
	// subtly (never tripping the cheap rules) is still caught within K
	// sessions.
	DefaultAuditInterval = 16
)

// ReputationConfig parameterizes the reputation policy.
type ReputationConfig struct {
	// Ledger is the per-host suspicion ledger; nil means a fresh
	// default ledger. Share one instance with the Gate and Gossip
	// mechanism of the same node.
	Ledger *Ledger
	// FirstOffenseQuarantines restores the strict behaviour for
	// deployments that want the ledger without leniency: every failed
	// check quarantines, reputation still accumulates and gossips.
	FirstOffenseQuarantines bool
}

// Reputation is a core.VerdictPolicy that fuses every verdict into the
// ledger and escalates consequences with accumulated suspicion: a first
// offense is flagged and reported to the owner; a repeat offender
// (suspicion at the quarantine threshold) is quarantined.
type Reputation struct {
	cfg ReputationConfig
}

var (
	_ core.VerdictPolicy      = (*Reputation)(nil)
	_ core.ReputationReporter = (*Reputation)(nil)
)

// NewReputation builds the policy.
func NewReputation(cfg ReputationConfig) *Reputation {
	if cfg.Ledger == nil {
		cfg.Ledger = NewLedger(LedgerConfig{})
	}
	return &Reputation{cfg: cfg}
}

// Ledger returns the policy's ledger, for sharing with the adaptive
// gate and the gossip mechanism.
func (p *Reputation) Ledger() *Ledger { return p.cfg.Ledger }

// Name implements core.VerdictPolicy.
func (p *Reputation) Name() string { return "reputation" }

// Decide implements core.VerdictPolicy.
func (p *Reputation) Decide(agentID string, v core.Verdict) core.Decision {
	subject := v.Suspect
	if v.OK && subject == "" {
		subject = v.CheckedHost
	}
	if v.OK {
		p.cfg.Ledger.Observe(subject, true, 0)
		return core.Decision{}
	}
	if subject == "" {
		// An unattributed failure (e.g. appraisal re-detecting damage
		// already on record): worth flagging and reporting, but there
		// is no principal to charge.
		return core.Decision{Flag: true, NotifyOwner: true, Reason: "unattributed failed check (no suspect named)"}
	}
	s := p.cfg.Ledger.Observe(subject, false, 0)
	if p.cfg.FirstOffenseQuarantines || s >= DefaultQuarantineThreshold {
		return core.Decision{
			Quarantine:  true,
			NotifyOwner: true,
			Reason:      fmt.Sprintf("suspicion %.2f against %s at/above quarantine threshold %.2f", s, subject, DefaultQuarantineThreshold),
		}
	}
	return core.Decision{
		Flag:        true,
		NotifyOwner: true,
		Reason:      fmt.Sprintf("first-offense leniency: suspicion %.2f against %s below threshold %.2f", s, subject, DefaultQuarantineThreshold),
	}
}

// HostReputation implements core.ReputationReporter.
func (p *Reputation) HostReputation(host string) (core.HostReputation, bool) {
	return p.cfg.Ledger.Report(host)
}

// GateConfig parameterizes the adaptive-checking gate.
type GateConfig struct {
	// Ledger supplies per-host suspicion; required.
	Ledger *Ledger
	// AuditInterval fully checks every Kth session of each host
	// regardless of reputation; 0 means DefaultAuditInterval, negative
	// disables baseline audits (reputation-only escalation).
	AuditInterval int
	// Bus, when non-nil, receives a level-escalation event each time
	// suspicion (not the baseline audit cadence) forces a full
	// re-execution check of a host's session.
	Bus *events.Bus
}

// Gate decides, per checked session, whether the adaptive protection
// level pays for the expensive check (re-execution) or trusts the cheap
// appraisal rules — the paper's suspicion-driven checking: "checks ...
// only when the owner suspects fraud", generalized to a continuous
// reputation instead of a one-shot hunch, plus a baseline audit cadence
// so subtle cheats are still caught eventually.
type Gate struct {
	cfg      GateConfig
	sessions *shardstore.Store[uint64]
}

// NewGate builds a gate over the shared ledger.
func NewGate(cfg GateConfig) *Gate {
	if cfg.Ledger == nil {
		cfg.Ledger = NewLedger(LedgerConfig{})
	}
	if cfg.AuditInterval == 0 {
		cfg.AuditInterval = DefaultAuditInterval
	}
	return &Gate{
		cfg:      cfg,
		sessions: shardstore.New[uint64](shardstore.Config[uint64]{Capacity: DefaultLedgerCapacity}),
	}
}

// Ledger returns the gate's ledger.
func (g *Gate) Ledger() *Ledger { return g.cfg.Ledger }

// ShouldReExecute reports whether the session just executed by host
// needs the full re-execution check. Suspicion at/above
// DefaultEscalateThreshold escalates every session; otherwise every
// AuditInterval-th session of the host is audited as a baseline.
func (g *Gate) ShouldReExecute(host string) bool {
	n := g.sessions.Upsert(host, func(old uint64, _ bool) uint64 { return old + 1 })
	if s := g.cfg.Ledger.Suspicion(host); s >= DefaultEscalateThreshold {
		if g.cfg.Bus != nil {
			g.cfg.Bus.Publish(events.Event{
				Kind:   events.KindLevelEscalation,
				Host:   host,
				Fields: map[string]string{"suspicion": fmt.Sprintf("%.3f", s)},
			})
		}
		return true
	}
	return g.cfg.AuditInterval > 0 && n%uint64(g.cfg.AuditInterval) == 0
}
