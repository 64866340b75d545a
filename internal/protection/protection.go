// Package protection assembles mechanism stacks for the protection
// levels spanned by the framework's attribute space (paper §4.1). The
// agent programmer picks a Level; the platform instantiates the
// matching mechanisms on every node.
//
// The levels trace the paper's "protection bandwidth":
//
//   - LevelNone: nothing — the unprotected baseline.
//   - LevelSigned: whole-agent signatures only (the paper's "plain"
//     measurement configuration: "without using the protocol (but
//     being signed and verified as a whole)"): refproto's seal alone,
//     one signature per hop over the whole agent and no checker.
//   - LevelRules: the seal + state appraisal ("the lower end of the
//     protection scale ... uses only the resulting agent state, and
//     employs rules").
//   - LevelTraces: the seal + Vigna traces (suspicion-driven owner
//     audit; requires trace-recording hosts — internal/fleet turns
//     recording on for any stack whose mechanisms request the
//     execution log).
//   - LevelFull: the example mechanism ("the higher end": every
//     session checked by the next host via re-execution), the seal
//     with its checker. The seal's one signature per hop is the same
//     at every signed level.
//   - LevelAdaptive: reputation gossip and appraisal rules inside the
//     example mechanism, whose one signature per hop covers them, with
//     its re-execution behind a reputation gate — cheap rules against
//     hosts in good standing, escalating to full re-execution when the
//     executing host's suspicion crosses the gate threshold (plus a
//     baseline audit cadence). The paper's suspicion-driven checking as
//     a first-class preset; see internal/policy.
//
// Levels are independent presets, not a strict subset chain; custom
// combinations can always be assembled by hand from the mechanism
// packages.
package protection

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"repro/internal/agentlang"
	appraisalpkg "repro/internal/appraisal"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/policy"
	"repro/internal/refproto"
	"repro/internal/shardstore"
	"repro/internal/stopwatch"
	"repro/internal/vigna"
)

// newVigna builds the traces mechanism, durable under
// Options.DataDir/vigna when a data dir is set.
func newVigna(opts Options) (*vigna.Mechanism, error) {
	if opts.DataDir == "" {
		return vigna.New(), nil
	}
	backend, err := shardstore.OpenWAL(filepath.Join(opts.DataDir, "vigna"), shardstore.WALConfig{})
	if err != nil {
		return nil, fmt.Errorf("protection: opening vigna wal: %w", err)
	}
	return vigna.NewDurable(backend, opts.OnPersistError)
}

// Level selects a protection preset.
type Level int

// The presets, ordered by increasing protection.
const (
	LevelNone Level = iota + 1
	LevelSigned
	LevelRules
	LevelTraces
	LevelFull
	LevelAdaptive
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelNone:
		return "none"
	case LevelSigned:
		return "signed"
	case LevelRules:
		return "rules"
	case LevelTraces:
		return "traces"
	case LevelFull:
		return "full"
	case LevelAdaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// ParseLevel converts a string (as used by command-line flags).
func ParseLevel(s string) (Level, error) {
	for _, l := range []Level{LevelNone, LevelSigned, LevelRules, LevelTraces, LevelFull, LevelAdaptive} {
		if l.String() == s {
			return l, nil
		}
	}
	return 0, fmt.Errorf("protection: unknown level %q (want none|signed|rules|traces|full|adaptive)", s)
}

// Options carries per-level parameters.
type Options struct {
	// Timer receives sign&verify time accounting; may be nil.
	Timer *stopwatch.PhaseTimer
	// ExecHook observes checking re-executions (benchmark phase
	// timing); may be nil.
	ExecHook agentlang.Hook
	// AdaptivePolicy tunes LevelAdaptive's reputation policy (ledger,
	// quarantine threshold); zero values select the policy package
	// defaults. Other levels ignore it.
	AdaptivePolicy policy.ReputationConfig
	// DataDir makes the stack's durable protection state persistent
	// under this directory: LevelAdaptive's reputation ledger (ledger/)
	// and LevelTraces' retained trace packages (vigna/) are WAL-backed
	// and replayed on Assemble. Empty keeps them in memory. Pair it
	// with core.NodeConfig.DataDir (the same per-node directory works
	// for both — the subdirectories do not collide); see
	// docs/OPERATIONS.md.
	DataDir string
	// Clock overrides the stack's clock for LevelAdaptive: the
	// default-built ledger's decay clock and the gossip mechanism's
	// extract timestamps. Campaign harnesses on virtual time set it;
	// nil means time.Now. A caller-supplied AdaptivePolicy ledger keeps
	// its own Now — only gossip adopts the clock then.
	Clock func() time.Time
	// OnPersistError receives the stack's durable-state write failures
	// (the adaptive ledger WAL and vigna's trace retention WAL; each
	// fires once, then its store is degraded to memory-only). Nil means
	// failures are silent. fleet.Open points it at the node's
	// Node.NotePersistError, so the stack's failures and the node's own
	// stores' report through one channel: node/health and the bus
	// (events.KindPersistError).
	OnPersistError func(error)
	// Events, when non-nil, is the node's event bus: LevelAdaptive's
	// ledger publishes escalation crossings, its gate level-escalation
	// decisions, and its gossip mechanism merge/exchange/cooldown
	// outcomes. Pair it with core.NodeConfig.Events (the pipeline
	// wrapping the same bus). A caller-supplied AdaptivePolicy ledger
	// keeps its own bus wiring — only the gate and gossip adopt this
	// one then. Other levels ignore it.
	Events *events.Bus
	// AdmissionThreshold, when positive, builds a ledger-backed
	// admission policy into LevelAdaptive's stack: deliveries from
	// hosts whose suspicion on this node's ledger is at/above the
	// threshold are refused before intake (wire Stack.Admission into
	// core.NodeConfig.Admission). 0 disables admission control. Other
	// levels ignore it — admission is priced off the adaptive ledger.
	AdmissionThreshold float64
	// LedgerHalfLife overrides the suspicion decay half-life of the
	// ledger LevelAdaptive builds here (0 = policy.DefaultHalfLife,
	// negative disables decay). Ignored when the caller supplies its
	// own ledger. Adversary campaigns treat this as an attack surface:
	// a short half-life is what a threshold-evading adversary rides.
	LedgerHalfLife time.Duration
}

// Stack is one node's protection assembly: the mechanism list plus the
// verdict policy driving the node's response to each verdict. For
// LevelAdaptive the reputation ledger and escalation gate behind the
// policy are exposed for inspection (benchmarks, status calls).
type Stack struct {
	Mechanisms []core.Mechanism
	// Policy is the node's verdict policy; nil selects the core's
	// strict built-in.
	Policy core.VerdictPolicy
	// Ledger, Gate, and Gossip are non-nil only for LevelAdaptive.
	// Gossip is exposed so deployments can wire the node's anti-entropy
	// exchange (core.NodeConfig.Exchange starts it through the
	// mechanism; Stack.Close stops it with the rest of the stack) and
	// inspect its stats.
	Ledger *policy.Ledger
	Gate   *policy.Gate
	Gossip *policy.Gossip
	// Admission is the ledger-backed admission policy, non-nil only for
	// LevelAdaptive with Options.AdmissionThreshold > 0; wire it into
	// core.NodeConfig.Admission.
	Admission core.AdmissionPolicy
}

// Close flushes and releases the stack's durable state: the adaptive
// ledger and any mechanism holding a persistence backend (vigna's
// retained-package store). A no-op for memory-only stacks. Call it
// after the owning node's Close, once no mechanism can be invoked.
func (s Stack) Close() error {
	var errs []error
	if s.Ledger != nil {
		errs = append(errs, s.Ledger.Close())
	}
	for _, m := range s.Mechanisms {
		if c, ok := m.(io.Closer); ok {
			errs = append(errs, c.Close())
		}
	}
	return errors.Join(errs...)
}

// Assemble builds a fresh per-node protection stack for the level.
// Call once per node: mechanism instances (and the adaptive level's
// ledger) hold per-node state. Cross-node suspicion still propagates —
// as signed gossip in agent baggage, not shared memory.
func Assemble(l Level, opts Options) (Stack, error) {
	switch l {
	case LevelNone:
		return Stack{}, nil
	case LevelSigned:
		return Stack{Mechanisms: refproto.Sealed(refproto.Config{Timer: opts.Timer})}, nil
	case LevelRules:
		return Stack{Mechanisms: refproto.Sealed(refproto.Config{Timer: opts.Timer}, appraisalpkg.New())}, nil
	case LevelTraces:
		v, err := newVigna(opts)
		if err != nil {
			return Stack{}, err
		}
		return Stack{Mechanisms: refproto.Sealed(refproto.Config{Timer: opts.Timer}, v)}, nil
	case LevelFull:
		return Stack{Mechanisms: refproto.New(refproto.Config{Timer: opts.Timer, ExecHook: opts.ExecHook})}, nil
	case LevelAdaptive:
		// One ledger per node, shared by the policy (writes suspicion),
		// the gossip mechanism (imports/exports it), and the gate
		// (reads it to price the next check).
		led := opts.AdaptivePolicy.Ledger
		if led == nil {
			lcfg := policy.LedgerConfig{
				Now:            opts.Clock,
				OnPersistError: opts.OnPersistError,
				Bus:            opts.Events,
				HalfLife:       opts.LedgerHalfLife,
			}
			if opts.DataDir != "" {
				backend, err := shardstore.OpenWAL(filepath.Join(opts.DataDir, "ledger"), shardstore.WALConfig{})
				if err != nil {
					return Stack{}, fmt.Errorf("protection: opening ledger wal: %w", err)
				}
				lcfg.Backend = backend
			}
			var err error
			led, err = policy.OpenLedger(lcfg)
			if err != nil {
				return Stack{}, err
			}
		}
		pcfg := opts.AdaptivePolicy
		pcfg.Ledger = led
		gate := policy.NewGate(policy.GateConfig{Ledger: led, Bus: opts.Events})
		// Onion order: refproto's seal outermost (its departure
		// signature, the hop's one, covers the gossip, the rules and the
		// verdict record; its arrival check verifies it first), gossip
		// next so imported suspicion is in the ledger before this
		// arrival's own verdicts are priced, then the cheap rules, then
		// refproto's checker with the gated re-execution.
		gossip := policy.NewGossip(led)
		if opts.Clock != nil {
			gossip.SetClock(opts.Clock)
		}
		gossip.SetBus(opts.Events)
		// Urgent piggybacking fires exactly at the policy's quarantine
		// threshold: a detection severe enough to quarantine is the one
		// detection a calling peer should hear about in the same RPC.
		gossip.SetUrgentThreshold(policy.DefaultQuarantineThreshold)
		mechs := refproto.New(refproto.Config{
			Timer: opts.Timer, ExecHook: opts.ExecHook, ReExecGate: gate.ShouldReExecute,
		}, gossip, appraisalpkg.New())
		st := Stack{Mechanisms: mechs, Policy: policy.NewReputation(pcfg), Ledger: led, Gate: gate, Gossip: gossip}
		if opts.AdmissionThreshold > 0 {
			// Admission reads the same ledger the gate prices checks
			// from: one body of evidence, escalating consequences —
			// check harder at 0.5, refuse intake at the admission
			// threshold, quarantine at 2.0.
			st.Admission = policy.NewAdmission(policy.AdmissionConfig{
				Ledger:          led,
				RefuseThreshold: opts.AdmissionThreshold,
			})
		}
		return st, nil
	default:
		return Stack{}, fmt.Errorf("protection: unknown level %d", int(l))
	}
}
