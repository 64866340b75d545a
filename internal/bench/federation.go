package bench

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/host"
	"repro/internal/policy"
	"repro/internal/protection"
)

// The federation A/B: the disjoint-traffic fleet geometry (two
// sub-fleets whose agents never cross; RunConvergence is its flat arm
// alone), run twice at equal fleet size — once flat (every node
// exchanges across the whole membership) and once hierarchical (one
// aggregator per sub-fleet; members exchange only with aggregators,
// aggregators among themselves) — measuring rounds AND total exchange
// messages until the oblivious sub-fleet's gates escalate. The flat
// mesh needs O(N²) pairwise conversations for guaranteed coverage;
// the hierarchy needs O(N + A²), and the message counter is where that
// shows up at equal convergence quality. The run also probes the
// urgent-extract piggyback: a fresh quarantine-level detection at an
// aggregator must reach a member in exactly one RPC, riding the reply
// envelope of that member's next (single) exchange call.

// FederationConfig parameterizes the A/B. The zero value is the
// benchtables default: 7 hosts per sub-fleet (16 nodes with the two
// homes) — large enough that flat-mesh partner roulette costs real
// messages, small enough for CI.
type FederationConfig struct {
	// SubFleetHosts is the untrusted host count per sub-fleet; 0 means 7.
	SubFleetHosts int
	// Agents is the itinerary count per sub-fleet; 0 means 3.
	Agents int
	// Cycles is the per-session computation; 0 means 2.
	Cycles int
	// Budget is the per-round exchange entry budget; 0 means the
	// platform default (aggregators get the 4x aggregator budget).
	Budget int
	// MaxRounds bounds the synchronized rounds per arm; 0 means 32.
	MaxRounds int
	// Workers is the per-node worker count; 0 means core.DefaultWorkers.
	Workers int
}

// FederationArm is one mode's outcome.
type FederationArm struct {
	// Mode is "flat" or "hierarchical".
	Mode string
	// Rounds is the number of stepping passes started before every
	// remote node crossed the escalation threshold (a pass cut short by
	// convergence still counts as one).
	Rounds int
	// Messages is the total exchange RPCs the fleet issued before
	// convergence — the number every node's loop stats report summed,
	// wasted pair-roulette included.
	Messages int
	// Converged is false if MaxRounds ran out.
	Converged bool
	// SeedSuspicion / MinRemoteSuspicion mirror ConvergenceResult.
	SeedSuspicion      float64
	MinRemoteSuspicion float64
	// Elapsed is the wall time of the exchange phase.
	Elapsed time.Duration
}

// FederationResult is the A/B outcome plus the urgent-piggyback probe.
type FederationResult struct {
	// FleetNodes is the per-arm node count (both arms equal).
	FleetNodes int
	// Aggregators names the hierarchical arm's aggregator nodes.
	Aggregators  []string
	Flat         FederationArm
	Hierarchical FederationArm
	// UrgentExposureRPCs is the number of RPCs a member needed before a
	// fresh quarantine-level detection at its aggregator reached its
	// ledger — the piggyback's claim is exactly 1.
	UrgentExposureRPCs int
	// UrgentEnvelopeMerges counts entries the probing member merged off
	// reply envelopes (non-zero proves the envelope path engaged, not
	// just the delta pull).
	UrgentEnvelopeMerges int64
	// UrgentLearned reports the member crossed the escalation threshold
	// for the probe host after those RPCs.
	UrgentLearned bool
}

// RunFederation runs both arms and the urgent probe.
func RunFederation(cfg FederationConfig) (FederationResult, error) {
	if cfg.SubFleetHosts <= 0 {
		cfg.SubFleetHosts = 7
	}
	res := FederationResult{
		FleetNodes:  2 + 2*cfg.SubFleetHosts,
		Aggregators: []string{"homeA", "homeB"},
	}
	flat, _, err := runFederationArm(cfg, false)
	if err != nil {
		return res, fmt.Errorf("bench: federation flat arm: %w", err)
	}
	res.Flat = flat
	hier, probe, err := runFederationArm(cfg, true)
	if err != nil {
		return res, fmt.Errorf("bench: federation hierarchical arm: %w", err)
	}
	res.Hierarchical = hier
	res.UrgentExposureRPCs = probe.rpcs
	res.UrgentEnvelopeMerges = probe.envelopeMerges
	res.UrgentLearned = probe.learned
	return res, nil
}

// urgentProbe is the piggyback measurement taken on the hierarchical
// arm's fleet after convergence, before teardown.
type urgentProbe struct {
	rpcs           int
	envelopeMerges int64
	learned        bool
}

// disjointFleet is the deployment RunConvergence and both federation
// arms measure, after its traffic phase: two sub-fleets whose agents
// never cross, sub-fleet A's first host tampering.
type disjointFleet struct {
	*fleet.Fleet
	ctx context.Context // bounds the whole run
	// malicious is the cheater; all the one exchange membership
	// (aggregators first); remote the oblivious sub-fleet, its home
	// first.
	malicious   string
	all, remote []string
	// seed is the highest first-hand suspicion sub-fleet A holds after
	// the traffic phase; clean that no remote node had crossed the
	// gate's escalation threshold before any exchange round.
	seed  float64
	clean bool
}

func (d *disjointFleet) ledger(name string) *policy.Ledger { return d.Member(name).Stack.Ledger }
func (d *disjointFleet) gossip(name string) *policy.Gossip { return d.Member(name).Stack.Gossip }

// openDisjoint builds the fleet (flat or hierarchical roles over
// identical geometry; cfg.SubFleetHosts must be set) and runs the
// traffic phase, which must leave sub-fleet A with a first-hand
// detection for the exchange to spread. The caller closes the fleet.
func openDisjoint(ctx context.Context, cfg FederationConfig, prefix string, hierarchical bool) (d *disjointFleet, err error) {
	if cfg.Agents <= 0 {
		cfg.Agents = 3
	}
	if cfg.Cycles <= 0 {
		cfg.Cycles = 2
	}
	f, err := fleet.New("federation-owner")
	if err != nil {
		return nil, err
	}
	d = &disjointFleet{Fleet: f, ctx: ctx, clean: true}
	defer func() {
		if err != nil {
			_ = d.Close()
		}
	}()

	subA := make([]string, cfg.SubFleetHosts)
	subB := make([]string, cfg.SubFleetHosts)
	for i := range subA {
		subA[i] = fmt.Sprintf("a%d", i)
		subB[i] = fmt.Sprintf("b%d", i)
	}
	d.malicious = subA[0]
	aggregators := []string{"homeA", "homeB"}
	d.all = append(append(append([]string(nil), aggregators...), subA...), subB...)
	d.remote = append([]string{"homeB"}, subB...)

	for _, name := range d.all {
		home := name == "homeA" || name == "homeB"
		// The whole fleet is one exchange membership; the interval is
		// parked far out so the harness can drive rounds itself and
		// count them exactly.
		xcfg := core.ExchangeConfig{
			Peers:    d.all,
			Interval: time.Hour,
			Budget:   cfg.Budget,
		}
		if hierarchical {
			xcfg.Aggregators = aggregators
			xcfg.Role = core.ExchangeRoleMember
			if home {
				xcfg.Role = core.ExchangeRoleAggregator
			}
		}
		var behavior host.Behavior
		if name == d.malicious {
			behavior = fleet.Tamperer{}
		}
		if _, err := d.Add(fleet.Spec{
			Host:  host.Config{Name: name, Trusted: home, Behavior: behavior},
			Level: protection.LevelAdaptive,
			Node: core.NodeConfig{
				Workers:    cfg.Workers,
				QueueDepth: 2*cfg.Agents + 1,
				Exchange:   xcfg,
			},
		}); err != nil {
			return nil, err
		}
	}

	// Traffic phase: each sub-fleet runs its own itineraries, which
	// never leave it — zero shared agent traffic by construction.
	launch := func(prefix, home string, untrusted []string) ([][]*core.Receipt, error) {
		code := fleet.RouteCode(home, untrusted, cfg.Cycles)
		receipts := make([][]*core.Receipt, cfg.Agents)
		for i := range receipts {
			id := fmt.Sprintf("%s-%03d", prefix, i)
			wire, err := d.AuditedAgent(id, code)
			if err != nil {
				return nil, err
			}
			receipts[i] = d.Watch(id)
			if err := d.Net().SendAgent(d.ctx, home, wire); err != nil {
				return nil, fmt.Errorf("launching %s agent %d: %w", prefix, i, err)
			}
		}
		return receipts, nil
	}
	rcsA, err := launch(prefix+"-a", "homeA", subA)
	if err != nil {
		return nil, err
	}
	rcsB, err := launch(prefix+"-b", "homeB", subB)
	if err != nil {
		return nil, err
	}
	for i, rcs := range append(rcsA, rcsB...) {
		if _, err := core.AwaitAny(d.ctx, rcs...); err != nil && !errors.Is(err, core.ErrDetection) {
			return nil, fmt.Errorf("itinerary %d: %w", i%cfg.Agents, err)
		}
	}

	// The disjoint-traffic premise: sub-fleet A holds first-hand
	// suspicion, sub-fleet B none.
	for _, name := range append([]string{"homeA"}, subA...) {
		d.seed = max(d.seed, d.ledger(name).Suspicion(d.malicious))
	}
	if d.seed < policy.DefaultEscalateThreshold {
		return nil, fmt.Errorf("traffic phase produced no detection (seed suspicion %.3f)", d.seed)
	}
	for _, name := range d.remote {
		if d.ledger(name).Suspicion(d.malicious) >= policy.DefaultEscalateThreshold {
			d.clean = false
		}
	}
	return d, nil
}

// exchange drives stepping passes — every node once, in fixed order —
// until the remote sub-fleet converges (the lowest suspicion any remote
// node holds against the cheater reaches the gate's escalation
// threshold) or maxRounds (0 means 32) run out, and returns the passes
// started, that lowest suspicion at the end and the wall time.
// Synchronized rounds check convergence between passes only; stepwise
// checks after every node's step too, so a mid-pass finish stops the
// fleet's message counters exactly where exposure ended.
func (d *disjointFleet) exchange(maxRounds int, stepwise bool) (rounds int, low float64, elapsed time.Duration) {
	if maxRounds <= 0 {
		maxRounds = 32
	}
	converged := func() bool {
		low = d.ledger(d.remote[0]).Suspicion(d.malicious)
		for _, name := range d.remote[1:] {
			low = min(low, d.ledger(name).Suspicion(d.malicious))
		}
		return low >= policy.DefaultEscalateThreshold
	}
	begin := time.Now()
passes:
	for rounds < maxRounds && !converged() {
		rounds++
		for _, name := range d.all {
			_ = d.gossip(name).Exchange().Step(d.ctx)
			if stepwise && converged() {
				break passes
			}
		}
	}
	elapsed = time.Since(begin)
	converged()
	return rounds, low, elapsed
}

// runFederationArm runs one arm on its own fleet: traffic phase, then
// exchange steps node by node until the remote sub-fleet converges —
// counting passes and actual RPCs. The hierarchical arm additionally
// runs the urgent-piggyback probe before teardown.
func runFederationArm(cfg FederationConfig, hierarchical bool) (FederationArm, urgentProbe, error) {
	arm := FederationArm{Mode: "flat"}
	if hierarchical {
		arm.Mode = "hierarchical"
	}
	var probe urgentProbe
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	d, err := openDisjoint(ctx, cfg, arm.Mode, hierarchical)
	if err != nil {
		return arm, probe, err
	}
	defer func() { _ = d.Close() }()
	arm.SeedSuspicion = d.seed
	if !d.clean {
		return arm, probe, fmt.Errorf("disjoint premise violated: sub-fleet B already suspects %s", d.malicious)
	}

	arm.Rounds, arm.MinRemoteSuspicion, arm.Elapsed = d.exchange(cfg.MaxRounds, true)
	arm.Converged = arm.MinRemoteSuspicion >= policy.DefaultEscalateThreshold
	for _, name := range d.all {
		st, _ := d.gossip(name).ExchangeStats()
		arm.Messages += int(st.Rounds)
	}

	if hierarchical && arm.Converged {
		// Urgent probe: a fresh quarantine-level detection at homeA must
		// reach a member on its next single RPC, riding the reply
		// envelope (UrgentMerged proves the envelope engaged).
		const probeHost = "urgent-probe-cheat"
		victim := d.remote[len(d.remote)-1]
		d.ledger("homeA").Observe(probeHost, false, 2*policy.DefaultQuarantineThreshold)
		if s := d.ledger(victim).Suspicion(probeHost); s != 0 {
			return arm, probe, fmt.Errorf("urgent probe host already known at %s (%.3f)", victim, s)
		}
		before, _ := d.gossip(victim).ExchangeStats()
		if err := d.Member(victim).Node.UpdateExchangePeers([]string{"homeA"}); err != nil {
			return arm, probe, fmt.Errorf("pinning probe member to homeA: %w", err)
		}
		_ = d.gossip(victim).Exchange().Step(d.ctx)
		after, _ := d.gossip(victim).ExchangeStats()
		probe.rpcs = int(after.Rounds - before.Rounds)
		probe.envelopeMerges = after.UrgentMerged - before.UrgentMerged
		probe.learned = d.ledger(victim).Suspicion(probeHost) >= policy.DefaultEscalateThreshold
	}
	return arm, probe, nil
}
