// Package campaign is the adversary campaign simulator: a fleet of
// adaptive-protection nodes (internal/protection LevelAdaptive) wired
// over a fault-injecting fabric (internal/faultnet), driven step by
// step through a scripted adversary playbook and infrastructure chaos
// schedule, and scored into the metrics BENCH_campaign.json reports.
//
// Everything that can influence a score is deterministic given the
// scenario: message faults draw from the fabric's seeded RNG, nodes
// run one worker and launches are awaited serially, the exchange loop
// is parked (interval one hour) and rounds are driven explicitly, and
// all suspicion arithmetic runs on a shared virtual Clock the step
// loop alone advances. The same Config therefore produces the same
// Score fingerprint on every machine — pinned by test.
//
// The campaign exercises the platform end to end: real agents with
// signed appraisal rules migrate across real nodes; the adversary is a
// host.Behavior that manipulates the audited state exactly like
// fleet.Tamperer; detections, quarantines, reputation decay, gossip,
// anti-entropy exchange (with per-peer failure backoff), WAL-backed
// restarts — all the production paths, under
// churn, partitions, crash-restart chaos, and Sybil pressure.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/faultnet"
	"repro/internal/fleet"
	"repro/internal/host"
	"repro/internal/policy"
	"repro/internal/protection"
	"repro/internal/value"
)

// The fixed shape of every campaign.
const (
	// DefaultStepDuration is the virtual time one step represents.
	// Against the ledger's default five-minute half-life it decays
	// suspicion by ~6.7% per step: three consecutive offenses cross the
	// default quarantine threshold, and honest-again phases of a
	// flapping adversary drain suspicion over a couple dozen steps.
	DefaultStepDuration = 30 * time.Second
	// DefaultAgentsPerStep is the per-step itinerary count.
	DefaultAgentsPerStep = 1
	// DefaultCycles is the per-session summation workload (kept tiny:
	// campaigns measure protection dynamics, not compute throughput).
	DefaultCycles = 1
	// launchTimeout bounds one journey; a journey that neither
	// terminates nor fails within it indicates a harness bug, not
	// chaos.
	launchTimeout = 30 * time.Second
)

// Playbook scripts the adversary's cheating schedule against the
// campaign's step counter.
type Playbook struct {
	// CheatStart is the first step the adversary manipulates sessions.
	CheatStart int
	// Period/Duty flap the behaviour: from CheatStart on, the adversary
	// cheats during the first Duty steps of every Period-step window
	// and behaves honestly for the rest — riding the ledger's decay
	// half-life. Period 0 means cheat on every step from CheatStart.
	Period int
	Duty   int
}

// cheating reports whether the playbook has the adversary tampering at
// the given step.
func (p Playbook) cheating(step int) bool {
	if step < p.CheatStart {
		return false
	}
	if p.Period <= 0 {
		return true
	}
	return (step-p.CheatStart)%p.Period < p.Duty
}

// LifecycleEvent is a fleet membership change at a step: a fresh
// honest host joining, a host leaving for good, or the adversary
// discarding its identity for a fresh one (Sybil churn). Exchange
// rings on every alive node are updated live through the node's
// peer-update path. Crash-restarts are not lifecycle events — they go
// through the fault schedule's Kill/Restart, which enforces
// unreachability while down.
type LifecycleEvent struct {
	Step int
	// Join adds a fresh honest untrusted worker with this name.
	Join string
	// Leave removes the named member: its node closes, rings drop it.
	Leave string
	// SybilRotate retires the adversary's current identity and joins a
	// fresh one (new name, new keys, empty reputation) that continues
	// the same playbook.
	SybilRotate bool
}

// Config parameterizes one campaign.
type Config struct {
	// Name labels the scenario in scores and data directories.
	Name string
	// Seed drives the fault fabric's per-message randomness.
	Seed int64
	// Steps is the campaign length; the step counter starts at 1.
	Steps int
	// Workers are the initial honest untrusted hosts, visited in order
	// on every itinerary; Adversary is the initial malicious untrusted
	// host, visited after them. A trusted "home" host launches and
	// collects every journey.
	Workers   []string
	Adversary string
	// AdversaryPosition places the adversary in the itinerary order (0
	// = before all workers). The host after it checks its sessions.
	AdversaryPosition int
	// Playbook scripts when the adversary cheats.
	Playbook Playbook
	// Aggregators, when non-empty, runs the exchange federation
	// hierarchically: the named initial members (home or workers) act as
	// aggregators, everyone else — late joiners and Sybil rotations
	// included — exchanges only with them. Partitions and kills then cut
	// at aggregator boundaries, which is exactly what the aggregator-cut
	// scenario pressures.
	Aggregators []string
	// Faults is the chaos schedule applied to the fabric step by step
	// (partitions, link faults, node kill/restart).
	Faults faultnet.Schedule
	// Lifecycle is the membership churn schedule.
	Lifecycle []LifecycleEvent
	// Durable gives every node a data directory under a temporary
	// root, removed when the campaign ends, so kills recover journal,
	// quarantine, and reputation ledger from their WALs. Required for
	// a meaningful restart-chaos scenario.
	Durable bool
	// LedgerHalfLife overrides every member ledger's suspicion decay
	// half-life (0 = the policy default). An evasion scenario treats
	// this as the attack parameter: the shorter the fleet forgets, the
	// longer an under-threshold adversary survives.
	LedgerHalfLife time.Duration
	// EvadeBelow, when positive, makes the adversary adaptive: on steps
	// the playbook would have it cheat, it first reads the fleet's view
	// of itself (the maximum suspicion any alive honest member holds
	// about its current identity) and behaves honestly whenever that
	// view has reached EvadeBelow — cheating only while it believes it
	// flies under the admission/avoidance radar.
	EvadeBelow float64
}

// member is one fleet host across its whole campaign life, surviving
// kill/restart cycles (same keys, same data dir: fleet.Reopen).
type member struct {
	*fleet.Member
	trusted   bool
	adversary bool
	behavior  *switchBehavior // nil unless adversary

	// scoreSub is the campaign's own bus subscription: the step loop
	// drains it each step to fold verdict/quarantine events into the
	// score (the observability cross-check of the ground-truth
	// counters).
	scoreSub *events.Subscription
	alive    bool // false while killed or after leaving
	gone     bool // left the fleet for good
}

// switchBehavior is the adversary: honest until told otherwise, then
// fleet.Tamperer, the shared malicious host (manipulating the audited
// total). The cheat switch is flipped by the playbook between steps;
// while it is on, tampered sessions are reported to the scorer as
// ground truth.
type switchBehavior struct {
	fleet.Tamperer
	mu    sync.Mutex
	cheat bool
}

func (b *switchBehavior) setCheat(v bool) {
	b.mu.Lock()
	b.cheat = v
	b.mu.Unlock()
}

func (b *switchBehavior) cheating() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cheat
}

func (b *switchBehavior) TamperState(st value.State) {
	if b.cheating() {
		b.Tamperer.TamperState(st)
	}
}

func (b *switchBehavior) TamperRecord(rec *host.SessionRecord) {
	if b.cheating() {
		b.Tamperer.TamperRecord(rec)
	}
}

// runner is one campaign in flight.
type runner struct {
	cfg    Config
	ctx    context.Context
	clock  *Clock
	fleet  *fleet.Fleet
	fabric *faultnet.Fabric
	// dataRoot holds the members' data directories of a durable run.
	dataRoot string

	members []*member // join order; index order is itinerary order
	home    *member
	adv     *member
	advIDs  []string // every adversary identity, oldest first

	mu       sync.Mutex
	tampered map[string]bool // agentID -> ground truth

	score           Score
	firstTamperStep int
	convergedStep   int
	judgePending    bool
	// busDetectStep is the first step the campaign's bus subscription
	// drained a failed-verdict event naming an adversary identity —
	// the event-derived twin of the ledger-sampled convergence latch.
	busDetectStep int
	// step is the loop's current step, read by the drain path (kill
	// hooks fire mid-step, outside the loop's scope).
	step int
}

// Run executes the campaign and returns its score.
func Run(cfg Config) (Score, error) {
	if cfg.Steps <= 0 {
		return Score{}, errors.New("campaign: Steps must be positive")
	}
	if len(cfg.Workers) == 0 || cfg.Adversary == "" {
		return Score{}, errors.New("campaign: need at least one worker and an adversary")
	}
	if cfg.AdversaryPosition < 0 || cfg.AdversaryPosition > len(cfg.Workers) {
		return Score{}, fmt.Errorf("campaign: adversary position %d outside [0,%d]", cfg.AdversaryPosition, len(cfg.Workers))
	}
	for _, a := range cfg.Aggregators {
		known := a == "home"
		for _, w := range cfg.Workers {
			if w == a {
				known = true
			}
		}
		if !known {
			return Score{}, fmt.Errorf("campaign: aggregator %s is neither home nor an initial worker", a)
		}
	}
	var root string
	if cfg.Durable {
		var err error
		if root, err = os.MkdirTemp("", "campaign-"+cfg.Name+"-"); err != nil {
			return Score{}, err
		}
		defer func() { _ = os.RemoveAll(root) }()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	f, err := fleet.NewFaulty("campaign-owner", cfg.Seed)
	if err != nil {
		return Score{}, err
	}
	r := &runner{
		cfg:             cfg,
		ctx:             ctx,
		clock:           NewClock(),
		fleet:           f,
		fabric:          f.Fabric(),
		dataRoot:        root,
		tampered:        make(map[string]bool),
		firstTamperStep: -1,
		convergedStep:   -1,
		busDetectStep:   -1,
	}
	f.Clock = r.clock.Now
	r.score = Score{Name: cfg.Name, Seed: cfg.Seed, Steps: cfg.Steps, DetectionLatencySteps: -1, BusDetectionLatencySteps: -1}

	defer func() { _ = f.Close() }()
	if err := r.buildFleet(); err != nil {
		return Score{}, err
	}

	begin := time.Now()
	if err := r.loop(); err != nil {
		return Score{}, err
	}
	elapsed := time.Since(begin)
	// Retire the fleet before the score freezes: each close folds the
	// member's remaining bus events and whole-life drop total into the
	// score (the deferred fleet close above is then a no-op).
	for _, m := range r.members {
		if m.alive {
			_ = r.closeMember(m)
		}
	}
	r.score.ElapsedMS = elapsed.Milliseconds()
	if elapsed > 0 {
		r.score.SurvivorThroughputPerSec = float64(r.score.Completed) / elapsed.Seconds()
	}
	if r.score.Converged && r.firstTamperStep >= 0 {
		r.score.DetectionLatencySteps = r.convergedStep - r.firstTamperStep
	}
	if r.busDetectStep >= 0 && r.firstTamperStep >= 0 {
		r.score.BusDetectionLatencySteps = r.busDetectStep - r.firstTamperStep
	}
	untampered := r.score.Launched - r.score.TamperedAgents
	if untampered > 0 {
		r.score.HonestFPRate = float64(r.score.HonestQuarantines) / float64(untampered)
	}
	r.score.AdversaryIdentities = len(r.advIDs)
	return r.score, nil
}

// buildFleet constructs home, the honest workers, and the adversary,
// in itinerary order.
func (r *runner) buildFleet() error {
	home, err := r.newMember("home", true, false)
	if err != nil {
		return err
	}
	r.home = home
	for i, w := range r.cfg.Workers {
		if i == r.cfg.AdversaryPosition {
			if err := r.joinAdversary(r.cfg.Adversary); err != nil {
				return err
			}
		}
		if _, err := r.newMember(w, false, false); err != nil {
			return err
		}
	}
	if r.cfg.AdversaryPosition == len(r.cfg.Workers) {
		if err := r.joinAdversary(r.cfg.Adversary); err != nil {
			return err
		}
	}
	return r.updateRings()
}

func (r *runner) joinAdversary(name string) error {
	m, err := r.newMember(name, false, true)
	if err != nil {
		return err
	}
	r.adv = m
	r.advIDs = append(r.advIDs, name)
	return nil
}

// peerNames is the exchange-ring membership: every member still in the
// fleet (down-but-coming-back nodes stay in rings; peers back off via
// the exchange's per-peer cooldown until they return).
func (r *runner) peerNames() []string {
	names := make([]string, 0, len(r.members))
	for _, m := range r.members {
		if !m.gone {
			names = append(names, m.Name)
		}
	}
	return names
}

// newMember opens a fleet host and wires the fabric's kill/restart
// hooks to its close and reopen.
func (r *runner) newMember(name string, trusted, adversary bool) (*member, error) {
	m := &member{trusted: trusted, adversary: adversary}
	if adversary {
		m.behavior = &switchBehavior{Tamperer: fleet.Tamperer{OnSession: func(agentID string, hop int) {
			r.mu.Lock()
			r.tampered[agentID] = true
			r.mu.Unlock()
		}}}
	}
	fm, err := r.fleet.Add(r.specFor(m, name))
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	m.Member = fm
	r.opened(m)
	r.members = append(r.members, m)
	r.fabric.SetHooks(name, faultnet.Hooks{
		Kill: func() error { return r.closeMember(m) },
		// Same host identity, same data dir — the WAL decides what the
		// node remembers. Each life gets its own pipeline; with a data
		// dir the flight recorder replays its WAL, so a restarted
		// member's events resume with monotone sequence numbers.
		Restart: func() error {
			if err := r.fleet.Reopen(m.Member, r.specFor(m, name)); err != nil {
				return fmt.Errorf("campaign: %w", err)
			}
			r.opened(m)
			return nil
		},
	})
	return m, nil
}

// specFor describes one life of a member: the adaptive stack on the
// campaign's thresholds over the member's data dir, a parked exchange
// over the fleet as it stands now.
func (r *runner) specFor(m *member, name string) fleet.Spec {
	spec := fleet.Spec{
		Host:  host.Config{Name: name, Trusted: m.trusted},
		Level: protection.LevelAdaptive,
		Protection: protection.Options{
			LedgerHalfLife: r.cfg.LedgerHalfLife,
		},
		Node: core.NodeConfig{
			Workers:    1, // serialized: same inputs, same order, same score
			QueueDepth: 16,
			// Parked interval: rounds are driven explicitly by the step
			// loop so their order and count are part of the scenario.
			Exchange: r.exchangeConfigFor(name),
		},
		Pipeline: &events.PipelineConfig{},
	}
	if m.behavior != nil {
		spec.Host.Behavior = m.behavior
	}
	if r.cfg.Durable {
		spec.DataDir = filepath.Join(r.dataRoot, name)
	}
	return spec
}

// opened marks a freshly (re)opened member on duty and subscribes the
// scorer to its new pipeline.
func (r *runner) opened(m *member) {
	m.scoreSub = m.Pipe.Bus.Subscribe("score", scoreSubCapacity)
	m.alive = true
}

// exchangeConfigFor builds a member's exchange configuration: a flat
// ring over the fleet, or — when the scenario names aggregators — the
// hierarchical federation, where that list sets each node's tier. The
// interval is parked either way; the step loop drives rounds.
func (r *runner) exchangeConfigFor(name string) core.ExchangeConfig {
	return core.ExchangeConfig{Peers: r.exchangePeersFor(name), Interval: time.Hour, Aggregators: r.cfg.Aggregators}
}

// exchangePeersFor seeds a new node's ring: the current fleet, or —
// while the fleet is still being built — the full planned initial
// membership, so the first nodes do not fail construction for lack of
// peers.
func (r *runner) exchangePeersFor(name string) []string {
	names := r.peerNames()
	others := 0
	for _, n := range names {
		if n != name {
			others++
		}
	}
	if others > 0 {
		return names
	}
	planned := []string{"home", r.cfg.Adversary}
	planned = append(planned, r.cfg.Workers...)
	return planned
}

// closeMember takes the member off duty (fleet.Member.Close: node,
// protection stack, pipeline). Used both by the fabric's kill hook (the
// fabric has already marked the host down, so in-flight sends are
// failing like a real crash) and by lifecycle leaves.
func (r *runner) closeMember(m *member) error {
	if !m.alive {
		return fmt.Errorf("campaign: member %s already down", m.Name)
	}
	m.alive = false
	err := m.Close()
	// Fold the member's final events and its whole-life drop total into
	// the score before the pipeline is forgotten (a restart opens a
	// fresh one).
	r.drainScoreEvents(m)
	r.score.EventDrops += m.EventDrops()
	m.scoreSub = nil
	return err
}

// updateRings pushes the current membership into every alive node's
// exchange ring through the live peer-update path.
func (r *runner) updateRings() error {
	names := r.peerNames()
	for _, m := range r.members {
		if !m.alive {
			continue
		}
		if err := m.Node.UpdateExchangePeers(names); err != nil {
			return fmt.Errorf("campaign: updating ring of %s: %w", m.Name, err)
		}
	}
	return nil
}

// loop is the campaign's step engine. Per step, in order: chaos
// schedule and lifecycle, playbook, launches (awaited serially),
// exchange rounds, convergence sampling, clock advance.
func (r *runner) loop() error {
	for step := 1; step <= r.cfg.Steps; step++ {
		r.step = step
		// Chaos first: this step's partitions, faults, kills, restarts.
		for _, ev := range r.cfg.Faults {
			if ev.Step == step && ev.Restart != "" {
				r.score.Restarts++
				r.judgePending = true
			}
		}
		if err := r.cfg.Faults.Apply(r.fabric, step); err != nil {
			return fmt.Errorf("campaign: step %d: %w", step, err)
		}
		if err := r.applyLifecycle(step); err != nil {
			return err
		}
		// Playbook: flip the adversary's switch for this step. An
		// adaptive adversary (EvadeBelow) holds back whenever the fleet's
		// worst opinion of it has reached the evasion ceiling — it waits
		// for the ledger's half-life to forget before cheating again.
		if r.adv.behavior != nil {
			cheat := r.cfg.Playbook.cheating(step)
			if cheat && r.cfg.EvadeBelow > 0 && r.fleetSuspicion(r.adv.Name) >= r.cfg.EvadeBelow {
				cheat = false
				r.score.EvasionHolds++
			}
			r.adv.behavior.setCheat(cheat)
		}
		// Launches, serial: one journey fully terminates before the
		// next starts, keeping ledger observation order scenario-
		// determined.
		for i := 0; i < DefaultAgentsPerStep; i++ {
			if err := r.launch(step, i); err != nil {
				return err
			}
		}
		// One exchange round per alive node, in join order. Rounds run
		// through the fabric: partitions and downed peers fail rounds,
		// exercising the per-peer backoff.
		for _, m := range r.members {
			if !m.alive {
				continue
			}
			if x := m.Stack.Gossip.Exchange(); x != nil {
				_ = x.Step(r.ctx)
			}
		}
		r.sample(step)
		r.clock.Advance(DefaultStepDuration)
	}
	return nil
}

// applyLifecycle executes this step's membership events.
func (r *runner) applyLifecycle(step int) error {
	changed := false
	for _, ev := range r.cfg.Lifecycle {
		if ev.Step != step {
			continue
		}
		switch {
		case ev.Join != "":
			if _, err := r.newMember(ev.Join, false, false); err != nil {
				return err
			}
			changed = true
		case ev.Leave != "":
			m := r.memberByName(ev.Leave)
			if m == nil {
				return fmt.Errorf("campaign: step %d: leave of unknown member %s", step, ev.Leave)
			}
			if m.alive {
				if err := r.closeMember(m); err != nil {
					return err
				}
			}
			m.gone = true
			changed = true
		case ev.SybilRotate:
			old := r.adv
			if old.alive {
				if err := r.closeMember(old); err != nil {
					return err
				}
			}
			old.gone = true
			fresh := fmt.Sprintf("%s-g%d", r.cfg.Adversary, len(r.advIDs)+1)
			if err := r.joinAdversary(fresh); err != nil {
				return err
			}
			changed = true
		}
	}
	if changed {
		return r.updateRings()
	}
	return nil
}

func (r *runner) memberByName(name string) *member {
	for _, m := range r.members {
		if m.Name == name && !m.gone {
			return m
		}
	}
	return nil
}

// route builds this launch's itinerary: every alive, reachable
// untrusted member in join order, each hop checked for reachability
// from the previous one, closing back at home. Unreachable hosts are
// skipped rather than letting every journey of a partition die at the
// same cut.
func (r *runner) route() []string {
	var route []string
	last := "home"
	for _, m := range r.members {
		if m.trusted || m.gone || !m.alive {
			continue
		}
		if !r.fabric.Reachable(last, m.Name) {
			continue
		}
		route = append(route, m.Name)
		last = m.Name
	}
	if len(route) > 0 && !r.fabric.Reachable(last, "home") {
		// The final hop cannot deliver the journey home; drop the tail
		// until it can (worst case the route empties and the launch is
		// skipped).
		for len(route) > 0 && !r.fabric.Reachable(route[len(route)-1], "home") {
			route = route[:len(route)-1]
		}
	}
	return route
}

// launch runs one journey to termination and scores it.
func (r *runner) launch(step, i int) error {
	route := r.route()
	if len(route) == 0 {
		return nil // fleet cut off from home this step; nothing to launch
	}
	id := fmt.Sprintf("%s-%03d-%d", r.cfg.Name, step, i)
	// The fleet package's shared journey shape: per-session summation
	// work plus the audited counters the owner's rule binds.
	wire, err := r.fleet.AuditedAgent(id, fleet.RouteCode("home", route, DefaultCycles))
	if err != nil {
		return err
	}

	var rcs []*core.Receipt
	rcs = append(rcs, r.home.Node.Watch(id))
	for _, name := range route {
		if m := r.memberByName(name); m != nil && m.alive {
			rcs = append(rcs, m.Node.Watch(id))
		}
	}
	lctx, cancel := context.WithTimeout(r.ctx, launchTimeout)
	defer cancel()
	if err := r.home.Node.HandleAgent(lctx, wire); err != nil {
		return fmt.Errorf("campaign: launching %s: %w", id, err)
	}
	out, err := core.AwaitAny(lctx, rcs...)

	r.mu.Lock()
	wasTampered := r.tampered[id]
	r.mu.Unlock()
	r.score.Launched++
	if wasTampered {
		r.score.TamperedAgents++
		if r.firstTamperStep < 0 {
			r.firstTamperStep = step
		}
	}
	outcome := ""
	switch {
	case err == nil:
		r.score.Completed++
		outcome = "completed"
	case errors.Is(err, core.ErrDetection):
		r.score.Quarantined++
		outcome = "quarantined"
		if wasTampered {
			r.score.DetectedTampered++
		} else {
			r.score.HonestQuarantines++
		}
	case out.Err != nil || err != nil:
		if r.ctx.Err() != nil {
			return fmt.Errorf("campaign: journey %s: %w", id, err)
		}
		r.score.Failed++
		outcome = "failed"
	}
	// No-free-reset judgment: the first tampered journey to terminate
	// cleanly after a restart decides whether the restarted checker's
	// recovered ledger quarantined the repeat offender immediately.
	if r.judgePending && wasTampered && outcome != "failed" {
		r.score.NoFreeResetJudged = true
		r.score.NoFreeReset = outcome == "quarantined"
		r.judgePending = false
	}
	return nil
}

// scoreSubCapacity bounds the campaign's per-member score
// subscription; sized so a step's worth of events never wraps (drops
// would not corrupt the score — they are counted — but would blind
// the bus-derived cross-check).
const scoreSubCapacity = 4096

// drainScoreEvents folds one member's pending bus events into the
// score: verdict and quarantine counts, and the first failed verdict
// naming an adversary identity latches the bus-derived detection step.
// Called per member per step (after the step's serial launches, so the
// events a journey published are all there) and once more at close.
func (r *runner) drainScoreEvents(m *member) {
	if m.scoreSub == nil {
		return
	}
	for _, ev := range m.scoreSub.Drain() {
		switch ev.Kind {
		case events.KindVerdict:
			r.score.BusVerdictEvents++
			if ev.Field("ok") == "false" {
				r.score.BusFailedVerdicts++
				if r.busDetectStep < 0 && r.isAdversaryName(ev.Host) {
					r.busDetectStep = r.step
				}
			}
		case events.KindQuarantine:
			r.score.BusQuarantineEvents++
		}
	}
}

// isAdversaryName reports whether name is any adversary identity the
// campaign has used (Sybil rotation retires names; their events still
// count as detections of the adversary).
func (r *runner) isAdversaryName(name string) bool {
	for _, id := range r.advIDs {
		if id == name {
			return true
		}
	}
	return false
}

// fleetSuspicion reads the fleet's worst opinion of a host: the
// maximum suspicion any alive honest member's ledger holds about it.
// This is exactly the signal an adaptive adversary can estimate from
// the outside (refused intakes, vanished traffic), so the evasion
// playbook keys off it.
func (r *runner) fleetSuspicion(name string) float64 {
	worst := 0.0
	for _, m := range r.members {
		if !m.alive || m.adversary {
			continue
		}
		if s := m.Stack.Ledger.Suspicion(name); s > worst {
			worst = s
		}
	}
	return worst
}

// sample latches fleet-wide convergence on the adversary's current
// identity and tracks the worst honest-on-honest suspicion.
func (r *runner) sample(step int) {
	for _, m := range r.members {
		if m.alive {
			r.drainScoreEvents(m)
		}
	}
	if r.firstTamperStep >= 0 && !r.score.Converged {
		escalate := policy.DefaultEscalateThreshold
		all := true
		sampled := 0
		for _, m := range r.members {
			if !m.alive || m.adversary {
				continue
			}
			sampled++
			if m.Stack.Ledger.Suspicion(r.adv.Name) < escalate {
				all = false
				break
			}
		}
		if all && sampled > 0 {
			r.score.Converged = true
			r.convergedStep = step
		}
	}
	for _, obs := range r.members {
		if !obs.alive || obs.adversary {
			continue
		}
		for _, sub := range r.members {
			if sub.adversary || sub == obs {
				continue
			}
			if s := obs.Stack.Ledger.Suspicion(sub.Name); s > r.score.MaxHonestSuspicion {
				r.score.MaxHonestSuspicion = s
			}
		}
	}
}
