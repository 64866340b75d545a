// Package planner closes the reproduction's routing loop: itineraries
// stop being fixed host lists and become goals over candidate pools,
// and the next hop is *chosen* — by a scored blend of ledger suspicion,
// observed load, and deadline slack — instead of compiled in. The
// paper's cheapest protection is never sending the agent to a
// malicious host at all; the reputation ledger the platform already
// accumulates (internal/policy) is exactly the signal that makes that
// choice possible, and the refusal errors the core intake produces
// (ErrAdmissionRefused, and ErrIntakeFull from the RefuseWhenFull
// fast-fail; errors.Is matches either over InProc and TCP alike) are
// the divergence signals that make replanning possible.
//
// The package splits plan from execution in the planner/executor
// style: Planner scores and picks routes over stages, Executor drives
// one itinerary — plan, launch, await, classify the divergence, adjust
// the planner's view (ban a shunned or dead host, spike an overloaded
// one), replan — until the journey completes or no feasible pool
// remains.
package planner

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/policy"
)

// Routing constants.
const (
	// DefaultAvoidThreshold is the suspicion at/above which a candidate
	// is avoided while any cleaner alternative exists. It matches the
	// admission default: a host the fleet would refuse intake *from* is
	// not worth routing *to*.
	DefaultAvoidThreshold = policy.DefaultAdmissionThreshold
	// DefaultLoadHalfLife is the decay half-life of overload spikes
	// (mailbox-full refusals); short, because queue pressure is a
	// transient signal — unlike suspicion, an overloaded host is not an
	// adversary and deserves traffic again once it drains.
	DefaultLoadHalfLife = 5 * time.Second
	// DefaultLatencyRef normalizes the latency EWMA into the load
	// factor: a host at the reference latency halves its weight share
	// relative to an unobserved one.
	DefaultLatencyRef = 50 * time.Millisecond
	// latencyAlpha is the EWMA smoothing factor for observed latency.
	latencyAlpha = 0.3
)

// ErrNoFeasibleHost is returned by PlanRoute when a stage's candidate
// pool has no live (unbanned, unused) host left.
var ErrNoFeasibleHost = errors.New("planner: no feasible host for stage")

// Stage is one step of an itinerary goal: a pool of interchangeable
// candidate hosts, any one of which can run the stage's session.
type Stage struct {
	Candidates []string
}

// Itinerary is a routing goal: an ordered list of stages to place on
// concrete hosts.
type Itinerary struct {
	ID     string
	Stages []Stage
}

// Config parameterizes a Planner. One planner serves one home: its
// suspicion source is the home's ledger, and its load observations
// come from the receipts of journeys that home launched.
type Config struct {
	// Home names the launching host (excluded from candidate pools).
	Home string
	// Suspicion reads a host's current suspicion, typically
	// (*policy.Ledger).Suspicion of the home's stack; nil means all
	// zero (pure load balancing).
	Suspicion func(host string) float64
	// Seed drives the weighted sampling; the same seed over the same
	// pools and observations picks the same routes.
	Seed int64
	// Now overrides the clock (virtual-time harnesses); nil means
	// time.Now.
	Now func() time.Time
}

// hostView is the planner's accumulated per-host state.
type hostView struct {
	latencyEWMA float64 // milliseconds; 0 = never observed
	overload    float64 // decaying spike mass
	updated     time.Time
	banned      bool
}

// Planner scores candidate pools and picks routes. Safe for concurrent
// use by one home's launcher goroutines.
type Planner struct {
	cfg Config

	mu    sync.Mutex
	rng   *rand.Rand
	hosts map[string]*hostView
}

// New builds a planner.
func New(cfg Config) *Planner {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Planner{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		hosts: make(map[string]*hostView),
	}
}

// view returns the host's state, creating it; caller holds p.mu.
func (p *Planner) view(host string) *hostView {
	v, ok := p.hosts[host]
	if !ok {
		v = &hostView{updated: p.cfg.Now()}
		p.hosts[host] = v
	}
	return v
}

// decayedOverload reads the host's overload mass decayed to now;
// caller holds p.mu.
func (p *Planner) decayedOverload(v *hostView, now time.Time) float64 {
	if v.overload == 0 {
		return 0
	}
	age := now.Sub(v.updated)
	if age <= 0 {
		return v.overload
	}
	return v.overload * math.Exp2(-float64(age)/float64(DefaultLoadHalfLife))
}

// ObserveLatency folds one observed per-hop latency into the host's
// EWMA — the receipt-fed load feedback loop.
func (p *Planner) ObserveLatency(host string, d time.Duration) {
	ms := float64(d.Microseconds()) / 1e3
	p.mu.Lock()
	defer p.mu.Unlock()
	v := p.view(host)
	if v.latencyEWMA == 0 {
		v.latencyEWMA = ms
	} else {
		v.latencyEWMA = latencyAlpha*ms + (1-latencyAlpha)*v.latencyEWMA
	}
}

// ObserveOverload records a mailbox-full/intake-refused spillover
// signal against the host: a decaying spike that sheds the host's
// weight share until the queue pressure half-lives away.
func (p *Planner) ObserveOverload(host string) {
	now := p.cfg.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	v := p.view(host)
	v.overload = p.decayedOverload(v, now) + 1
	v.updated = now
}

// Ban permanently excludes a host from future plans: the response to
// an admission refusal naming it, a quarantine verdict blaming it, or
// a dead wire. Load spikes decay; bans do not.
func (p *Planner) Ban(host string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.view(host).banned = true
}

// weight scores one candidate; caller holds p.mu. The blend: suspicion
// shrinks a host's share hyperbolically, observed load (latency EWMA
// against the reference, plus decaying overload spikes) shrinks it
// further.
func (p *Planner) weight(host string, now time.Time) float64 {
	v := p.view(host)
	var susp float64
	if p.cfg.Suspicion != nil {
		susp = p.cfg.Suspicion(host)
	}
	w := 1 / (1 + susp)
	refMS := float64(DefaultLatencyRef.Microseconds()) / 1e3
	load := v.latencyEWMA/refMS + p.decayedOverload(v, now)
	w /= 1 + load
	return w
}

// PlanRoute places every stage of the itinerary on a concrete host:
// per stage, candidates already used on this route, banned hosts, and
// the home are excluded; among the rest, hosts at/above the avoid
// threshold are skipped while any cleaner candidate exists (they
// remain a last resort — a feasible pool must stay feasible); the
// survivors are weighted-sampled. Exactly one RNG draw is consumed per
// stage, so routes are deterministic per (seed, pools, observations).
func (p *Planner) PlanRoute(it Itinerary) ([]string, error) {
	now := p.cfg.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	route := make([]string, 0, len(it.Stages))
	used := make(map[string]bool, len(it.Stages))
	for si, stage := range it.Stages {
		var clean, avoided []string
		for _, c := range stage.Candidates {
			if c == p.cfg.Home || used[c] || p.view(c).banned {
				continue
			}
			if p.cfg.Suspicion != nil && p.cfg.Suspicion(c) >= DefaultAvoidThreshold {
				avoided = append(avoided, c)
				continue
			}
			clean = append(clean, c)
		}
		pool := clean
		if len(pool) == 0 {
			// Every live candidate is past the avoid threshold: a
			// feasible itinerary still routes (and the receiving side's
			// admission control gets the final say).
			pool = avoided
		}
		if len(pool) == 0 {
			return nil, fmt.Errorf("%w: itinerary %s stage %d (pool %v)", ErrNoFeasibleHost, it.ID, si, stage.Candidates)
		}
		pick := p.samplePool(pool, now)
		route = append(route, pick)
		used[pick] = true
	}
	return route, nil
}

// samplePool weighted-samples one host from the pool with a single RNG
// draw (cumulative-sum walk in pool order); caller holds p.mu.
func (p *Planner) samplePool(pool []string, now time.Time) string {
	weights := make([]float64, len(pool))
	total := 0.0
	for i, c := range pool {
		weights[i] = p.weight(c, now)
		total += weights[i]
	}
	// weight() is strictly positive (its factors are hyperbolic, never
	// zero), so total > 0 and the walk below always terminates on a
	// real index.
	r := p.rng.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if r < acc {
			return pool[i]
		}
	}
	return pool[len(pool)-1]
}
