// Package faultnet is a fault-injecting transport.Network wrapper for
// chaos drills and adversary campaigns. A Fabric composes over any
// inner network (transport.InProc for the campaign harness, a
// TCPNetwork for wire-level drills) and injects the failure modes real
// malicious-host campaigns create:
//
//   - per-link message drop, delay, and duplication, decided by a
//     deterministic seeded RNG so a scenario replays identically;
//   - dynamic partitions: open a cut between host groups mid-run and
//     heal it later;
//   - per-node kill/restart: a killed host is unreachable and its own
//     sends fail (in-flight work dies with it); registered hooks let
//     the harness close the node and reopen it from its WAL DataDir,
//     which is how restart-chaos proves the no-free-reset property.
//
// The inner Network interface carries no source host, so faults that
// depend on the sending side (link selection, partition membership,
// a killed node's own traffic) are applied through per-node views:
// each node is wired with Fabric.Node(name) instead of the inner
// network, and the view stamps the source onto every operation.
//
// Determinism: each (src, dst) link keeps a message counter, and every
// message's fault decisions are drawn from an RNG seeded by
// hash(seed, src, dst, counter). Decisions on one link are therefore
// independent of traffic on other links — concurrent scenarios can
// interleave links without perturbing each other's outcomes — and a
// single-threaded scenario replays bit-identically.
package faultnet

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"repro/internal/transport"
)

// Errors injected by the fabric. All are wrapped with the link's
// endpoints; match with errors.Is.
var (
	// ErrHostDown reports a killed (not yet restarted) endpoint on
	// either side of the link.
	ErrHostDown = errors.New("faultnet: host down")
	// ErrPartitioned reports a link crossing the current partition cut.
	ErrPartitioned = errors.New("faultnet: link partitioned")
	// ErrDropped reports a message lost to the link's drop rate.
	ErrDropped = errors.New("faultnet: message dropped")
)

// LinkFaults is the fault profile of one link (or wildcard set of
// links). The zero value is a clean link.
type LinkFaults struct {
	// Drop is the probability in [0,1] that a message is lost.
	Drop float64
	// Duplicate is the probability in [0,1] that a protocol call is
	// delivered twice. Agent migrations are never duplicated: delivery
	// is at-most-once by contract, whereas protocol calls (reputation
	// offers) must tolerate duplication — Merge is idempotent — and
	// that is exactly what this fault exercises.
	Duplicate float64
	// DelayMin/DelayMax bound a uniform random delivery delay; both
	// zero means no delay. The sleep respects the caller's ctx.
	DelayMin time.Duration
	DelayMax time.Duration
}

// Hooks are a node's kill/restart callbacks, invoked by Kill and
// Restart (and therefore by scheduled events). Kill runs after the
// host is marked down; Restart runs before it is marked up again, so
// a reopened node re-registers on the inner network before traffic
// resumes. Either may be nil.
type Hooks struct {
	Kill    func() error
	Restart func() error
}

// Stats counts the fabric's interventions.
type Stats struct {
	// Delivered counts messages that reached the inner network.
	Delivered int64
	// Dropped, Delayed, and Duplicated count link-fault decisions.
	Dropped    int64
	Delayed    int64
	Duplicated int64
	// Blocked counts messages refused for a down endpoint or a
	// partition cut.
	Blocked int64
}

// Fabric wraps an inner network with fault injection. Safe for
// concurrent use.
type Fabric struct {
	inner transport.Network
	seed  int64

	mu       sync.Mutex
	down     map[string]bool
	groups   map[string]int // partition membership; nil = healed
	links    map[string]LinkFaults
	counters map[string]uint64
	hooks    map[string]Hooks
	stats    Stats
}

// New wraps inner with a fabric whose fault decisions derive from
// seed.
func New(inner transport.Network, seed int64) *Fabric {
	return &Fabric{
		inner:    inner,
		seed:     seed,
		down:     make(map[string]bool),
		links:    make(map[string]LinkFaults),
		counters: make(map[string]uint64),
		hooks:    make(map[string]Hooks),
	}
}

// linkKey builds the map key for a (src, dst) pair; "*" is the
// wildcard on either side.
func linkKey(src, dst string) string { return src + "\x00" + dst }

// SetLinkFaults installs a fault profile for the src->dst link. Either
// side may be "*" (any host); the most specific profile wins:
// (src,dst), then (src,*), then (*,dst), then (*,*).
func (f *Fabric) SetLinkFaults(src, dst string, lf LinkFaults) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.links[linkKey(src, dst)] = lf
}

// linkFor resolves the fault profile for src->dst; zero when none is
// installed. Caller holds f.mu.
func (f *Fabric) linkFor(src, dst string) LinkFaults {
	for _, k := range [...]string{linkKey(src, dst), linkKey(src, "*"), linkKey("*", dst), linkKey("*", "*")} {
		if lf, ok := f.links[k]; ok {
			return lf
		}
	}
	return LinkFaults{}
}

// Partition opens a cut: hosts in different groups cannot reach each
// other. Hosts in no group are unaffected (they reach everyone).
// Calling Partition again replaces the previous cut.
func (f *Fabric) Partition(groups ...[]string) {
	m := make(map[string]int)
	for i, g := range groups {
		for _, h := range g {
			m[h] = i
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.groups = m
}

// Heal removes the partition cut.
func (f *Fabric) Heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.groups = nil
}

// SetHooks registers a node's kill/restart callbacks.
func (f *Fabric) SetHooks(host string, h Hooks) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hooks[host] = h
}

// Kill marks the host down — all its links fail with ErrHostDown in
// both directions — and then invokes its Kill hook, so the harness can
// close the node (dropping in-flight work) while the fabric already
// refuses new traffic.
func (f *Fabric) Kill(host string) error {
	f.mu.Lock()
	if f.down[host] {
		f.mu.Unlock()
		return fmt.Errorf("faultnet: kill %s: already down", host)
	}
	f.down[host] = true
	hook := f.hooks[host].Kill
	f.mu.Unlock()
	if hook != nil {
		return hook()
	}
	return nil
}

// Restart invokes the host's Restart hook (reopening the node from its
// durable state and re-registering it) and, on success, marks the host
// up again.
func (f *Fabric) Restart(host string) error {
	f.mu.Lock()
	if !f.down[host] {
		f.mu.Unlock()
		return fmt.Errorf("faultnet: restart %s: not down", host)
	}
	hook := f.hooks[host].Restart
	f.mu.Unlock()
	if hook != nil {
		if err := hook(); err != nil {
			return err
		}
	}
	f.mu.Lock()
	f.down[host] = false
	f.mu.Unlock()
	return nil
}

// Down reports whether the host is currently killed.
func (f *Fabric) Down(host string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.down[host]
}

// Reachable reports whether a message from src to dst would pass the
// down/partition checks right now (it may still be dropped by link
// faults). Harnesses use it to route itineraries around the current
// cut.
func (f *Fabric) Reachable(src, dst string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reachableLocked(src, dst)
}

func (f *Fabric) reachableLocked(src, dst string) bool {
	if f.down[src] || f.down[dst] {
		return false
	}
	if f.groups == nil {
		return true
	}
	gs, oks := f.groups[src]
	gd, okd := f.groups[dst]
	if !oks || !okd {
		return true // unlisted hosts are outside the cut
	}
	return gs == gd
}

// Stats snapshots the fabric's counters.
func (f *Fabric) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Node returns the named host's view of the network: a
// transport.Network whose operations originate from that host, so
// per-link faults, partition membership, and the host's own down state
// apply. Wire each node with its view instead of the inner network.
func (f *Fabric) Node(name string) transport.Network {
	return &nodeView{f: f, self: name}
}

type nodeView struct {
	f    *Fabric
	self string
}

var _ transport.Network = (*nodeView)(nil)

// decision is one message's resolved fate.
type decision struct {
	drop      bool
	delay     time.Duration
	duplicate bool
}

// decide resolves connectivity and draws the link's fault decisions
// for one message. A nil error with d.drop set means the message must
// be reported lost after any delay bookkeeping.
func (f *Fabric) decide(src, dst string) (decision, error) {
	f.mu.Lock()
	if f.down[src] || f.down[dst] {
		f.stats.Blocked++
		f.mu.Unlock()
		return decision{}, fmt.Errorf("faultnet: %s->%s: %w", src, dst, ErrHostDown)
	}
	if !f.reachableLocked(src, dst) {
		f.stats.Blocked++
		f.mu.Unlock()
		return decision{}, fmt.Errorf("faultnet: %s->%s: %w", src, dst, ErrPartitioned)
	}
	lf := f.linkFor(src, dst)
	key := linkKey(src, dst)
	n := f.counters[key]
	f.counters[key] = n + 1
	seed := f.seed
	f.mu.Unlock()

	if lf == (LinkFaults{}) {
		return decision{}, nil
	}
	// Per-message RNG: seeded from (fabric seed, link, message index),
	// so decisions replay regardless of cross-link interleaving. All
	// three rolls are always drawn, keeping the stream layout stable.
	h := fnv.New64a()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(seed))
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(key))
	binary.BigEndian.PutUint64(buf[:], n)
	_, _ = h.Write(buf[:])
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	dropRoll, delayRoll, dupRoll := rng.Float64(), rng.Float64(), rng.Float64()

	var d decision
	d.drop = dropRoll < lf.Drop
	if lf.DelayMax > lf.DelayMin {
		d.delay = lf.DelayMin + time.Duration(delayRoll*float64(lf.DelayMax-lf.DelayMin))
	} else {
		d.delay = lf.DelayMin
	}
	d.duplicate = dupRoll < lf.Duplicate
	return d, nil
}

// apply executes the decision's delay (honouring ctx) and reports a
// drop. It returns whether delivery should proceed and, for calls,
// whether to duplicate it.
func (v *nodeView) apply(ctx context.Context, dst string) (dup bool, err error) {
	d, err := v.f.decide(v.self, dst)
	if err != nil {
		return false, err
	}
	if d.delay > 0 {
		v.f.mu.Lock()
		v.f.stats.Delayed++
		v.f.mu.Unlock()
		t := time.NewTimer(d.delay)
		select {
		case <-ctx.Done():
			t.Stop()
			return false, fmt.Errorf("faultnet: %s->%s: %w", v.self, dst, ctx.Err())
		case <-t.C:
		}
	}
	if d.drop {
		v.f.mu.Lock()
		v.f.stats.Dropped++
		v.f.mu.Unlock()
		return false, fmt.Errorf("faultnet: %s->%s: %w", v.self, dst, ErrDropped)
	}
	v.f.mu.Lock()
	v.f.stats.Delivered++
	if d.duplicate {
		v.f.stats.Duplicated++
	}
	v.f.mu.Unlock()
	return d.duplicate, nil
}

// SendAgent implements transport.Network. Migration delivery is
// at-most-once: the duplicate fault never applies here.
func (v *nodeView) SendAgent(ctx context.Context, host string, wire []byte) error {
	if _, err := v.apply(ctx, host); err != nil {
		return err
	}
	return v.f.inner.SendAgent(ctx, host, wire)
}

// Call implements transport.Network. A duplicated call is delivered
// twice back to back (the first result is discarded), exercising the
// receiver's idempotence the way a retransmitting network would.
func (v *nodeView) Call(ctx context.Context, host, method string, body []byte) ([]byte, error) {
	dup, err := v.apply(ctx, host)
	if err != nil {
		return nil, err
	}
	if dup {
		_, _ = v.f.inner.Call(ctx, host, method, body)
	}
	return v.f.inner.Call(ctx, host, method, body)
}
