package policy

import (
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/canon"
)

// Scheduler is the exchange's weighted partner selector. The flat
// randomized ring visited peers uniformly — a peer just exchanged with
// had the same claim on the next round as one not seen for an hour, and
// a crashed peer consumed whole ring turns from a skip-list. The
// scheduler replaces both with one score per peer:
//
//	score = staleness × (1 + distance) × 2^-min(fails, failPenaltyCap)
//
// Staleness is the time since the last successful round with the peer
// (never-visited peers measure from the scheduler's creation), distance
// is an EWMA of how much the peer's ledger has differed from ours in
// past rounds (delta entries received, or the divergence its offers
// showed), and the failure term folds the old cooldown in as a penalty
// instead of a skip — a failing peer is deprioritized, not forgotten,
// and recovers attention as its staleness grows past the penalty.
//
// Ties (the all-zero start, or a frozen test clock) fall back to
// least-recently-picked order, then to a per-node FNV hash of the pair
// — so a fresh fleet still degenerates to a deterministic round-robin
// whose visit order differs across nodes, preserving the property the
// shuffled ring gave convergence proofs: every peer is picked within
// len(peers) rounds when nothing else separates them.
//
// All methods are safe for concurrent use. The scheduler is
// deliberately free of RNG and wall-clock reads: campaign and scale
// harnesses drive it with their own clocks and get replayable schedules.
const (
	// failPenaltyCap caps the failure exponent: a persistently failing
	// peer scores 2^-4 = 1/16 of a healthy one, so it is re-probed once
	// its staleness is ~16 healthy rounds — the same horizon the old
	// skip-list's maxPeerCooldownRounds gave, without burning turns.
	failPenaltyCap = 4
	// schedDistanceEWMA weighs the newest distance observation against
	// history; 0.5 follows a moving peer within a couple of rounds.
	schedDistanceEWMA = 0.5
	// schedDefaultDistance is the optimistic prior for a peer never
	// exchanged with: assumed to differ, so unknown peers are probed
	// ahead of known-synced ones at equal staleness.
	schedDefaultDistance = 1.0
)

// schedPeer is one peer's selection state.
type schedPeer struct {
	// lastSuccess is the last successful round; zero means never (the
	// scheduler's epoch anchors staleness then).
	lastSuccess time.Time
	// fails counts consecutive failed rounds since the last success.
	fails int
	// distance is the EWMA of observed ledger divergence.
	distance float64
	// pickedSeq is the global sequence number of the peer's last Pick;
	// 0 means never picked. Lower wins ties — least-recently-picked.
	pickedSeq uint64
}

// Scheduler scores and picks exchange partners. Construct with
// NewScheduler; the exchange loop owns one, and harnesses may drive a
// standalone instance deterministically.
type Scheduler struct {
	self  string
	epoch time.Time

	mu    sync.Mutex
	peers map[string]*schedPeer
	seq   uint64
}

// PeerScore is one peer's scheduling snapshot, for stats and tests.
type PeerScore struct {
	Peer     string
	Score    float64
	Fails    int
	Distance float64
	// LastSuccessUnixNano is 0 for a peer never exchanged with.
	LastSuccessUnixNano int64
}

// NewScheduler builds a scheduler for self over the given peers
// (deduplicated; self excluded). epoch anchors the staleness of peers
// never exchanged with — pass the clock's current time at construction.
func NewScheduler(self string, peers []string, epoch time.Time) *Scheduler {
	s := &Scheduler{
		self:  self,
		epoch: epoch,
		peers: make(map[string]*schedPeer, len(peers)),
	}
	for _, p := range peers {
		if p == "" || p == self {
			continue
		}
		if _, dup := s.peers[p]; !dup {
			s.peers[p] = &schedPeer{distance: schedDefaultDistance}
		}
	}
	return s
}

// Len returns the number of tracked peers.
func (s *Scheduler) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.peers)
}

// pairHash is the deterministic final tie-break: a per-(self, peer)
// FNV-64a hash, so two nodes with identical state still visit their
// fleets in different orders (the role the seeded shuffle used to play).
func pairHash(self, peer string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(self))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(peer))
	return h.Sum64()
}

// score computes the peer's current score. Caller holds s.mu.
//
// Staleness is wall time since the last success plus the pick lag (how
// many Picks have happened since this peer's last). The lag term is
// what keeps the scheduler sane under a frozen or slow clock — all wall
// staleness zero — where it reduces the whole formula to weighted
// round-robin; under a real clock the interval-sized wall term
// dominates and lag is a tie-break-scale nudge.
func (s *Scheduler) score(st *schedPeer, now time.Time) float64 {
	ref := st.lastSuccess
	if ref.IsZero() {
		ref = s.epoch
	}
	staleness := now.Sub(ref).Seconds()
	if staleness < 0 {
		staleness = 0
	}
	// The +1 floor keeps a just-picked peer's score above zero: without
	// it a frozen clock alternates between the freshest peer (score 0)
	// and whichever penalized peer retains any score at all.
	staleness += float64(s.seq-st.pickedSeq) + 1
	// The distance factor is capped for scoring (the stored EWMA is
	// not): selection bias stays bounded, so no peer can be starved
	// longer than ~(1+cap)·2^failPenaltyCap rounds by a loud neighbor.
	const distanceScoreCap = 7
	d := st.distance
	if d > distanceScoreCap {
		d = distanceScoreCap
	}
	fails := st.fails
	if fails > failPenaltyCap {
		fails = failPenaltyCap
	}
	return staleness * (1 + d) * math.Exp2(-float64(fails))
}

// Pick returns the highest-scoring peer at now and records the pick
// (for least-recently-picked tie-breaking). Empty string when no peers
// are tracked — the caller's round is a no-op then.
func (s *Scheduler) Pick(now time.Time) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var (
		best      string
		bestState *schedPeer
		bestScore float64
		bestHash  uint64
	)
	for p, st := range s.peers {
		sc := s.score(st, now)
		h := pairHash(s.self, p)
		better := false
		switch {
		case bestState == nil:
			better = true
		case sc != bestScore:
			better = sc > bestScore
		case st.pickedSeq != bestState.pickedSeq:
			better = st.pickedSeq < bestState.pickedSeq
		default:
			better = h < bestHash
		}
		if better {
			best, bestState, bestScore, bestHash = p, st, sc, h
		}
	}
	if bestState != nil {
		s.seq++
		bestState.pickedSeq = s.seq
	}
	return best
}

// NoteSuccess records a completed round with peer: the failure penalty
// clears, staleness resets to now, and the observed distance (how many
// delta entries the peer had that we lacked) folds into the EWMA.
func (s *Scheduler) NoteSuccess(peer string, now time.Time, distance float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.peers[peer]
	if st == nil {
		return
	}
	st.fails = 0
	st.lastSuccess = now
	st.distance = s.foldDistance(st.distance, distance)
}

// NoteFailure records a failed round with peer, deepening its penalty.
// It returns the new consecutive-failure count (for event reporting).
func (s *Scheduler) NoteFailure(peer string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.peers[peer]
	if st == nil {
		return 0
	}
	st.fails++
	return st.fails
}

// ObserveSummary folds a distance observation for peer into its EWMA
// without touching staleness — the responder side's signal, derived
// from how far an initiator's offered summary sat from our own ledger.
func (s *Scheduler) ObserveSummary(peer string, distance float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.peers[peer]
	if st == nil {
		return
	}
	st.distance = s.foldDistance(st.distance, distance)
}

// foldDistance applies the EWMA with clamping (non-negative, bounded by
// the largest delta a round can carry).
func (s *Scheduler) foldDistance(old, obs float64) float64 {
	if obs < 0 || math.IsNaN(obs) {
		obs = 0
	}
	const maxDistance = 1 << 10
	if obs > maxDistance {
		obs = maxDistance
	}
	return (1-schedDistanceEWMA)*old + schedDistanceEWMA*obs
}

// Fails returns peer's consecutive-failure count (0 if untracked).
func (s *Scheduler) Fails(peer string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.peers[peer]; st != nil {
		return st.fails
	}
	return 0
}

// UpdatePeers replaces the tracked peer set. State survives for peers
// present in both sets — a dead peer does not earn a fresh probe budget
// because an unrelated node joined — and new peers start at the
// optimistic prior.
func (s *Scheduler) UpdatePeers(peers []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	next := make(map[string]*schedPeer, len(peers))
	for _, p := range peers {
		if p == "" || p == s.self {
			continue
		}
		if _, dup := next[p]; dup {
			continue
		}
		if st := s.peers[p]; st != nil {
			next[p] = st
		} else {
			next[p] = &schedPeer{distance: schedDefaultDistance}
		}
	}
	s.peers = next
}

// Snapshot returns every tracked peer's scheduling state at now, best
// score first (score desc, then name asc for determinism).
func (s *Scheduler) Snapshot(now time.Time) []PeerScore {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]PeerScore, 0, len(s.peers))
	for p, st := range s.peers {
		ps := PeerScore{
			Peer:     p,
			Score:    s.score(st, now),
			Fails:    st.fails,
			Distance: st.distance,
		}
		if !st.lastSuccess.IsZero() {
			ps.LastSuccessUnixNano = st.lastSuccess.UnixNano()
		}
		out = append(out, ps)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Peer < out[j].Peer
	})
	return out
}

// --- persistence ----------------------------------------------------

// The scheduler's per-peer state is the exchange's restart memory: the
// last-success timestamps re-derive staleness across a restart, and the
// persisted failure counts close the old bug where a node restart
// handed every long-dead peer a clean slate and let it burn rounds
// again immediately. The encoding is the usual bounded canon.Tuple.
const (
	schedStateWireLabel = "policy-exchange-sched"
	// maxSchedStatePeers bounds a decoded state file — far above any
	// real fleet, low enough that a corrupt length cannot balloon.
	maxSchedStatePeers = 1 << 16
)

// ErrSchedState is wrapped by rejections of persisted scheduler state.
var ErrSchedState = errors.New("policy: malformed scheduler state")

// EncodeState renders the scheduler's per-peer state for persistence.
// Peer order is sorted, so identical state encodes identically.
func (s *Scheduler) EncodeState() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := slices.Sorted(maps.Keys(s.peers))
	fields := make([][]byte, 0, 1+len(names))
	fields = append(fields, []byte(schedStateWireLabel))
	for _, p := range names {
		st := s.peers[p]
		var last uint64
		if !st.lastSuccess.IsZero() {
			last = uint64(st.lastSuccess.UnixNano())
		}
		fields = append(fields, canon.Tuple(
			[]byte(p),
			canon.Uint64Field(last),
			canon.Uint64Field(uint64(st.fails)),
			canon.Uint64Field(math.Float64bits(st.distance)),
		))
	}
	return canon.Tuple(fields...)
}

// ApplyState restores persisted per-peer state for peers the scheduler
// currently tracks; state for peers no longer in the set is dropped.
// Malformed input is rejected whole — a torn state file costs the
// restart memory, never the scheduler.
func (s *Scheduler) ApplyState(data []byte) error {
	list, err := canon.ScanList(data, schedStateWireLabel, len(data), maxSchedStatePeers)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrSchedState, err)
	}
	type restored struct {
		last     int64
		fails    int
		distance float64
	}
	parsed := make(map[string]restored, list.Len())
	for list.Len() > 0 {
		item, err := canon.ScanTuple(list.Field(len(data)))
		if err != nil {
			return fmt.Errorf("%w: peer record: %w", ErrSchedState, err)
		}
		peer := item.Field(maxPrincipalLen)
		r := restored{last: int64(item.Uint64()), fails: int(item.Uint64()), distance: math.Float64frombits(item.Uint64())}
		if err := item.End(); err != nil {
			return fmt.Errorf("%w: peer record: %w", ErrSchedState, err)
		}
		if d := r.distance; math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
			r.distance = schedDefaultDistance
		}
		parsed[string(peer)] = r
	}
	if err := list.End(); err != nil {
		return fmt.Errorf("%w: %w", ErrSchedState, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for p, st := range s.peers {
		r, ok := parsed[p]
		if !ok {
			continue
		}
		if r.last > 0 {
			st.lastSuccess = time.Unix(0, r.last)
		}
		if r.fails > 0 && r.fails < 1<<20 {
			st.fails = r.fails
		}
		st.distance = r.distance
	}
	return nil
}
