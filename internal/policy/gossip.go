package policy

import (
	"cmp"
	"context"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agent"
	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/host"
	"repro/internal/sigcrypto"
)

// GossipMechanismName is the baggage key and mechanism name of the
// reputation-gossip mechanism.
const GossipMechanismName = "reputation"

// Limits keeping gossip baggage bounded: a malicious host can pad its
// own entries but cannot grow the agent without the next honest host
// trimming the excess.
const (
	// maxGossipEntries bounds the entries carried in baggage.
	maxGossipEntries = 64
	// gossipShareLimit is how many of its own ledger extracts a host
	// shares per departure (the most suspect hosts first).
	gossipShareLimit = 16
	// minGossipSuspicion is the floor below which an extract is not
	// worth sharing.
	minGossipSuspicion = 0.1
	// memoGenSize bounds one generation of a node's extract memo and of
	// its verify memo (see memo): each holds at most twice this many
	// entries however many hosts or signatures pass through the node.
	memoGenSize = 512
)

// rowsPool recycles the ledger-row buffer a departure picks its own
// extracts from.
var rowsPool = sync.Pool{New: func() any { return new([]ledgerRow) }}

// GossipEntry is one signed reputation observation: Observer vouches
// that Host had the given suspicion at time At.
type GossipEntry struct {
	Observer  string
	Host      string
	Suspicion float64
	// AtUnixNano is the observation time; receivers decay from it. For
	// an extract of the observer's own ledger, (Suspicion, AtUnixNano) is
	// a point on the record's decay curve no later than the moment of
	// signing: the point of its last raise, or, while that point is above
	// the merge cap, the later of it and the start of the current grid
	// cell (see claimPoint). Above the cap the claim therefore says "the
	// record was at least Suspicion at AtUnixNano".
	AtUnixNano int64
	Sig        sigcrypto.Signature
}

// bindingDigest is what the entry signature covers: the canon tuple
// ("policy-gossip", observer, host, suspicion bits, time), streamed into
// a pooled hasher so that checking a bundle allocates nothing per entry.
func (e *GossipEntry) bindingDigest() canon.Digest {
	var bits, at [8]byte
	binary.BigEndian.PutUint64(bits[:], math.Float64bits(e.Suspicion))
	binary.BigEndian.PutUint64(at[:], uint64(e.AtUnixNano))
	x := canon.AcquireHasher()
	x.TupleHeader(5)
	x.StringField("policy-gossip")
	x.StringField(e.Observer)
	x.StringField(e.Host)
	x.StringField(string(bits[:]))
	x.StringField(string(at[:]))
	d := x.Sum()
	canon.ReleaseHasher(x)
	return d
}

// Gossip is a core.Mechanism that propagates ledger extracts in agent
// baggage: on departure the host signs its most-suspect ledger entries
// into the agent; on arrival it verifies and merges the entries other
// hosts attached. One node's detection thereby raises suspicion on
// every host the agent subsequently visits, without a separate protocol
// round — detection fused into a cross-event picture instead of dying
// as a point event.
//
// Gossip produces no verdicts: malformed or unverifiable entries are
// dropped silently (they are advisory second-hand evidence, and
// punishing the carrier would blame the wrong principal). Dropping is
// also what keeps the baggage honest: only entries that verified on
// arrival are re-carried on departure, so forged junk cannot crowd
// genuine extracts out of the maxGossipEntries cap — it dies at the
// first honest host.
type Gossip struct {
	core.BaseMechanism
	ledger *Ledger
	now    func() time.Time

	// own remembers, per subject host, the extract this node last signed;
	// extracts reissues it until a raise or, above the merge cap, the
	// next grid cell moves the claim point. seen remembers which (binding
	// digest, signature) pairs this node has verified; only successes go
	// in.
	// Both belong to this node alone — a memo shared through the registry
	// or a package variable would let one node skip a check only another
	// performed — and both start empty and unallocated. The counters
	// beside them feed ExchangeStats; claimsDominated counts the claims
	// departure left out because a claim it carries dominates them
	// (filter.go).
	own             memo[string, GossipEntry]
	seen            memo[[sha256.Size]byte, struct{}]
	extractsSigned  atomic.Int64
	extractsReused  atomic.Int64
	verifyHits      atomic.Int64
	verifyMisses    atomic.Int64
	claimsDominated atomic.Int64

	// exchange is the anti-entropy loop started through the node
	// lifecycle (core.Exchanger); nil when the node runs gossip-in-
	// baggage only. offersServed counts reputation/offer calls answered
	// regardless (a node serves peers even when it initiates no rounds
	// itself). urgentSent / urgentMerged count replies wrapped with
	// urgent extracts and urgent entries merged off replies. All
	// guarded by exMu.
	exMu         sync.Mutex
	exchange     *Exchange
	offersServed int64
	urgentSent   int64
	urgentMerged int64

	// Urgent-extract piggybacking (urgent.go): quarantine-level ledger
	// extracts ride on served protocol replies. urgentAt is the
	// threshold (0 disables — set via SetUrgentThreshold before the
	// node starts); the cache holds the encoded baggage for the ledger
	// version it was built at, guarded by urgMu.
	urgentAt    float64
	urgMu       sync.Mutex
	urgCacheVer uint64
	urgCacheSet bool
	urgCache    []byte

	// bus, when non-nil, receives gossip-merge, exchange-round, and
	// peer-cooldown events; set via SetBus before the node starts.
	bus *events.Bus
}

var (
	_ core.Mechanism   = (*Gossip)(nil)
	_ core.CallHandler = (*Gossip)(nil)
	_ core.Exchanger   = (*Gossip)(nil)
)

// NewGossip builds the mechanism over the node's shared ledger.
func NewGossip(ledger *Ledger) *Gossip {
	if ledger == nil {
		ledger = NewLedger(LedgerConfig{})
	}
	return &Gossip{
		ledger: ledger,
		now:    time.Now,
	}
}

// memo is a bounded map in two generations: puts fill the young one,
// and when it reaches memoGenSize it becomes the old one and the
// previous old one is dropped. A hit in the old generation moves the
// entry to the young one, so what is still in use survives a turnover
// and what is not is gone after two. The zero value is ready and holds
// no memory until the first put.
type memo[K comparable, V any] struct {
	mu         sync.Mutex
	young, old map[K]V
}

func (c *memo[K, V]) get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.young[k]
	if !ok {
		if v, ok = c.old[k]; ok {
			c.putLocked(k, v)
		}
	}
	return v, ok
}

func (c *memo[K, V]) put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(k, v)
}

func (c *memo[K, V]) putLocked(k K, v V) {
	if len(c.young) >= memoGenSize {
		c.old, c.young = c.young, nil
	}
	if c.young == nil {
		c.young = make(map[K]V)
	}
	c.young[k] = v
}

// SetClock replaces the clock that stamps exchange rounds and picks the
// grid cell of extracts above the merge cap (extracts carry points of
// the ledger's record curves, on the ledger's clock — give both the
// same one). Campaign harnesses running on virtual time call it once,
// right after construction and before the node starts any exchange
// loop — the loop captures the clock at start, so later calls do not
// reach an already-running exchange.
func (m *Gossip) SetClock(now func() time.Time) {
	if now != nil {
		m.now = now
	}
}

// SetBus attaches an event bus: merges of verified gossip/exchange
// extracts and the exchange loop's round/cooldown outcomes publish to
// it. Call before the node starts, like SetClock; nil is a no-op.
func (m *Gossip) SetBus(bus *events.Bus) {
	if bus != nil {
		m.bus = bus
	}
}

// Name implements core.Mechanism.
func (m *Gossip) Name() string { return GossipMechanismName }

// decodeEntries parses gossip baggage through the bounded tuple codec
// (see wire.go); a decode error — including an oversized or over-count
// message — reads as empty (the carrier may have been tampered with;
// wholesig, layered outside this mechanism, is what detects that).
func decodeEntries(data []byte) []GossipEntry {
	if len(data) == 0 {
		return nil
	}
	entries, err := decodeEntriesBounded(data, maxGossipEntries)
	if err != nil {
		return nil
	}
	return entries
}

// admissible is the structural half of the arrival filter: no
// self-reports, nothing echoing this host's own observations back, a
// finite positive suspicion, and a signature that at least claims to
// be the observer's.
func admissible(e *GossipEntry, self string) bool {
	if e.Observer == e.Host || e.Observer == self {
		return false
	}
	if e.Suspicion <= 0 || math.IsNaN(e.Suspicion) || math.IsInf(e.Suspicion, 0) {
		return false
	}
	return e.Sig.Signer == e.Observer
}

// seenKey names one (binding digest, signature) pair in the verify
// memo. The digest covers observer, host, suspicion and time, and
// admissible has tied the signer to the observer, so the key stands
// for everything a verification checks.
func seenKey(d canon.Digest, sig []byte) [sha256.Size]byte {
	buf := make([]byte, 0, sha256.Size+maxSigLen)
	buf = append(buf, d[:]...)
	buf = append(buf, sig...)
	return sha256.Sum256(buf)
}

// mergeVerified is the one ingestion path: baggage arrival, exchange
// offers and deltas, and urgent reply baggage all go through it. It
// drops self-reports, entries echoing our own observations back,
// non-finite or non-positive suspicion and entries that would raise no
// record here, checks the signatures of the rest against the claimed
// observers, and merges what verifies. An entry that would raise
// nothing is not checked: merging it writes nothing (Ledger.Merge), and
// nothing received on these paths travels on, so its signature decides
// nothing. It returns the entries it merged.
func (m *Gossip) mergeVerified(reg *sigcrypto.Registry, self string, entries []GossipEntry) []GossipEntry {
	keep := m.verified(reg, self, entries, m.raises)
	m.merge(keep)
	return keep
}

// raises reports whether merging e now would raise this node's record
// of e.Host.
func (m *Gossip) raises(e *GossipEntry) bool {
	return m.ledger.wouldAdopt(e.Host, e.Suspicion, time.Unix(0, e.AtUnixNano))
}

// merge folds entries this node has verified into its ledger.
func (m *Gossip) merge(verified []GossipEntry) {
	for _, e := range verified {
		m.ledger.Merge(e.Host, e.Suspicion, time.Unix(0, e.AtUnixNano))
	}
	if m.bus != nil && len(verified) > 0 {
		m.bus.Publish(events.Event{
			Kind:   events.KindGossipMerge,
			Fields: map[string]string{"entries": strconv.Itoa(len(verified))},
		})
	}
}

// verified is the arrival filter (filter.go), the gate every gossip
// entry passes before this node merges it: the structural checks of
// admissible, then the signature under the observer's registered key.
// It returns the entries that passed, in input order. A non-nil wanted
// narrows the work to the entries it accepts — the rest are left out
// unchecked, which is how ingestion avoids checking signatures whose
// validity would decide nothing (mergeVerified). Departure runs the
// same filter over what it carries on (PrepareDeparture).
//
// A signature is checked once per node, not once per arrival: an entry
// whose exact (digest, signature) bytes this node has already verified
// skips the check, never the structural filter. That is sound because
// the registry refuses to rebind a principal to a different key, so
// bytes that verified once verify always; a failure is never
// remembered.
func (m *Gossip) verified(reg *sigcrypto.Registry, self string, entries []GossipEntry, wanted func(*GossipEntry) bool) []GossipEntry {
	f := m.newFilter(self, nil, entries, wanted)
	f.checkAll(reg)
	var out []GossipEntry
	for _, c := range f.cand {
		if c.state == valid {
			out = append(out, *c.e)
		}
	}
	return out
}

// extracts selects up to limit signed extracts from snap — the ledger's
// rows, most suspect first — skipping the host itself, entries below
// the sharing floor, and any host in the skip set. The exchange
// protocol and urgent baggage use it; departure takes the same claims
// unsigned and signs the ones that travel. One extract format, one
// signer (callers that need the rows for other work too, like the
// exchange's summary, take them once and pass them in).
func (m *Gossip) extracts(snap []ledgerRow, self string, keys *sigcrypto.KeyPair, limit int, skip func(rep core.HostReputation) bool) []GossipEntry {
	out := m.claims(snap, self, limit, skip)
	for i := range out {
		m.sign(&out[i], keys)
	}
	return out
}

// claims is extracts before signing: this host's claims about up to
// limit hosts of snap, with Sig.Signer set and no signature. Selection
// stops at the wire byte budget, counting each claim with its
// signature, so the signed list always encodes within
// MaxGossipWireBytes — a fleet with many long principal names trades
// fewer extracts per message, never a failing one (the most suspect
// hosts still go first; the rest wait for the next departure or round).
//
// A claim is a pure function of the ledger record and, above the merge
// cap, of the grid cell now falls in (claimPoint).
func (m *Gossip) claims(snap []ledgerRow, self string, limit int, skip func(rep core.HostReputation) bool) []GossipEntry {
	if len(self) > maxPrincipalLen {
		// A node whose own name cannot travel in an entry has nothing
		// it can share.
		return nil
	}
	now := m.now().UnixNano()
	var out []GossipEntry
	size := entriesWireHeader
	for _, row := range snap {
		if len(out) >= limit {
			break
		}
		if row.Suspicion < minGossipSuspicion || row.Host == self {
			continue
		}
		if len(row.Host) > maxPrincipalLen {
			// An over-bound principal name cannot go on the wire; skip
			// it rather than fail the whole message (the codec's
			// invariant: a host never emits what peers must reject).
			continue
		}
		if skip != nil && skip(row.HostReputation) {
			continue
		}
		e := GossipEntry{Observer: self, Host: row.Host, Sig: sigcrypto.Signature{Signer: self}}
		e.Suspicion, e.AtUnixNano = m.claimPoint(row.raised, row.raisedAtUnixNano, now)
		n := entryWireSize(&e) + ed25519.SignatureSize
		if size+n > MaxGossipWireBytes {
			break
		}
		size += n
		out = append(out, e)
	}
	return out
}

// sign completes one of this host's claims with its signature: the
// extract memo reissues the one last signed about the host while the
// claim point has not moved, so a claim is signed once per raise and,
// above the merge cap, once per grid cell (claimPoint).
//
// The memo cannot change what is sent: it is consulted only for a claim
// already determined, returns an entry only when host, suspicion and
// time all equal it, and Ed25519 signing is deterministic, so the entry
// is the one signing again would produce.
func (m *Gossip) sign(e *GossipEntry, keys *sigcrypto.KeyPair) {
	if c, ok := m.own.get(e.Host); ok && c.Suspicion == e.Suspicion && c.AtUnixNano == e.AtUnixNano {
		m.extractsReused.Add(1)
		*e = c
		return
	}
	e.Sig = keys.SignDigest(e.bindingDigest())
	m.extractsSigned.Add(1)
	m.own.put(e.Host, *e)
}

// claimPoint is the point of a record's decay curve an extract claims:
// the raise point (raised, raisedAt) while it is at or below the merge
// cap or decay is off, otherwise the curve sampled at the start of
// now's grid cell when that is later than the raise.
//
// A record moves along one decay curve until it is raised, and a
// receiver decays a claim from AtUnixNano, so any point of the curve no
// later than now says what a re-stamped (current value, now) claim
// would — as long as the point is at or below maxMergeSuspicion. That
// point is the raise point, signed once and reissued until the next
// raise moves it.
//
// Above the cap a receiver clamps the claim before it decays it, so a
// point of the curve is worth less there the older it is — the raise
// point by up to h·log2(s/cap), the whole time a record of s spends
// above the cap. Such a record is sampled at the later of its raise
// point and the start of the current grid cell (extractCell, a 64th of
// the half-life), so it is signed once per cell and per raise, and a
// receiver adopts at most 2^(-1/64), 1.1 %, less than from a claim
// stamped at signing. The receiver's rule is untouched, so every bound
// it enforces on what a claim can inject holds as before; and because
// every above-cap observer samples the same grid point, their claims
// about one host clamp to the same value and raise a receiver once per
// cell, not once per arrival.
func (m *Gossip) claimPoint(raised float64, raisedAt, now int64) (float64, int64) {
	halfLife := m.ledger.cfg.HalfLife
	if raised <= maxMergeSuspicion || halfLife < 0 {
		return raised, raisedAt
	}
	grid := now - now%extractCell(halfLife)
	if grid <= raisedAt {
		return raised, raisedAt
	}
	return raised * math.Exp2(-float64(grid-raisedAt)/float64(halfLife)), grid
}

// extractCell is the grid step, in nanoseconds, of extracts above the
// merge cap: a 64th of the half-life, 4.7 s at the default five
// minutes.
func extractCell(halfLife time.Duration) int64 {
	return max(int64(halfLife)/64, 1)
}

// CheckAfterSession merges the agent's gossip into the local ledger:
// every arriving entry that would raise a record is verified and
// merged. An entry that would raise nothing is not looked at further —
// merging it writes nothing (Ledger.Merge), so its signature would
// decide nothing here; whether it travels on is decided, with the
// signature check, by PrepareDeparture if the agent ever departs. The
// ledger ends exactly where verifying all of them would leave it, and
// an agent that ends here (quarantined or completed) costs only the
// checks that could matter and leaves nothing behind.
func (m *Gossip) CheckAfterSession(_ context.Context, hc *core.HostContext, ag *agent.Agent) (*core.Verdict, error) {
	data, ok := ag.GetBaggage(GossipMechanismName)
	if !ok {
		return nil, nil
	}
	m.mergeVerified(hc.Host.Registry(), hc.Host.Name(), decodeEntries(data))
	return nil, nil
}

// PrepareDeparture refreshes the agent's gossip baggage: this host's
// own most-suspect ledger extracts joined with the travelling entries
// this node has verified, newest per (observer, host), in bagOrder and
// capped at maxGossipEntries. The baggage is still what arrived, so it
// is put through the arrival filter here, with this host's own claims,
// unsigned, counted as accepted from the start: what CheckAfterSession
// verified moments ago (or any earlier agent brought) the verify memo
// vouches for, the rest is checked now, and nothing that fails is
// carried. An entry one of them dominates is dropped unchecked, and an
// own claim that a carried entry dominates is never signed; it still
// takes its slot among the gossipShareLimit rows, so a bag never says
// more than one without dominance would. A claim observed by the next
// hop (rec's migration target) dominates nothing: the next hop drops
// it on arrival.
func (m *Gossip) PrepareDeparture(_ context.Context, hc *core.HostContext, ag *agent.Agent, rec *host.SessionRecord) error {
	self := hc.Host.Name()
	data, _ := ag.GetBaggage(GossipMechanismName)
	rows := rowsPool.Get().(*[]ledgerRow)
	*rows = m.ledger.appendRows((*rows)[:0])
	own := m.claims(*rows, self, gossipShareLimit, nil)
	rowsPool.Put(rows)
	f := m.newFilter(self, own, decodeEntries(data), nil)
	if rec != nil {
		f.next = rec.Outcome.MigrateHost
	}
	acc := f.run(hc.Host.Registry())
	if len(acc) == 0 {
		// Nothing worth carrying: strip any baggage that failed
		// verification rather than ferrying it onward.
		ag.ClearBaggage(GossipMechanismName)
		return nil
	}
	slices.SortFunc(acc, func(i, j int) int { return cmp.Compare(f.cand[i].rank, f.cand[j].rank) })
	entries := make([]GossipEntry, min(len(acc), maxGossipEntries))
	for k := range entries {
		c := &f.cand[acc[k]]
		entries[k] = *c.e
		if c.own {
			m.sign(&entries[k], hc.Host.Keys())
		}
	}
	enc, err := encodeEntries(entries)
	if err != nil {
		return fmt.Errorf("policy: encoding gossip: %w", err)
	}
	ag.SetBaggage(GossipMechanismName, enc)
	return nil
}
