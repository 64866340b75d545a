package policy

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/transport"
)

// Anti-entropy reputation exchange. Gossip in agent baggage spreads a
// detection only along the carrying agent's route: two sub-fleets whose
// agents never cross paths never converge on a shared picture of a
// cheater, no matter how many times one of them catches it. The
// Exchange closes that gap with a classic anti-entropy protocol over
// the existing call path:
//
//	initiator                         responder
//	   | reputation/offer                 |
//	   |  (initiator, budget,             |
//	   |   ledger summary,                |
//	   |   own signed extracts)  -------> |  verify + Merge extracts
//	   |                                  |  delta = own extracts the
//	   |                                  |  summary shows the initiator
//	   | <------ signed extract delta     |  is missing
//	   |  verify + Merge                  |
//
// Both directions carry ordinary GossipEntry extracts — the same
// signed format, the same bounded tuple codec, and the same
// verify-then-Merge ingestion as baggage gossip — so the damping and
// merge cap that bound defamation for in-baggage gossip bound the
// exchange identically: a lying peer can assert at most
// maxMergeSuspicion about a victim, adopted value contracts by
// gossipDamping per relay hop, and replayed or duplicated offers are
// idempotent because Merge is a decayed max.
//
// Partner selection is the weighted Scheduler (schedule.go): each round
// visits the peer scoring highest on staleness × estimated ledger
// distance, with failures folded in as a score penalty. With nothing to
// separate peers the scheduler degenerates to a deterministic
// round-robin, so the old ring's convergence bound — every peer within
// len(peers) rounds — still holds; with signal, divergent and
// long-unseen peers are reached sooner.
//
// In hierarchical mode (core.ExchangeRoleMember / RoleAggregator) the
// same loop runs over a role-derived partner pool: members pull from
// the designated aggregators only, aggregators from each other with a
// larger budget, and the fleet's per-round message count drops from
// O(N²) toward O(N + A²).
const (
	// offerWireLabel / summaryWireLabel / deltaWireLabel version the
	// three exchange message framings.
	offerWireLabel   = "policy-gossip-offer"
	summaryWireLabel = "policy-gossip-summary"
	deltaWireLabel   = "policy-gossip-delta"

	// MaxExchangeWireBytes bounds a whole offer or delta message; it is
	// checked before parsing, like the entry-list bound.
	MaxExchangeWireBytes = 256 * 1024
	// maxSummaryEntries bounds the ledger summary an offer may carry;
	// maxSummaryWireBytes bounds its encoded size on the sending side
	// (half the message bound, leaving room for the pushed entry list
	// plus framing), so long principal names shrink the summary
	// instead of failing the round.
	maxSummaryEntries   = 1024
	maxSummaryWireBytes = MaxExchangeWireBytes / 2
	// exchangeCallTimeout bounds one peer call so a hung peer cannot
	// stall the loop past its own round.
	exchangeCallTimeout = 15 * time.Second
)

// ErrExchangeWire is wrapped by rejections of exchange message framing.
var ErrExchangeWire = errors.New("policy: malformed exchange message")

// summaryItem is one (host, suspicion) pair of an offer's ledger
// summary: what the initiator already believes, so the responder can
// answer with only the delta.
type summaryItem struct {
	Host      string
	Suspicion float64
}

// encodeOffer renders an offer: the initiator's name (so the responder
// can feed its own scheduler's distance estimate for that peer), its
// reply budget, its ledger summary, and its own signed extracts (the
// push half).
func encodeOffer(initiator string, budget int, summary []summaryItem, entries []GossipEntry) ([]byte, error) {
	if len(initiator) > maxPrincipalLen {
		return nil, fmt.Errorf("%w: initiator name over bound", ErrExchangeWire)
	}
	enc, err := encodeEntries(entries)
	if err != nil {
		return nil, err
	}
	sfields := make([][]byte, 0, 1+len(summary))
	sfields = append(sfields, []byte(summaryWireLabel))
	for _, s := range summary {
		if len(s.Host) > maxPrincipalLen {
			return nil, fmt.Errorf("%w: summary host over bound", ErrExchangeWire)
		}
		sfields = append(sfields, canon.Tuple([]byte(s.Host), appendU64(floatBits(s.Suspicion))))
	}
	out := canon.Tuple(
		[]byte(offerWireLabel),
		[]byte(initiator),
		appendU64(uint64(budget)),
		canon.Tuple(sfields...),
		enc,
	)
	if len(out) > MaxExchangeWireBytes {
		return nil, fmt.Errorf("%w: %d bytes over %d", ErrExchangeWire, len(out), MaxExchangeWireBytes)
	}
	return out, nil
}

// decodeOffer parses an offer, clamping the requested budget and
// bounding every dimension before allocation. The initiator name is
// advisory routing metadata (it tunes the responder's scheduler), not
// trust: trust rides only on the per-entry signatures.
func decodeOffer(body []byte) (initiator string, budget int, summary map[string]float64, entries []GossipEntry, err error) {
	if len(body) > MaxExchangeWireBytes {
		return "", 0, nil, nil, fmt.Errorf("%w: %d bytes over %d", ErrExchangeWire, len(body), MaxExchangeWireBytes)
	}
	fields, err := canon.ParseTuple(body)
	if err != nil {
		return "", 0, nil, nil, fmt.Errorf("%w: %v", ErrExchangeWire, err)
	}
	if len(fields) != 5 || string(fields[0]) != offerWireLabel ||
		len(fields[1]) > maxPrincipalLen || len(fields[2]) != 8 {
		return "", 0, nil, nil, fmt.Errorf("%w: bad offer framing", ErrExchangeWire)
	}
	initiator = string(fields[1])
	budget = int(binary.BigEndian.Uint64(fields[2]))
	if budget < 1 {
		budget = 1
	}
	if budget > core.MaxExchangeBudget {
		budget = core.MaxExchangeBudget
	}
	sfields, err := canon.ParseTuple(fields[3])
	if err != nil {
		return "", 0, nil, nil, fmt.Errorf("%w: summary: %v", ErrExchangeWire, err)
	}
	if len(sfields) == 0 || string(sfields[0]) != summaryWireLabel {
		return "", 0, nil, nil, fmt.Errorf("%w: bad summary framing", ErrExchangeWire)
	}
	if len(sfields)-1 > maxSummaryEntries {
		return "", 0, nil, nil, fmt.Errorf("%w: %d summary entries over %d", ErrExchangeWire, len(sfields)-1, maxSummaryEntries)
	}
	summary = make(map[string]float64, len(sfields)-1)
	for _, f := range sfields[1:] {
		item, err := canon.ParseTuple(f)
		if err != nil || len(item) != 2 || len(item[0]) > maxPrincipalLen || len(item[1]) != 8 {
			return "", 0, nil, nil, fmt.Errorf("%w: bad summary item", ErrExchangeWire)
		}
		summary[string(item[0])] = floatFromBits(binary.BigEndian.Uint64(item[1]))
	}
	entries, err = decodeEntriesBounded(fields[4], core.MaxExchangeBudget)
	if err != nil {
		return "", 0, nil, nil, err
	}
	return initiator, budget, summary, entries, nil
}

// encodeDelta renders the responder's reply: its signed extracts the
// initiator's summary showed missing.
func encodeDelta(entries []GossipEntry) ([]byte, error) {
	enc, err := encodeEntries(entries)
	if err != nil {
		return nil, err
	}
	return canon.Tuple([]byte(deltaWireLabel), enc), nil
}

// decodeDelta parses a delta reply under the same bounds as an offer.
func decodeDelta(body []byte) ([]GossipEntry, error) {
	if len(body) > MaxExchangeWireBytes {
		return nil, fmt.Errorf("%w: %d bytes over %d", ErrExchangeWire, len(body), MaxExchangeWireBytes)
	}
	fields, err := canon.ParseTuple(body)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrExchangeWire, err)
	}
	if len(fields) != 2 || string(fields[0]) != deltaWireLabel {
		return nil, fmt.Errorf("%w: bad delta framing", ErrExchangeWire)
	}
	return decodeEntriesBounded(fields[1], core.MaxExchangeBudget)
}

// Exchange runs the anti-entropy loop for one node. It is created
// through Gossip.StartExchange (the node lifecycle); tests and the
// bench harness drive rounds deterministically with Step.
type Exchange struct {
	gossip *Gossip
	hc     *core.HostContext
	self   string
	cfg    core.ExchangeConfig
	now    func() time.Time

	// sched is the weighted partner scheduler over the role-derived
	// pool; role and aggSet derive partner pools from membership
	// updates; budget is the effective per-round entry budget (the
	// aggregator budget on the aggregator tier).
	sched  *Scheduler
	role   core.ExchangeRole
	aggSet map[string]bool
	budget int
	// statePath, when non-empty, persists the scheduler's per-peer
	// state after every round (and loads it at construction) — the
	// restart memory that keeps a recovered node from re-probing every
	// long-dead peer at full budget.
	statePath string

	mu      sync.Mutex
	stats   core.ExchangeStats
	stopped bool

	stop chan struct{}
	done chan struct{}
}

// newExchange validates and normalizes the configuration, derives the
// role's partner pool, and restores persisted scheduler state.
func newExchange(g *Gossip, hc *core.HostContext, cfg core.ExchangeConfig) (*Exchange, error) {
	if hc == nil || hc.Host == nil || hc.Net == nil {
		return nil, errors.New("policy: exchange needs a host context with a network")
	}
	self := hc.Host.Name()
	role := cfg.Role
	if role == "" {
		role = core.ExchangeRoleFlat
	}
	if cfg.Interval <= 0 {
		cfg.Interval = core.DefaultExchangeInterval
	}
	if cfg.Budget <= 0 {
		cfg.Budget = core.DefaultExchangeBudget
	}
	if cfg.Budget > core.MaxExchangeBudget {
		cfg.Budget = core.MaxExchangeBudget
	}
	budget := cfg.Budget
	var aggSet map[string]bool
	if role != core.ExchangeRoleFlat {
		if len(cfg.Aggregators) == 0 {
			return nil, fmt.Errorf("policy: exchange role %q at %s needs aggregators", role, self)
		}
		aggSet = make(map[string]bool, len(cfg.Aggregators))
		for _, a := range cfg.Aggregators {
			if a != "" {
				aggSet[a] = true
			}
		}
		if role == core.ExchangeRoleAggregator {
			if !aggSet[self] {
				return nil, fmt.Errorf("policy: aggregator %s is not in its own aggregator list", self)
			}
			budget = cfg.AggregatorBudget
			if budget <= 0 {
				budget = core.DefaultAggregatorBudgetFactor * cfg.Budget
			}
			if budget > core.MaxExchangeBudget {
				budget = core.MaxExchangeBudget
			}
		}
	}
	pool, err := derivePool(self, role, aggSet, cfg.Peers)
	if err != nil {
		return nil, err
	}
	x := &Exchange{
		gossip:    g,
		hc:        hc,
		self:      self,
		cfg:       cfg,
		now:       g.now,
		sched:     NewScheduler(self, pool, g.now()),
		role:      role,
		aggSet:    aggSet,
		budget:    budget,
		statePath: cfg.StatePath,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	x.stats.Role = string(role)
	if x.statePath != "" {
		if data, err := os.ReadFile(x.statePath); err == nil {
			// A torn or stale state file costs only the restart memory;
			// the scheduler starts fresh then.
			_ = x.sched.ApplyState(data)
		}
	}
	return x, nil
}

// derivePool maps a fleet membership list to the node's partner pool
// for its tier. Flat nodes draw from the whole list; members from the
// aggregators; aggregators from the other aggregators (a sole
// aggregator gets an empty pool — it initiates nothing but still
// serves its members' offers).
func derivePool(self string, role core.ExchangeRole, aggSet map[string]bool, fleet []string) ([]string, error) {
	var pool []string
	switch role {
	case core.ExchangeRoleFlat:
		pool = dedupe(self, fleet)
		if len(pool) == 0 {
			return nil, fmt.Errorf("policy: exchange at %s has no usable peers", self)
		}
	case core.ExchangeRoleMember:
		for a := range aggSet {
			if a != self {
				pool = append(pool, a)
			}
		}
		if len(pool) == 0 {
			return nil, fmt.Errorf("policy: member %s has no usable aggregators", self)
		}
	case core.ExchangeRoleAggregator:
		for a := range aggSet {
			if a != self {
				pool = append(pool, a)
			}
		}
	default:
		return nil, fmt.Errorf("policy: unknown exchange role %q", role)
	}
	return pool, nil
}

// dedupe drops empties, self, and duplicates, preserving order.
func dedupe(self string, list []string) []string {
	seen := make(map[string]bool, len(list))
	out := make([]string, 0, len(list))
	for _, p := range list {
		if p == "" || p == self || seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	return out
}

// UpdatePeers adopts a new fleet membership. Flat nodes replace their
// pool with the list; hierarchical tiers re-derive theirs from the
// configured aggregator set intersected with the list (an aggregator
// that left the fleet stops being anyone's partner, but membership
// churn among plain members never touches a member's pool). Scheduler
// state survives for peers present in both pools — a dead peer does
// not earn a fresh probe budget because an unrelated node joined.
func (x *Exchange) UpdatePeers(peers []string) error {
	var pool []string
	switch x.role {
	case core.ExchangeRoleFlat:
		pool = dedupe(x.self, peers)
		if len(pool) == 0 {
			return fmt.Errorf("policy: exchange at %s has no usable peers", x.self)
		}
	default:
		present := make(map[string]bool, len(peers))
		for _, p := range peers {
			present[p] = true
		}
		for a := range x.aggSet {
			if a != x.self && present[a] {
				pool = append(pool, a)
			}
		}
		if x.role == core.ExchangeRoleMember && len(pool) == 0 {
			return fmt.Errorf("policy: member %s has no usable aggregators", x.self)
		}
	}
	x.sched.UpdatePeers(pool)
	return nil
}

// run paces Step until the node closes or the loop is stopped.
func (x *Exchange) run(ctx context.Context) {
	defer close(x.done)
	t := time.NewTicker(x.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-x.stop:
			return
		case <-t.C:
			_ = x.Step(ctx)
		}
	}
}

// halt stops the loop and blocks until it has exited; idempotent.
func (x *Exchange) halt() {
	x.mu.Lock()
	if !x.stopped {
		x.stopped = true
		close(x.stop)
	}
	x.mu.Unlock()
	<-x.done
}

// Stats snapshots the loop's counters (the offer-serving and urgent
// counters live on the Gossip mechanism; Gossip.ExchangeStats merges
// them in).
func (x *Exchange) Stats() core.ExchangeStats {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.stats
}

// Scheduler exposes the partner scheduler for harnesses and the
// federation stats surface. Treat as read-mostly: driving it directly
// while the loop runs will interleave with the loop's own updates.
func (x *Exchange) Scheduler() *Scheduler { return x.sched }

// Role returns the loop's federation tier.
func (x *Exchange) Role() core.ExchangeRole { return x.role }

// persistSched writes the scheduler's state to statePath atomically
// (temp + rename). Failures are silent-but-bounded: the state is pure
// optimization, and the next successful round retries the write.
func (x *Exchange) persistSched() {
	if x.statePath == "" {
		return
	}
	data := x.sched.EncodeState()
	tmp := x.statePath + ".tmp"
	if err := os.MkdirAll(filepath.Dir(x.statePath), 0o755); err != nil {
		return
	}
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return
	}
	_ = os.Rename(tmp, x.statePath)
}

// Step runs one exchange round against the scheduler's best-scoring
// peer: push our signed extracts, pull the peer's delta, verify and
// merge it. Exported so tests and the campaign can drive rounds
// deterministically instead of waiting out the interval; the
// background loop calls it on every tick. With an empty partner pool
// (a sole aggregator) the round is a no-op.
func (x *Exchange) Step(ctx context.Context) error {
	now := x.now()
	peer := x.sched.Pick(now)
	if peer == "" {
		return nil
	}
	received, merged, err := x.exchangeWith(ctx, peer)
	if err == nil {
		// Distance signal: how many entries the peer held that we
		// lacked. A peer we are fully synced with scores toward plain
		// staleness; a divergent one is revisited sooner.
		x.sched.NoteSuccess(peer, x.now(), float64(received))
	} else {
		x.sched.NoteFailure(peer)
	}
	x.persistSched()
	x.mu.Lock()
	x.stats.Rounds++
	x.stats.LastPeer = peer
	x.stats.LastUnixNano = x.now().UnixNano()
	if err != nil {
		x.stats.Failures++
	}
	x.mu.Unlock()
	fails := x.sched.Fails(peer)
	if bus := x.gossip.bus; bus != nil {
		ok := "true"
		if err != nil {
			ok = "false"
		}
		bus.Publish(events.Event{
			Kind: events.KindExchangeRound,
			Host: peer,
			Fields: map[string]string{
				"ok":     ok,
				"merged": strconv.FormatInt(int64(merged), 10),
			},
		})
		if err != nil {
			capped := fails
			if capped > failPenaltyCap {
				capped = failPenaltyCap
			}
			bus.Publish(events.Event{
				Kind: events.KindPeerCooldown,
				Host: peer,
				Fields: map[string]string{
					"fails":   strconv.Itoa(fails),
					"penalty": fmt.Sprintf("2^-%d", capped),
				},
			})
		}
	}
	return err
}

// exchangeWith performs the offer/delta round trip with one peer,
// returning how many delta entries the peer sent and how many merged.
func (x *Exchange) exchangeWith(ctx context.Context, peer string) (received, merged int, err error) {
	ctx, cancel := context.WithTimeout(ctx, exchangeCallTimeout)
	defer cancel()

	// One ledger snapshot serves the whole round: the push half (our
	// extracts, budget-capped) and the summary, which covers a wider
	// slice than we push so the peer can skip anything we already know
	// at least as well.
	snap := x.gossip.ledger.rows()
	push := x.gossip.extracts(snap, x.self, x.hc.Host.Keys(), x.budget, nil)
	summaryLimit := 4 * x.budget
	if summaryLimit > maxSummaryEntries {
		summaryLimit = maxSummaryEntries
	}
	var summary []summaryItem
	size := 0
	for _, rep := range snap {
		if len(summary) >= summaryLimit {
			break
		}
		if len(rep.Host) > maxPrincipalLen {
			// Unencodable name: skip it (as extract selection does)
			// rather than fail the round.
			continue
		}
		size += summaryItemWireSize(rep.Host)
		if size > maxSummaryWireBytes {
			break
		}
		summary = append(summary, summaryItem{Host: rep.Host, Suspicion: rep.Suspicion})
	}
	body, err := encodeOffer(x.self, x.budget, summary, push)
	if err != nil {
		return 0, 0, fmt.Errorf("policy: exchange at %s: %w", x.self, err)
	}
	reply, err := x.hc.Net.Call(ctx, peer, GossipMechanismName+"/offer", body)
	if err != nil {
		return 0, 0, fmt.Errorf("policy: exchange %s->%s: %w", x.self, peer, err)
	}
	// The reply may still carry an urgent envelope when the loop's
	// network is the raw transport (harness-driven exchanges outside a
	// node); inside a node the urgent-aware wrapper has already opened
	// and merged it, and this unwrap is a no-op.
	payload, baggage := transport.OpenReply(reply)
	if len(baggage) > 0 {
		x.gossip.MergeUrgentBaggage(x.hc, baggage)
	}
	delta, err := decodeDelta(payload)
	if err != nil {
		return 0, 0, fmt.Errorf("policy: exchange %s->%s: %w", x.self, peer, err)
	}
	kept := x.gossip.mergeVerified(x.hc.Host.Registry(), x.self, delta)
	x.mu.Lock()
	x.stats.EntriesSent += int64(len(push))
	x.stats.EntriesReceived += int64(len(delta))
	x.stats.EntriesMerged += int64(len(kept))
	x.mu.Unlock()
	return len(delta), len(kept), nil
}

// floatBits / floatFromBits keep the summary's float encoding in one
// place (IEEE-754 big-endian bits, like every float on this wire).
func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(u uint64) float64 { return math.Float64frombits(u) }

// --- Gossip's exchange surface -------------------------------------

// HandleCall implements core.CallHandler: "offer" answers one
// anti-entropy round. The pushed extracts pass through the same
// verify-then-Merge as baggage gossip; the reply carries this host's
// own signed extracts for every ledger entry the initiator's summary
// shows it is missing (or knows weaker than damping could improve).
func (m *Gossip) HandleCall(_ context.Context, hc *core.HostContext, method string, body []byte) ([]byte, error) {
	if method != "offer" {
		return nil, fmt.Errorf("%w: %s/%s", transport.ErrUnknownMethod, GossipMechanismName, method)
	}
	initiator, budget, summary, pushed, err := decodeOffer(body)
	if err != nil {
		return nil, err
	}
	self := hc.Host.Name()
	m.mergeVerified(hc.Host.Registry(), self, pushed)
	delta := m.extracts(m.ledger.rows(), self, hc.Host.Keys(), budget, func(rep core.HostReputation) bool {
		have, known := summary[rep.Host]
		// Useless to send: after damping the initiator's merge could
		// not raise what it already has.
		return known && rep.Suspicion*gossipDamping <= have+1e-9
	})
	m.exMu.Lock()
	m.offersServed++
	x := m.exchange
	m.exMu.Unlock()
	if x != nil && initiator != "" {
		// The delta size is also how far the initiator's ledger sat
		// from ours — fold it into our own scheduler's estimate for
		// that peer (a no-op when the initiator is not in our pool).
		x.sched.ObserveSummary(initiator, float64(len(delta)))
	}
	return encodeDelta(delta)
}

// StartExchange implements core.Exchanger: the node starts the loop at
// construction and stops it at Close. A Gossip instance runs at most
// one loop (mechanism instances are per-node).
func (m *Gossip) StartExchange(ctx context.Context, hc *core.HostContext, cfg core.ExchangeConfig) (func(), error) {
	x, err := newExchange(m, hc, cfg)
	if err != nil {
		return nil, err
	}
	m.exMu.Lock()
	if m.exchange != nil {
		m.exMu.Unlock()
		return nil, errors.New("policy: exchange already started for this gossip mechanism")
	}
	m.exchange = x
	m.exMu.Unlock()
	go x.run(ctx)
	return x.halt, nil
}

// Exchange returns the running anti-entropy loop, or nil when the node
// runs gossip-in-baggage only. Tests and the campaign use it to drive
// rounds deterministically.
func (m *Gossip) Exchange() *Exchange {
	m.exMu.Lock()
	defer m.exMu.Unlock()
	return m.exchange
}

// UpdateExchangePeers implements core.ExchangePeerUpdater: the running
// loop adopts a new fleet membership without a node restart. Errors
// when no loop is running (gossip-in-baggage only) or when the new
// list leaves the node's tier without usable partners.
func (m *Gossip) UpdateExchangePeers(peers []string) error {
	m.exMu.Lock()
	x := m.exchange
	m.exMu.Unlock()
	if x == nil {
		return errors.New("policy: no exchange loop running for this gossip mechanism")
	}
	return x.UpdatePeers(peers)
}

var _ core.ExchangePeerUpdater = (*Gossip)(nil)

// ExchangeStats implements core.ExchangeReporter.
func (m *Gossip) ExchangeStats() (core.ExchangeStats, bool) {
	var st core.ExchangeStats
	m.exMu.Lock()
	x := m.exchange
	served := m.offersServed
	urgentSent := m.urgentSent
	urgentMerged := m.urgentMerged
	m.exMu.Unlock()
	if x != nil {
		st = x.Stats()
	}
	st.OffersServed = served
	st.UrgentSent = urgentSent
	st.UrgentMerged = urgentMerged
	st.ExtractsSigned = m.extractsSigned.Load()
	st.ExtractsReused = m.extractsReused.Load()
	st.VerifyHits = m.verifyHits.Load()
	st.VerifyMisses = m.verifyMisses.Load()
	st.ClaimsDominated = m.claimsDominated.Load()
	return st, x != nil
}

// Close stops the exchange loop, if one is running; io.Closer so
// protection.Stack.Close tears the loop down with the rest of the
// stack. Safe to call alongside (or after) the owning node's Close.
func (m *Gossip) Close() error {
	m.exMu.Lock()
	x := m.exchange
	m.exMu.Unlock()
	if x != nil {
		x.halt()
	}
	return nil
}
