package policy

import (
	"context"
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
	"repro/internal/shardstore"
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
// The aggregator list (core.ExchangeConfig.Aggregators) alone sets the
// partner pool and the budget the same loop runs with. With no list the
// node is flat and draws from the whole peer list. With one, a member
// (not on the list) pulls from the aggregators only and an aggregator
// (on it) from the other aggregators with a larger budget, so the
// fleet's per-round message count drops from O(N²) toward O(N + A²).
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
		sfields = append(sfields, canon.Tuple([]byte(s.Host), canon.Uint64Field(math.Float64bits(s.Suspicion))))
	}
	out := canon.Tuple(
		[]byte(offerWireLabel),
		[]byte(initiator),
		canon.Uint64Field(uint64(budget)),
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
	s, err := canon.ScanList(body, offerWireLabel, MaxExchangeWireBytes, 4)
	if err != nil {
		return "", 0, nil, nil, fmt.Errorf("%w: %w", ErrExchangeWire, err)
	}
	initiator = string(s.Field(maxPrincipalLen))
	budget = min(max(int(s.Uint64()), 1), core.MaxExchangeBudget)
	sumEnc, entriesEnc := s.Field(len(body)), s.Field(len(body))
	if err := s.End(); err != nil {
		return "", 0, nil, nil, fmt.Errorf("%w: offer: %w", ErrExchangeWire, err)
	}
	if summary, err = decodeSummary(sumEnc); err != nil {
		return "", 0, nil, nil, fmt.Errorf("%w: summary: %w", ErrExchangeWire, err)
	}
	entries, err = decodeEntriesBounded(entriesEnc, core.MaxExchangeBudget)
	if err != nil {
		return "", 0, nil, nil, err
	}
	return initiator, budget, summary, entries, nil
}

// decodeSummary parses an offer's ledger summary.
func decodeSummary(data []byte) (map[string]float64, error) {
	s, err := canon.ScanList(data, summaryWireLabel, len(data), maxSummaryEntries)
	if err != nil {
		return nil, err
	}
	summary := make(map[string]float64, s.Len())
	for s.Len() > 0 {
		item, err := canon.ScanTuple(s.Field(len(data)))
		if err != nil {
			return nil, err
		}
		host, bits := item.Field(maxPrincipalLen), item.Uint64()
		if err := item.End(); err != nil {
			return nil, err
		}
		summary[string(host)] = math.Float64frombits(bits)
	}
	return summary, s.End()
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
	s, err := canon.ScanList(body, deltaWireLabel, MaxExchangeWireBytes, 1)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrExchangeWire, err)
	}
	entries := s.Field(len(body))
	if err := s.End(); err != nil {
		return nil, fmt.Errorf("%w: delta: %w", ErrExchangeWire, err)
	}
	return decodeEntriesBounded(entries, core.MaxExchangeBudget)
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

	// sched is the weighted partner scheduler over the pool that pool
	// derives; aggs is the configured aggregator list as a set (nil on
	// a flat node); budget is the effective per-round entry budget
	// (the aggregator budget on the aggregator tier).
	sched  *Scheduler
	aggs   map[string]bool
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

// newExchange normalizes the configuration, derives the node's tier,
// budget and partner pool from its aggregator list, and restores
// persisted scheduler state.
func newExchange(g *Gossip, hc *core.HostContext, cfg core.ExchangeConfig) (*Exchange, error) {
	if hc == nil || hc.Host == nil || hc.Net == nil {
		return nil, errors.New("policy: exchange needs a host context with a network")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = core.DefaultExchangeInterval
	}
	if cfg.Budget <= 0 {
		cfg.Budget = core.DefaultExchangeBudget
	}
	cfg.Budget = min(cfg.Budget, core.MaxExchangeBudget)
	x := &Exchange{
		gossip:    g,
		hc:        hc,
		self:      hc.Host.Name(),
		cfg:       cfg,
		now:       g.now,
		budget:    cfg.Budget,
		statePath: cfg.StatePath,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	list := cfg.Peers
	if len(cfg.Aggregators) > 0 {
		list = cfg.Aggregators
		x.aggs = make(map[string]bool, len(list))
		for _, a := range list {
			x.aggs[a] = true
		}
	}
	x.stats.Role = "flat"
	switch {
	case x.aggs[x.self]:
		x.stats.Role = "aggregator"
		x.budget = min(core.DefaultAggregatorBudgetFactor*cfg.Budget, core.MaxExchangeBudget)
	case x.aggs != nil:
		x.stats.Role = "member"
	}
	pool, err := x.pool(list)
	if err != nil {
		return nil, err
	}
	x.sched = NewScheduler(x.self, pool, g.now())
	if x.statePath != "" {
		if data, err := os.ReadFile(x.statePath); err == nil {
			// A torn or stale state file costs only the restart memory;
			// the scheduler starts fresh then.
			_ = x.sched.ApplyState(data)
		}
	}
	return x, nil
}

// pool maps a fleet membership list to the node's partners by the one
// topology rule: a flat node draws from the whole list, a federated
// node from the aggregators on it, and no node from itself. Only an
// aggregator may be left without partners (a sole aggregator initiates
// nothing but still serves its members' offers). Duplicates are left
// to the scheduler, which keeps one entry per peer.
func (x *Exchange) pool(list []string) ([]string, error) {
	var pool []string
	for _, p := range list {
		if p != "" && p != x.self && (x.aggs == nil || x.aggs[p]) {
			pool = append(pool, p)
		}
	}
	if len(pool) == 0 && !x.aggs[x.self] {
		return nil, fmt.Errorf("policy: exchange at %s (%s) has no usable partners", x.self, x.stats.Role)
	}
	return pool, nil
}

// UpdatePeers adopts a new fleet membership, re-deriving the pool by
// the same rule: a flat node's pool becomes the list, a federated
// node's the aggregators still on it (an aggregator that left the
// fleet stops being anyone's partner, but churn among plain members
// never touches a member's pool). Scheduler state survives for peers
// present in both pools — a dead peer does not earn a fresh probe
// budget because an unrelated node joined.
func (x *Exchange) UpdatePeers(peers []string) error {
	pool, err := x.pool(peers)
	if err != nil {
		return err
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

// persistSched writes the scheduler's state to statePath durably
// (shardstore.WriteFile). Failures are silent-but-bounded: the state is
// pure optimization, and the next successful round retries the write.
func (x *Exchange) persistSched() {
	if x.statePath == "" {
		return
	}
	if err := os.MkdirAll(filepath.Dir(x.statePath), 0o755); err != nil {
		return
	}
	_ = shardstore.WriteFile(x.statePath, x.sched.EncodeState(), 0o644)
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
	now := m.ledger.now()
	delta := m.extracts(m.ledger.rows(), self, hc.Host.Keys(), budget, func(rep core.HostReputation) bool {
		// Useless to send: the initiator reads our extract as at most
		// our record now, clamped and damped, and that could not raise
		// what it already has.
		have, known := summary[rep.Host]
		c, _ := m.ledger.claim(rep.Suspicion, now, now)
		_, raises := c.adopt(have, now)
		return known && !raises
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
