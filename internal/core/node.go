package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agent"
	"repro/internal/events"
	"repro/internal/host"
	"repro/internal/shardstore"
	"repro/internal/transport"
)

// Defaults for the node's intake stage.
const (
	// DefaultWorkers is the number of concurrent intake workers when
	// NodeConfig.Workers is zero.
	DefaultWorkers = 4
	// DefaultQueueDepth is the per-worker intake queue bound when
	// NodeConfig.QueueDepth is zero. Total queued intake per node is
	// bounded by Workers x QueueDepth.
	DefaultQueueDepth = 16
	// DefaultJournalLimit bounds how many receipts and status entries
	// a node retains; beyond it the oldest settled entries (any phase
	// but queued/running) are evicted, so neither transiting agents
	// nor a stream of fresh agent IDs can grow memory without bound.
	// Resolved receipts already handed out keep working after
	// eviction; an evicted receipt that never resolved (a watch on a
	// node the agent only transited) resolves with ErrJournalEvicted.
	// Late Watch/Status lookups of evicted agents read "unknown". A
	// terminal receipt holds its agent as the agent's encoding, so an
	// entry costs about the agent's wire size.
	DefaultJournalLimit = 4096
	// DefaultQuarantineLimit bounds how many quarantined agents a node
	// retains for evidence; beyond it the oldest are evicted FIFO (a
	// flood of failing agents must not grow memory without bound).
	// Quarantined reports an evicted agent with ErrQuarantineEvicted
	// as long as its journal entry survives; with a DataDir the
	// eviction first spills the agent's canonical bytes to the
	// evidence directory, so the error carries a recovery path.
	DefaultQuarantineLimit = 1024
	// DefaultEvidenceLimit bounds how many spilled evidence files a
	// node's evidence directory retains; beyond it the oldest files
	// are removed as new spills land, so the flood of failing agents
	// that DefaultQuarantineLimit keeps out of memory does not fill
	// the disk instead. Archive files externally for longer retention
	// (see docs/OPERATIONS.md).
	DefaultEvidenceLimit = 4096
	// maxIntakeWait caps how long an enqueue blocks on a full queue
	// even under a deadline-free ctx. It sits below the TCP
	// transport's 30s I/O fallback so a remote delivery gives up on
	// the server side before the client stops waiting — otherwise a
	// late enqueue could produce a second terminal outcome for an
	// itinerary the sender already reported as failed.
	maxIntakeWait = 25 * time.Second
)

// The retention bounds NewNode gives a node. Deployments run at the
// Default* constants; only tests that force eviction lower them
// (export_test.go).
var (
	journalLimit    = DefaultJournalLimit
	quarantineLimit = DefaultQuarantineLimit
	evidenceLimit   = DefaultEvidenceLimit
)

// NodeConfig configures a platform node: one host plus the protection
// mechanisms active on it.
type NodeConfig struct {
	Host *host.Host
	Net  transport.Network
	// Mechanisms run in list order for arrival checks and in reverse
	// list order for departure preparation (onion layering; see
	// Node.depart). All hosts on an itinerary must run the same
	// mechanism set for the protocols to line up.
	Mechanisms []Mechanism
	// Workers is the number of concurrent intake workers. Distinct
	// agents are processed concurrently; deliveries of the same agent
	// stay ordered because agents are striped onto workers by ID. 0
	// means DefaultWorkers; 1 reproduces the fully serialized seed
	// behaviour.
	Workers int
	// QueueDepth bounds each worker's intake queue. An enqueue against
	// a full queue blocks until space frees up or the intake ctx is
	// done — backpressure, not unbounded buffering. 0 means
	// DefaultQueueDepth.
	QueueDepth int
	// Events, when non-nil, receives the node's operational facts
	// (intake, verdicts, quarantines, completions, forwards, journal
	// evictions, persistence errors, evidence pruning, owner notices)
	// on its bounded non-blocking bus, and backs the node/metrics,
	// node/events, and node/flight built-in calls. Nil disables
	// observability (the seed behaviour).
	Events *events.Pipeline
	// JournalTTL additionally expires settled journal entries (any
	// phase but queued/running) this long after their last update, so
	// long-lived nodes shed terminal receipts by age as well as by
	// count (DefaultJournalLimit). Expired entries behave exactly like
	// evicted ones: unresolved receipts resolve with ErrJournalEvicted
	// and late lookups read "unknown". 0 disables age-based expiry (the
	// seed behaviour).
	JournalTTL time.Duration
	// DataDir makes the node's bookkeeping durable. When set, the
	// journal and quarantine stores are WAL-backed under this directory
	// (journal/, quarantine/, evidence/): NewNode replays any prior
	// state — settled receipts, statuses, flags, retained quarantined
	// agents — before accepting work, and quarantine evictions spill
	// canonical agent bytes to evidence/ before dropping the in-memory
	// copy. Empty keeps all bookkeeping in memory (the seed behaviour).
	// Each node needs its own directory; see docs/OPERATIONS.md.
	DataDir string
	// Exchange enables periodic anti-entropy reputation exchange with
	// the configured fleet peers (peer list, round interval, per-round
	// entry budget; see ExchangeConfig). It requires a mechanism in
	// Mechanisms implementing Exchanger — the adaptive level's gossip
	// mechanism — and NewNode fails loudly otherwise rather than
	// silently dropping the requested convergence. The zero value (no
	// peers) keeps the seed behaviour: suspicion travels only in agent
	// baggage.
	Exchange ExchangeConfig
	// Policy decides the node's response to every verdict produced
	// here: quarantine, continue-flagged, and owner notification. Nil
	// selects the strict seed behaviour (any failed check quarantines:
	// "a compromised agent continues to work on other hosts" is the
	// low end of the protection scale the paper criticizes, §4.1). See
	// internal/policy for the reputation-driven policies.
	Policy VerdictPolicy
	// Admission, when non-nil, is consulted on every delivery whose
	// sender is known (the last entry of the agent's route): a Refuse
	// decision rejects the delivery before it touches the journal or
	// queue — no receipt, no verdict — and the sender sees
	// ErrAdmissionRefused with the suspicion that caused it. Locally
	// launched agents (empty route) are always admitted. Nil disables
	// admission control (the seed behaviour). See policy.NewAdmission.
	Admission AdmissionPolicy
	// RefuseWhenFull makes intake fail fast when the striped worker
	// queue is full, wrapping ErrIntakeFull, instead of blocking
	// up to maxIntakeWait for space. Planner-routed fleets set it so a
	// hotspot's backpressure becomes an immediate spillover signal the
	// sender can route around; the default (false) keeps the blocking
	// backpressure contract existing deployments rely on.
	RefuseWhenFull bool
	// OnVerdict is invoked synchronously for every verdict produced at
	// this node, before the verdict travels on; may be nil. It may be
	// called from multiple workers concurrently. It is the one lossless
	// verdict tap: the event bus (KindVerdict) is bounded and may drop
	// events, and a receipt shows an agent's verdicts only once its
	// journey has ended. Owner notices, terminal outcomes and
	// persistence failures have no callback: they reach a consumer
	// through the bus (KindOwnerNotice; KindComplete and
	// KindQuarantine; KindPersistError), the receipt (Watch) and
	// node/health.
	OnVerdict func(Verdict)
	// SessionOptions is passed to every session run (benchmark hooks).
	SessionOptions host.SessionOptions
}

// Node is a platform node: it accepts migrating agents into a bounded
// intake queue, runs the framework callback pipeline around each
// execution session on a worker pool, and forwards agents onward. It
// implements transport.Endpoint.
//
// Intake is asynchronous: HandleAgent/Launch return once the agent is
// enqueued. Terminal outcomes (task completion, quarantine, failure)
// are observed through Watch receipts; forwarding to the next host is
// not terminal. Per-agent processing stays serialized (deliveries of
// one agent are handled in arrival order on one worker), while
// distinct agents run concurrently.
type Node struct {
	cfg NodeConfig
	hc  *HostContext

	rootCtx context.Context
	cancel  context.CancelFunc
	queues  []chan intakeItem
	wg      sync.WaitGroup
	// stopExchange halts the anti-entropy exchange loop started at
	// construction (nil when NodeConfig.Exchange is disabled); Close
	// calls it before waiting out the workers.
	stopExchange func()
	// urgent is the mechanism serving urgent reply baggage (nil when no
	// mechanism implements UrgentProvider); HandleCall consults it when
	// answering mechanism-namespace calls.
	urgent UrgentProvider
	// intake counts in-flight enqueue calls; Close waits for them
	// before draining so no delivery is accepted and then silently
	// lost.
	intake sync.WaitGroup

	// mu guards only the closed flag and its handshake with the intake
	// WaitGroup; all per-agent bookkeeping lives in the sharded stores
	// below, so workers touching distinct agents never serialize here.
	mu     sync.Mutex
	closed bool

	// journal tracks each agent's receipt and latest processing phase,
	// striped by agent ID. Settled entries (any phase but
	// queued/running) are evicted FIFO beyond journalLimit (and expired
	// beyond JournalTTL); eviction resolves still-pending receipts with
	// ErrJournalEvicted. WAL-backed when DataDir is set.
	journal *shardstore.Store[*journalEntry]
	// quarantine retains quarantined agents for evidence, as their
	// canonical encoding (agent.Encode), bounded by quarantineLimit with
	// FIFO eviction. WAL-backed when DataDir is set, with eviction
	// spilling the held bytes to evidenceDir.
	quarantine *shardstore.Store[[]byte]
	// evidenceDir is where quarantine evictions spill canonical agent
	// bytes; empty without a DataDir. evFiles tracks the directory's
	// files oldest-first with their sizes (seeded from disk at open) so
	// spills can prune beyond evLimit, the evidenceLimit the node was
	// built with; evFiles is guarded by evMu.
	evidenceDir string
	evLimit     int
	evMu        sync.Mutex
	evFiles     []evidenceFile

	// admissionRefused counts deliveries the AdmissionPolicy rejected;
	// intakeRefused counts deliveries fast-failed by RefuseWhenFull.
	// Both are served through node/plan and node/metrics.
	admissionRefused atomic.Int64
	intakeRefused    atomic.Int64

	// healthMu guards the sticky persistence-failure record served by
	// the node/health built-in: once a WAL append, compaction, or
	// evidence spill fails, the node keeps running from memory, and
	// this record is how operators see the degradation before the
	// restart that would otherwise be its first symptom.
	healthMu         sync.Mutex
	persistFailures  int64
	firstPersistErr  string
	lastPersistUnix  int64
	firstPersistUnix int64
}

// journalEntry is one agent's bookkeeping at this node. The status and
// flag count are mutated only under the entry's shard lock (via
// Upsert/View closures); the receipt pointer is immutable after
// creation and safe to use outside it.
type journalEntry struct {
	rc    *Receipt
	st    AgentStatus
	flags int
}

// intakeItem is one queued delivery. ctx is the delivery's processing
// context: for Launch it is the caller's ctx (propagated across
// in-process forwards), for TCP deliveries the serving node's base
// context.
type intakeItem struct {
	ctx context.Context
	ag  *agent.Agent
}

var _ transport.Endpoint = (*Node)(nil)

// Errors returned by the intake and pipeline.
var (
	// ErrDetection is the terminal error when a check failed and the
	// agent was quarantined.
	ErrDetection = errors.New("core: attack detected")
	// ErrNodeClosed is returned for deliveries to a closed node, and
	// resolves receipts of deliveries still queued at close.
	ErrNodeClosed = errors.New("core: node closed")
	// ErrJournalEvicted resolves a receipt whose journal entry was
	// evicted under memory pressure before the agent reached a
	// terminal outcome at this node (e.g. a watch on a node the agent
	// only transited). The journey itself is unaffected.
	ErrJournalEvicted = errors.New("core: receipt evicted from journal")
	// ErrQuarantineEvicted is returned by Quarantined when the agent
	// was quarantined here but its retained copy has been evicted under
	// capacity pressure; the detection itself remains on record in the
	// journal.
	ErrQuarantineEvicted = errors.New("core: quarantined agent evicted under capacity pressure")
	// ErrNotQuarantined is returned by Quarantined for agents that were
	// never quarantined at this node (or whose whole journal entry has
	// been evicted).
	ErrNotQuarantined = errors.New("core: agent not quarantined at this node")
)

// NewNode builds a platform node and starts its worker pool. Callers
// own the node's lifecycle: Close it when the deployment winds down.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Host == nil {
		return nil, errors.New("core: node host must not be nil")
	}
	if cfg.Net == nil {
		return nil, errors.New("core: node network must not be nil")
	}
	if cfg.Workers < 0 || cfg.QueueDepth < 0 {
		return nil, errors.New("core: workers and queue depth must be non-negative")
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = DefaultWorkers
	}
	depth := cfg.QueueDepth
	if depth == 0 {
		depth = DefaultQueueDepth
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := &Node{
		cfg:     cfg,
		hc:      &HostContext{Host: cfg.Host, Net: cfg.Net},
		rootCtx: ctx,
		cancel:  cancel,
		queues:  make([]chan intakeItem, workers),
		evLimit: evidenceLimit,
	}
	// Store construction (and, with a DataDir, WAL recovery) lives in
	// durable.go; the node is not handed out until its prior state is
	// back in memory.
	if err := n.openStores(); err != nil {
		cancel()
		return nil, err
	}
	// Urgent piggyback plumbing: if a mechanism can merge urgent reply
	// baggage, every outbound mechanism call opens the reply envelope
	// through a wrapping network; if one can provide baggage, served
	// mechanism replies carry it (see urgent.go). Both are discovered
	// like the Exchanger — the node owns plumbing, mechanisms own
	// content.
	for _, m := range cfg.Mechanisms {
		if p, ok := m.(UrgentProvider); ok {
			n.urgent = p
			break
		}
	}
	for _, m := range cfg.Mechanisms {
		if mg, ok := m.(UrgentMerger); ok {
			n.hc.Net = &urgentNet{inner: cfg.Net, hc: n.hc, merger: mg}
			break
		}
	}
	if cfg.Exchange.Enabled() {
		var ex Exchanger
		for _, m := range cfg.Mechanisms {
			if e, ok := m.(Exchanger); ok {
				ex = e
				break
			}
		}
		if ex == nil {
			cancel()
			return nil, errors.Join(
				errors.New("core: exchange configured but no mechanism implements core.Exchanger (the adaptive level's gossip mechanism does)"),
				n.journal.Close(), n.quarantine.Close())
		}
		xcfg := cfg.Exchange
		if xcfg.StatePath == "" && cfg.DataDir != "" {
			// The scheduler's restart memory rides the node's data
			// directory by default: without it a restart forgets which
			// peers were dead and probes them all afresh.
			xcfg.StatePath = filepath.Join(cfg.DataDir, "exchange-sched.state")
		}
		stop, err := ex.StartExchange(ctx, n.hc, xcfg)
		if err != nil {
			cancel()
			return nil, errors.Join(err, n.journal.Close(), n.quarantine.Close())
		}
		n.stopExchange = stop
	}
	for i := range n.queues {
		q := make(chan intakeItem, depth)
		n.queues[i] = q
		n.wg.Add(1)
		go n.worker(q)
	}
	if cfg.JournalTTL > 0 {
		n.wg.Add(1)
		go n.journalSweeper()
	}
	return n, nil
}

// journalSweeper periodically sheds TTL-expired settled journal
// entries. Expiry is otherwise lazy (triggered by touching a key or by
// capacity pressure), which would let a quiet node hold terminal
// receipts forever.
func (n *Node) journalSweeper() {
	defer n.wg.Done()
	interval := n.cfg.JournalTTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-n.rootCtx.Done():
			return
		case <-t.C:
			n.journal.SweepExpired()
		}
	}
}

// UpdateExchangePeers re-derives the running exchange loop's partner
// pool from the given fleet membership — the live peer-update path for
// deployments whose membership changes mid-run (nodes joining,
// leaving, or rotating identities during a campaign). It fails when
// the node runs no exchange, or when the new list leaves a flat node
// or a member without a usable partner.
func (n *Node) UpdateExchangePeers(peers []string) error {
	for _, m := range n.cfg.Mechanisms {
		if u, ok := m.(ExchangePeerUpdater); ok {
			return u.UpdateExchangePeers(peers)
		}
	}
	return fmt.Errorf("core: node %s: no mechanism implements ExchangePeerUpdater", n.cfg.Host.Name())
}

// NotePersistError folds a persistence failure into the node's sticky
// health record (served by node/health) and publishes it on the event
// bus (events.KindPersistError). Deployments call it from the
// persistence observers of co-located durable state — the protection
// stack's ledger and vigna WALs — so one surface reports the whole
// host's durability. The node's own store failures are recorded
// automatically.
func (n *Node) NotePersistError(err error) {
	if err == nil {
		return
	}
	now := time.Now().UnixNano()
	n.healthMu.Lock()
	n.persistFailures++
	n.lastPersistUnix = now
	if n.firstPersistErr == "" {
		n.firstPersistErr = err.Error()
		n.firstPersistUnix = now
	}
	n.healthMu.Unlock()
	n.publish(events.Event{
		Kind:   events.KindPersistError,
		Fields: map[string]string{"error": err.Error()},
	})
}

// Close stops the intake workers, settles queued-but-unprocessed
// deliveries as failed with ErrNodeClosed (journal, bus and receipt,
// like any other failure), flushes and closes the bookkeeping stores (a
// no-op without a DataDir), and returns once the node is quiescent.
// Deliveries racing with Close either complete their enqueue (and are
// then settled with ErrNodeClosed) or fail with ErrNodeClosed — never
// silently lost.
// Synchronous protocol calls (HandleCall) keep working after Close,
// served from the in-memory tier.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	n.cancel()
	// The exchange loop stops first: it makes outbound calls on the
	// network the deployment is tearing down, and halt blocks until the
	// loop (its in-flight round cancelled by rootCtx) has exited.
	if n.stopExchange != nil {
		n.stopExchange()
	}
	// In-flight enqueuers see the cancelled rootCtx if blocked on a
	// full queue; wait them out before draining so nothing lands in a
	// queue after the drain.
	n.intake.Wait()
	n.wg.Wait()
	closed := outcome{
		phase:  PhaseFailed,
		err:    fmt.Errorf("core: node %s: %w", n.cfg.Host.Name(), ErrNodeClosed),
		queued: true,
	}
	for _, q := range n.queues {
		for len(q) > 0 {
			n.settle((<-q).ag, closed)
		}
	}
	// All writers (workers, enqueuers, the sweeper) are quiescent: the
	// stores can flush their WALs and report any persistence failure
	// accumulated over the node's lifetime.
	return errors.Join(n.journal.Close(), n.quarantine.Close())
}

// Quarantined returns the quarantined agent with the given ID. A nil
// error means the agent is held here. An error matching
// ErrQuarantineEvicted (concretely a *QuarantineEvictedError) means it
// was quarantined but its retained copy has been evicted under capacity
// pressure; when the node runs with a DataDir, the error's Evidence
// field names the spilled canonical agent bytes, recoverable with
// LoadEvidence. ErrNotQuarantined means the agent was never quarantined
// at this node. The node holds the agent as its encoding; each call
// decodes a fresh copy.
func (n *Node) Quarantined(id string) (*agent.Agent, error) {
	if record, ok := n.quarantine.Get(id); ok {
		ag, err := agent.Decode(record)
		if err != nil {
			return nil, fmt.Errorf("core: node %s: quarantined agent %s: %w", n.cfg.Host.Name(), id, err)
		}
		return ag, nil
	}
	if n.Status(id).Phase == PhaseQuarantined {
		evErr := &QuarantineEvictedError{Node: n.cfg.Host.Name(), AgentID: id}
		if n.evidenceDir != "" {
			if path := EvidencePath(n.evidenceDir, id); fileExists(path) {
				evErr.Evidence = path
			}
		}
		return nil, evErr
	}
	return nil, fmt.Errorf("core: node %s: agent %s: %w", n.cfg.Host.Name(), id, ErrNotQuarantined)
}

// fileExists reports whether path names an existing regular file.
func fileExists(path string) bool {
	info, err := os.Stat(path)
	return err == nil && info.Mode().IsRegular()
}

// Watch returns the receipt for the given agent at this node, creating
// it if needed. The receipt resolves when the agent reaches a terminal
// outcome here (task completion, quarantine, or processing failure);
// watching before launch is race-free, and watching after the outcome
// returns an already-resolved receipt. A closed node writes nothing: it
// returns the agent's existing receipt, or else one already resolved
// with ErrNodeClosed.
func (n *Node) Watch(agentID string) *Receipt {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		if e, ok := n.journal.Get(agentID); ok {
			return e.rc
		}
		rc := newReceipt(agentID)
		rc.resolve(nil, false, fmt.Errorf("core: node %s: %w", n.cfg.Host.Name(), ErrNodeClosed))
		return rc
	}
	// Close flips closed, then waits out the intake group before closing
	// the stores, so a Watch that got this far appends to an open WAL.
	n.intake.Add(1)
	defer n.intake.Done()
	n.mu.Unlock()
	e, _ := n.journal.GetOrCreate(agentID, func() *journalEntry { return newEntry(agentID) })
	return e.rc
}

// newEntry is a journal entry for an agent the journal did not hold.
func newEntry(agentID string) *journalEntry {
	return &journalEntry{rc: newReceipt(agentID), st: AgentStatus{Phase: PhaseUnknown}}
}

// updateEntry applies fn to the agent's journal entry under its shard
// lock, creating the entry (and triggering journal eviction) if it is
// missing, and returns the entry.
func (n *Node) updateEntry(agentID string, fn func(*journalEntry)) *journalEntry {
	return n.journal.Upsert(agentID, func(e *journalEntry, ok bool) *journalEntry {
		if !ok {
			e = newEntry(agentID)
		}
		fn(e)
		return e
	})
}

// Launch injects a locally created agent into the intake as if it had
// just arrived (the home host runs the first session itself). It
// refuses an agent that Validate refuses, as a peer's Unmarshal would,
// before the agent reaches the journal or the bus. It returns once the
// agent is enqueued, with the receipt tracking this node's terminal
// outcome; ctx bounds both the enqueue and the agent's processing at
// this node and — over in-process transports — its onward itinerary.
func (n *Node) Launch(ctx context.Context, ag *agent.Agent) (*Receipt, error) {
	if err := ag.Validate(); err != nil {
		return nil, fmt.Errorf("core: node %s: %w", n.cfg.Host.Name(), err)
	}
	return n.enqueue(ctx, ag)
}

// HandleAgent implements transport.Endpoint for migration deliveries:
// unmarshal, then accept-and-queue.
func (n *Node) HandleAgent(ctx context.Context, wire []byte) error {
	ag, err := agent.Unmarshal(wire)
	if err != nil {
		return fmt.Errorf("core: node %s: %w", n.cfg.Host.Name(), err)
	}
	_, err = n.enqueue(ctx, ag)
	return err
}

// stripe maps an agent ID onto a worker queue; one agent always lands
// on the same worker, which is what serializes per-agent processing.
func (n *Node) stripe(agentID string) chan intakeItem {
	h := fnv.New32a()
	_, _ = h.Write([]byte(agentID))
	return n.queues[h.Sum32()%uint32(len(n.queues))]
}

func (n *Node) enqueue(ctx context.Context, ag *agent.Agent) (*Receipt, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, fmt.Errorf("core: node %s: %w", n.cfg.Host.Name(), ErrNodeClosed)
	}
	// Registering with the intake group under the same lock as the
	// closed check means Close (which flips closed, then waits for the
	// group) cannot drain the queues while this send is in flight —
	// an accepted delivery is either processed or drained, never lost.
	n.intake.Add(1)
	defer n.intake.Done()
	n.mu.Unlock()
	// Admission control runs before any bookkeeping: a refused delivery
	// leaves no journal entry and no receipt at this node (the sender
	// owns the terminal outcome), so concurrent intakes racing a ledger
	// escalation each see exactly one outcome — admitted receipt or
	// refusal — never both.
	if ap := n.cfg.Admission; ap != nil {
		from := ""
		if len(ag.Route) > 0 {
			from = ag.Route[len(ag.Route)-1]
		}
		if from != "" {
			if dec := ap.Admit(from); dec.Refuse {
				n.admissionRefused.Add(1)
				n.publish(events.Event{
					Kind:  events.KindAdmissionRefused,
					Agent: ag.ID,
					Host:  from,
					Fields: map[string]string{
						"suspicion": fmt.Sprintf("%.4f", dec.Suspicion),
						"threshold": fmt.Sprintf("%.4f", dec.Threshold),
						"reason":    dec.Reason,
					},
				})
				return nil, fmt.Errorf("core: node %s: host %s suspicion %.3f >= %.3f: %w",
					n.cfg.Host.Name(), from, dec.Suspicion, dec.Threshold, ErrAdmissionRefused)
			}
		}
	}
	// Create (or adopt) the journal entry and mark it queued in one
	// atomic step: a fresh entry in an earlier phase would be evictable,
	// and capacity pressure from this very insert could otherwise evict
	// the agent currently being enqueued.
	rc := n.setPhase(ag.ID, AgentStatus{Phase: PhaseQueued}).rc

	q := n.stripe(ag.ID)
	select {
	case q <- intakeItem{ctx: ctx, ag: ag}:
		n.publish(events.Event{Kind: events.KindIntake, Agent: ag.ID})
		return rc, nil
	default:
	}
	var err error
	refusedBy := ""
	if n.cfg.RefuseWhenFull {
		// Fast-fail: the full queue is an overload signal the sender's
		// planner can spill over from, not a condition to wait out.
		refusedBy = n.cfg.Host.Name()
		err = &IntakeRefusedError{Node: refusedBy}
		n.intakeRefused.Add(1)
		n.publish(events.Event{
			Kind:   events.KindIntakeRefused,
			Agent:  ag.ID,
			Fields: map[string]string{"reason": "queue full"},
		})
	} else {
		// Queue full: block with backpressure until space, cancellation,
		// node shutdown, or the intake cap.
		wait := time.NewTimer(maxIntakeWait)
		defer wait.Stop()
		select {
		case q <- intakeItem{ctx: ctx, ag: ag}:
			n.publish(events.Event{Kind: events.KindIntake, Agent: ag.ID})
			return rc, nil
		case <-ctx.Done():
			err = fmt.Errorf("core: intake at %s: %w", n.cfg.Host.Name(), ctx.Err())
		case <-wait.C:
			err = fmt.Errorf("core: intake at %s: %w", n.cfg.Host.Name(), context.DeadlineExceeded)
		case <-n.rootCtx.Done():
			err = fmt.Errorf("core: node %s: %w", n.cfg.Host.Name(), ErrNodeClosed)
		}
	}
	// The delivery never entered the queue: record the intake failure
	// (a "queued" phase with no worker coming would both lie to
	// node/status and be unevictable) and resolve the receipt so a
	// Watch-before-launch waiter wakes with the error instead of
	// hanging. If a concurrent duplicate delivery of the same ID
	// already progressed to running, leave its phase alone.
	e := n.updateEntry(ag.ID, func(e *journalEntry) {
		if e.st.Phase != PhaseRunning {
			e.st = AgentStatus{Phase: PhaseFailed, Err: err.Error(), RefusedBy: refusedBy}
		}
	})
	e.rc.resolve(ag.Encode(), false, err)
	return nil, err
}

func (n *Node) worker(q chan intakeItem) {
	defer n.wg.Done()
	for {
		select {
		case <-n.rootCtx.Done():
			return
		case item := <-q:
			n.runOne(item)
		}
	}
}

// Processing phases reported by the node/status built-in call.
const (
	PhaseUnknown     = "unknown"
	PhaseQueued      = "queued"
	PhaseRunning     = "running"
	PhaseForwarded   = "forwarded"
	PhaseCompleted   = "completed"
	PhaseQuarantined = "quarantined"
	PhaseFailed      = "failed"
)

// AgentStatus is the answer to a node/status call: the latest
// processing phase of an agent at this node. Completed, quarantined,
// and failed are terminal.
type AgentStatus struct {
	Phase string
	// NextHost names the forwarding destination when Phase is
	// "forwarded".
	NextHost string
	// Err carries the failure when Phase is "failed".
	Err string
	// RefusedBy names the host whose refusal (admission, full intake)
	// or unreachability failed the journey, when Phase is "failed" and
	// the failure was a forwarding/intake refusal. Empty for other
	// failures; it is what lets planners and operators tell "the next
	// hop was full or shunned us" from "something broke here".
	RefusedBy string
	// Flags counts detections the node's policy let the agent continue
	// past (continue-flagged decisions) at this node.
	Flags int
}

// Terminal reports whether the status is a journey-ending phase at
// this node.
func (s AgentStatus) Terminal() bool {
	switch s.Phase {
	case PhaseCompleted, PhaseQuarantined, PhaseFailed:
		return true
	}
	return false
}

// Status returns the latest processing phase of the agent at this
// node (PhaseUnknown if it never arrived).
func (n *Node) Status(agentID string) AgentStatus {
	st := AgentStatus{Phase: PhaseUnknown}
	n.journal.View(agentID, func(e *journalEntry, ok bool) {
		if !ok {
			return
		}
		st = e.st
		st.Flags = e.flags
	})
	return st
}
