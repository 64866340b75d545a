// Package policy implements the verdict-policy and host-reputation
// layer: the paper treats a failed reference-state check as the start
// of a response — suspicion accumulates against a host and drives
// escalating consequences (audit, quarantine, owner notification) —
// so this package fuses point detections into a continuous per-host
// picture and decides what each one costs the offender.
//
// The pieces:
//
//   - Ledger: a sharded, decay-weighted suspicion ledger per host.
//   - Reputation: a core.VerdictPolicy that feeds the ledger and maps
//     accumulated suspicion to quarantine / continue-flagged / notify.
//   - Gossip: a core.Mechanism that carries signed ledger extracts in
//     agent baggage, so one node's detection raises suspicion
//     deployment-wide without a separate protocol round.
//   - Gate: the adaptive-checking decision ("is this host's reputation
//     good enough to skip the expensive check?") consumed by
//     protection.LevelAdaptive via refproto's re-execution gate.
package policy

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/shardstore"
)

// Defaults for the ledger.
const (
	// DefaultHalfLife is the suspicion decay half-life: a failed check
	// stops mattering once enough clean time has passed.
	DefaultHalfLife = 5 * time.Minute
	// DefaultLedgerCapacity bounds tracked hosts; a flood of unknown
	// principal names cannot grow the ledger without bound.
	DefaultLedgerCapacity = 4096
	// DefaultFailureWeight is the suspicion added per failed check.
	DefaultFailureWeight = 1.0
	// gossipDamping scales suspicion adopted from gossip below the
	// observer's own value: second-hand evidence counts, but less, and
	// the damping makes circulating gossip a contraction instead of an
	// echo chamber.
	gossipDamping = 0.9
	// maxMergeSuspicion caps what a single gossiped claim can inject:
	// second-hand evidence can put a host under full scrutiny (well
	// above any escalation/quarantine threshold) but cannot defame it
	// to an astronomically high value that outlives decay for hours —
	// capped, a maximal claim decays below the default quarantine
	// threshold within two half-lives.
	maxMergeSuspicion = 8.0
	// mergeSlack is the relative margin a gossiped claim must clear to
	// be adopted. A claim that restates the curve the local record is
	// already on (the same extract arriving twice, or our own value
	// echoed back undamped by a clock) differs from it only by float
	// rounding; adopting that would be a write, a version bump and a
	// re-signed extract for no information.
	mergeSlack = 1e-12
)

// LedgerConfig parameterizes a Ledger.
type LedgerConfig struct {
	// HalfLife is the suspicion decay half-life; 0 means
	// DefaultHalfLife, negative disables decay.
	HalfLife time.Duration
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
	// Backend makes the ledger durable: every observation is appended
	// to it and the per-host records are replayed from it on open, so a
	// node's accumulated suspicion survives a restart instead of
	// handing repeat offenders a free reset. Only OpenLedger honours
	// it; the ledger owns the backend and closes it in Close. Nil keeps
	// the ledger in memory.
	Backend shardstore.Backend
	// OnPersistError is forwarded to the backing store's persistence
	// error hook (fires once, on the first write failure, after which
	// the store is degraded to memory-only). Nil means failures are
	// silent. Ignored without Backend.
	OnPersistError func(error)
	// Bus, when non-nil, receives an escalation event each time a
	// host's suspicion crosses DefaultEscalateThreshold upward —
	// whether from a first-hand observation or a gossip/exchange merge.
	// The adaptive gate escalates at the same constant, so the event
	// marks the moment checking intensifies. The crossing, not the
	// level, is the event: a host parked above the threshold publishes
	// nothing until decay takes it below and new evidence pushes it
	// back over.
	Bus *events.Bus
}

// hostRecord is one host's ledger entry. Suspicion is stored as a point
// of its decay curve and read at the time asked, so idle hosts cost
// nothing.
type hostRecord struct {
	cur      curve
	events   int
	failures int
	// raised is the point the last raise (a failed Observe or an adopted
	// Merge) left the record at, and gossip extracts of it are signed at.
	// A clean Observe re-bases cur along the decay curve and leaves raised
	// alone, so it names the curve the record has been on since. Not
	// persisted: a record replayed from the WAL starts from its stored
	// point.
	raised curve
}

// Ledger is a sharded, decay-weighted per-host suspicion ledger. All
// methods are safe for concurrent use; hosts are striped over
// independently locked shards like every other hot-path store.
type Ledger struct {
	cfg   LedgerConfig
	store *shardstore.Store[hostRecord]
	// version counts suspicion-raising updates (failed observations and
	// adopted merges). Consumers caching derived views — the gossip
	// mechanism's urgent-extract baggage — rebuild when it moves; decay
	// never bumps it (decay only lowers values, and the caches it could
	// stale are advisory and idempotent to over-send).
	version atomic.Uint64
}

// Version returns the suspicion-raising update counter.
func (l *Ledger) Version() uint64 { return l.version.Load() }

// NewLedger builds an in-memory ledger. cfg.Backend must be nil (it
// panics otherwise, so a durability request is never silently dropped);
// use OpenLedger for a WAL-backed ledger.
func NewLedger(cfg LedgerConfig) *Ledger {
	if cfg.Backend != nil {
		panic("policy: NewLedger cannot honour LedgerConfig.Backend; use OpenLedger")
	}
	l, err := OpenLedger(cfg)
	if err != nil {
		// Unreachable: errors only arise from backend replay.
		panic(err)
	}
	return l
}

// OpenLedger builds a ledger, replaying cfg.Backend (when set) so the
// per-host suspicion records of a previous run are back in memory
// before the first observation lands.
func OpenLedger(cfg LedgerConfig) (*Ledger, error) {
	if cfg.HalfLife == 0 {
		cfg.HalfLife = DefaultHalfLife
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	l := &Ledger{cfg: cfg}
	scfg := shardstore.Config[hostRecord]{Capacity: DefaultLedgerCapacity}
	if cfg.Backend == nil {
		l.store = shardstore.New[hostRecord](scfg)
		return l, nil
	}
	store, err := shardstore.NewPersistent(scfg, shardstore.PersistConfig[hostRecord]{
		Backend: cfg.Backend,
		Codec:   hostRecordCodec(int64(cfg.HalfLife)),
		OnError: cfg.OnPersistError,
	})
	if err != nil {
		return nil, fmt.Errorf("policy: recovering ledger: %w", err)
	}
	l.store = store
	return l, nil
}

// hostRecordWireLabel versions the persisted host record format.
const hostRecordWireLabel = "host-record"

// hostRecordCodec persists one host's suspicion record, on curves of
// half-life h. The float is stored as its exact IEEE-754 bits, so a
// recovered ledger reports bit-identical suspicion (before decay for the
// downtime, which Merge and Suspicion apply from the stored timestamp as
// usual — downtime counts as clean time).
func hostRecordCodec(h int64) shardstore.Codec[hostRecord] {
	return shardstore.Codec[hostRecord]{
		Encode: func(r hostRecord) ([]byte, error) {
			var buf [4][8]byte
			binary.BigEndian.PutUint64(buf[0][:], math.Float64bits(r.cur.v))
			binary.BigEndian.PutUint64(buf[1][:], uint64(r.cur.at))
			binary.BigEndian.PutUint64(buf[2][:], uint64(r.events))
			binary.BigEndian.PutUint64(buf[3][:], uint64(r.failures))
			return canon.Tuple([]byte(hostRecordWireLabel), buf[0][:], buf[1][:], buf[2][:], buf[3][:]), nil
		},
		Decode: func(b []byte) (hostRecord, error) {
			s, err := canon.ScanList(b, hostRecordWireLabel, len(b), 4)
			if err != nil {
				return hostRecord{}, fmt.Errorf("policy: decoding host record: %w", err)
			}
			cur := curve{v: math.Float64frombits(s.Uint64()), at: int64(s.Uint64()), h: h}
			r := hostRecord{cur: cur, events: int(s.Uint64()), failures: int(s.Uint64()), raised: cur}
			if err := s.End(); err != nil {
				return hostRecord{}, fmt.Errorf("policy: decoding host record: %w", err)
			}
			return r, nil
		},
	}
}

// Close flushes and closes the ledger's backend; a no-op (and nil) for
// in-memory ledgers.
func (l *Ledger) Close() error { return l.store.Close() }

// now is the ledger's clock in Unix ns, the time line every curve of it
// is on.
func (l *Ledger) now() int64 { return l.cfg.Now().UnixNano() }

// Observe records one first-hand check outcome against host. Failed
// checks add weight (DefaultFailureWeight when weight is 0); OK
// checks count as events and let decay do the forgiving.
func (l *Ledger) Observe(host string, ok bool, weight float64) float64 {
	if host == "" {
		return 0
	}
	if weight == 0 {
		weight = DefaultFailureWeight
	}
	now := l.now()
	var before float64
	rec := l.store.Upsert(host, func(old hostRecord, existed bool) hostRecord {
		before = old.cur.value(now)
		old.cur = curve{v: before, at: now, h: int64(l.cfg.HalfLife)}
		if !ok {
			old.cur.v += weight
			old.failures++
			old.raised = old.cur
		}
		old.events++
		return old
	})
	if !ok {
		l.version.Add(1)
	}
	l.noteCrossing(host, before, rec.cur.v)
	return rec.cur.v
}

// Merge folds a second-hand (gossiped) suspicion value for host into
// the ledger: the claim (claimed) is read at now, damped, and adopted
// only if it exceeds the local value. Max-merge is idempotent, so
// replayed gossip is harmless, and damping makes re-circulated gossip
// decay rather than amplify. A claim refused or not adopted writes
// nothing: the record stays where it was on its curve, and a durable
// ledger appends no record.
func (l *Ledger) Merge(host string, suspicion float64, at time.Time) {
	now := l.now()
	c, ok := l.claim(suspicion, at.UnixNano(), now)
	if !ok || host == "" || !l.adoptable(host, c, now) {
		return
	}
	// Re-checked under the write lock: a raise that landed since the
	// read is honoured, not overwritten.
	var before, after float64
	adopted := false
	l.store.Upsert(host, func(old hostRecord, _ bool) hostRecord {
		before = old.cur.value(now)
		after = before
		var remote float64
		if remote, adopted = c.adopt(before, now); adopted {
			old.cur = curve{v: remote, at: now, h: c.h}
			old.raised = old.cur
			after = remote
		}
		return old
	})
	if adopted {
		l.version.Add(1)
	}
	l.noteCrossing(host, before, after)
}

// claim reads a peer's claim on this ledger's curves (claimed).
func (l *Ledger) claim(suspicion float64, atUnixNano, now int64) (curve, bool) {
	return claimed(suspicion, atUnixNano, now, int64(l.cfg.HalfLife))
}

// adoptable reports whether merging claim c at now would raise host's
// record. It reads and never writes: the gossip mechanism asks it
// before spending a signature check on a claim.
func (l *Ledger) adoptable(host string, c curve, now int64) bool {
	ok := false
	l.store.View(host, func(old hostRecord, _ bool) { _, ok = c.adopt(old.cur.value(now), now) })
	return ok
}

// noteCrossing publishes an escalation event when suspicion crossed
// DefaultEscalateThreshold, the gate's threshold, upward.
func (l *Ledger) noteCrossing(host string, before, after float64) {
	if l.cfg.Bus == nil || before >= DefaultEscalateThreshold || after < DefaultEscalateThreshold {
		return
	}
	l.cfg.Bus.Publish(events.Event{
		Kind:   events.KindEscalation,
		Host:   host,
		Fields: map[string]string{"suspicion": fmt.Sprintf("%.3f", after)},
	})
}

// Suspicion returns host's current (decayed) suspicion; 0 for unknown
// hosts.
func (l *Ledger) Suspicion(host string) float64 {
	rec, ok := l.store.Get(host)
	if !ok {
		return 0
	}
	return rec.cur.value(l.now())
}

// Report returns the core.HostReputation snapshot for host.
func (l *Ledger) Report(host string) (core.HostReputation, bool) {
	rec, ok := l.store.Get(host)
	if !ok {
		return core.HostReputation{}, false
	}
	return core.HostReputation{
		Host:            host,
		Suspicion:       rec.cur.value(l.now()),
		Events:          rec.events,
		Failures:        rec.failures,
		UpdatedUnixNano: rec.cur.at,
	}, true
}

// Snapshot returns every tracked host's reputation, most suspect
// first, capped at limit (0 means all).
func (l *Ledger) Snapshot(limit int) []core.HostReputation {
	rows := l.rows()
	if limit > 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	out := make([]core.HostReputation, len(rows))
	for i := range rows {
		out[i] = rows[i].HostReputation
	}
	return out
}

// ledgerRow is one Snapshot row plus the record's raise point, which
// the gossip mechanism signs extracts at (Suspicion is that point
// decayed to the snapshot time).
type ledgerRow struct {
	core.HostReputation
	raised curve
}

// rows returns every tracked host, most suspect first.
func (l *Ledger) rows() []ledgerRow { return l.appendRows(nil) }

// appendRows appends every tracked host to dst, most suspect first, so
// a caller on a hot path can reuse one buffer.
func (l *Ledger) appendRows(dst []ledgerRow) []ledgerRow {
	now := l.now()
	start := len(dst)
	l.store.Range(func(host string, rec hostRecord) bool {
		dst = append(dst, ledgerRow{
			HostReputation: core.HostReputation{
				Host:            host,
				Suspicion:       rec.cur.value(now),
				Events:          rec.events,
				Failures:        rec.failures,
				UpdatedUnixNano: rec.cur.at,
			},
			raised: rec.raised,
		})
		return true
	})
	slices.SortFunc(dst[start:], func(a, b ledgerRow) int {
		if c := cmp.Compare(b.Suspicion, a.Suspicion); c != 0 {
			return c
		}
		return strings.Compare(a.Host, b.Host)
	})
	return dst
}
