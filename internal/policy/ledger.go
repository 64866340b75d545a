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
	// Capacity bounds tracked hosts; 0 means DefaultLedgerCapacity.
	Capacity int
	// FailureWeight is the suspicion added per failed check; 0 means
	// DefaultFailureWeight.
	FailureWeight float64
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
	// host's suspicion crosses EscalateAt upward — whether from a
	// first-hand observation or a gossip/exchange merge. The crossing,
	// not the level, is the event: a host parked above the threshold
	// publishes nothing until decay takes it below and new evidence
	// pushes it back over.
	Bus *events.Bus
	// EscalateAt is the crossing threshold the escalation event fires
	// at; 0 means DefaultEscalateThreshold. Deployments wire the
	// adaptive gate's threshold here so the event matches the moment
	// checking actually intensifies.
	EscalateAt float64
}

// hostRecord is one host's ledger entry. Suspicion is stored with its
// timestamp and decayed on read, so idle hosts cost nothing.
type hostRecord struct {
	suspicion float64
	updated   time.Time
	events    int
	failures  int
	// raised and raisedAtUnixNano are the point the last raise (a failed
	// Observe or an adopted Merge) left the record at. A clean Observe
	// re-bases (suspicion, updated) along the decay curve and leaves
	// these alone, so they name the curve the record has been on since.
	// Not persisted: a record replayed from the WAL has a zero time here
	// until its next raise, and its stored point stands in (raisePoint).
	raised           float64
	raisedAtUnixNano int64
}

// raisePoint returns the point gossip extracts of r are signed at: where
// the last raise left it, or the stored point of a record not raised
// since it was loaded. Either way it is a point on r's decay curve that
// only a raise moves.
func (r hostRecord) raisePoint() (suspicion float64, atUnixNano int64) {
	if r.raisedAtUnixNano == 0 {
		return r.suspicion, r.updated.UnixNano()
	}
	return r.raised, r.raisedAtUnixNano
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
	if cfg.Capacity == 0 {
		cfg.Capacity = DefaultLedgerCapacity
	}
	if cfg.FailureWeight == 0 {
		cfg.FailureWeight = DefaultFailureWeight
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	// Wall time only: what a record's timestamp is compared with — a
	// gossiped claim's time, its own value read back from the WAL — has
	// no monotonic reading, and mixing the two clocks makes one curve
	// look like two that differ by the clocks' drift.
	clock := cfg.Now
	cfg.Now = func() time.Time { return clock().Round(0) }
	if cfg.EscalateAt == 0 {
		cfg.EscalateAt = DefaultEscalateThreshold
	}
	l := &Ledger{cfg: cfg}
	scfg := shardstore.Config[hostRecord]{Capacity: cfg.Capacity}
	if cfg.Backend == nil {
		l.store = shardstore.New[hostRecord](scfg)
		return l, nil
	}
	store, err := shardstore.NewPersistent(scfg, shardstore.PersistConfig[hostRecord]{
		Backend: cfg.Backend,
		Codec:   hostRecordCodec(),
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

// hostRecordCodec persists one host's suspicion record. The float is
// stored as its exact IEEE-754 bits, so a recovered ledger reports
// bit-identical suspicion (before decay for the downtime, which Merge
// and Suspicion apply from the stored timestamp as usual — downtime
// counts as clean time).
func hostRecordCodec() shardstore.Codec[hostRecord] {
	return shardstore.Codec[hostRecord]{
		Encode: func(r hostRecord) ([]byte, error) {
			var buf [4][8]byte
			binary.BigEndian.PutUint64(buf[0][:], math.Float64bits(r.suspicion))
			binary.BigEndian.PutUint64(buf[1][:], uint64(r.updated.UnixNano()))
			binary.BigEndian.PutUint64(buf[2][:], uint64(r.events))
			binary.BigEndian.PutUint64(buf[3][:], uint64(r.failures))
			return canon.Tuple([]byte(hostRecordWireLabel), buf[0][:], buf[1][:], buf[2][:], buf[3][:]), nil
		},
		Decode: func(b []byte) (hostRecord, error) {
			fields, err := canon.ParseTuple(b)
			if err != nil {
				return hostRecord{}, fmt.Errorf("policy: decoding host record: %w", err)
			}
			if len(fields) != 5 || string(fields[0]) != hostRecordWireLabel {
				return hostRecord{}, fmt.Errorf("policy: decoding host record: %w", canon.ErrMalformed)
			}
			for _, f := range fields[1:] {
				if len(f) != 8 {
					return hostRecord{}, fmt.Errorf("policy: decoding host record: %w", canon.ErrMalformed)
				}
			}
			return hostRecord{
				suspicion: math.Float64frombits(binary.BigEndian.Uint64(fields[1])),
				updated:   time.Unix(0, int64(binary.BigEndian.Uint64(fields[2]))),
				events:    int(binary.BigEndian.Uint64(fields[3])),
				failures:  int(binary.BigEndian.Uint64(fields[4])),
			}, nil
		},
	}
}

// Close flushes and closes the ledger's backend; a no-op (and nil) for
// in-memory ledgers.
func (l *Ledger) Close() error { return l.store.Close() }

// decayed returns r's suspicion decayed from its timestamp to now.
func (l *Ledger) decayed(r hostRecord, now time.Time) float64 {
	if l.cfg.HalfLife < 0 || r.suspicion == 0 {
		return r.suspicion
	}
	dt := now.Sub(r.updated)
	if dt <= 0 {
		return r.suspicion
	}
	return r.suspicion * math.Exp2(-float64(dt)/float64(l.cfg.HalfLife))
}

// Observe records one first-hand check outcome against host. Failed
// checks add weight (LedgerConfig.FailureWeight when weight is 0); OK
// checks count as events and let decay do the forgiving.
func (l *Ledger) Observe(host string, ok bool, weight float64) float64 {
	if host == "" {
		return 0
	}
	if weight == 0 {
		weight = l.cfg.FailureWeight
	}
	now := l.cfg.Now()
	var before float64
	rec := l.store.Upsert(host, func(old hostRecord, existed bool) hostRecord {
		s := l.decayed(old, now)
		before = s
		if !ok {
			s += weight
			old.failures++
			old.raised, old.raisedAtUnixNano = s, now.UnixNano()
		}
		old.suspicion = s
		old.updated = now
		old.events++
		return old
	})
	if !ok {
		l.version.Add(1)
	}
	l.noteCrossing(host, before, rec.suspicion)
	return rec.suspicion
}

// Merge folds a second-hand (gossiped) suspicion value for host into
// the ledger: the remote value is decayed from its observation time,
// damped, and adopted only if it exceeds the local value. Max-merge is
// idempotent, so replayed gossip is harmless, and damping makes
// re-circulated gossip decay rather than amplify. A claim that is not
// adopted writes nothing: the record stays where it was on its curve,
// and a durable ledger appends no record.
func (l *Ledger) Merge(host string, suspicion float64, at time.Time) {
	now := l.cfg.Now()
	remote := l.claimValue(host, suspicion, at, now)
	if !l.adoptable(host, remote, now) {
		return
	}
	// Re-checked under the write lock: a raise that landed since the
	// read is honoured, not overwritten.
	var before, after float64
	adopted := false
	l.store.Upsert(host, func(old hostRecord, _ bool) hostRecord {
		before = l.decayed(old, now)
		after = before
		if adopted = exceeds(remote, before); adopted {
			old.suspicion = remote
			old.updated = now
			old.raised, old.raisedAtUnixNano = remote, now.UnixNano()
			after = remote
		}
		return old
	})
	if adopted {
		l.version.Add(1)
	}
	l.noteCrossing(host, before, after)
}

// wouldAdopt reports whether Merge, called now with the same claim,
// would raise host's record. It reads and never writes: the gossip
// mechanism asks it before spending a signature check on a claim.
func (l *Ledger) wouldAdopt(host string, suspicion float64, at time.Time) bool {
	now := l.cfg.Now()
	return l.adoptable(host, l.claimValue(host, suspicion, at, now), now)
}

// claimValue is what a gossiped claim is worth here at now: clamped to
// the merge cap, decayed from its observation time, damped. Zero means
// there is nothing to merge.
func (l *Ledger) claimValue(host string, suspicion float64, at, now time.Time) float64 {
	if host == "" || suspicion <= 0 || math.IsNaN(suspicion) || math.IsInf(suspicion, 0) {
		return 0
	}
	// A future-dated observation gets no decay head start; it reads as
	// "just now".
	remote := math.Min(suspicion, maxMergeSuspicion)
	if l.cfg.HalfLife > 0 {
		if dt := now.Sub(at); dt > 0 {
			remote *= math.Exp2(-float64(dt) / float64(l.cfg.HalfLife))
		}
	}
	return remote * gossipDamping
}

// adoptable reports whether a claim worth remote would raise host's
// record as it reads at now.
func (l *Ledger) adoptable(host string, remote float64, now time.Time) bool {
	if remote <= 0 {
		return false
	}
	ok := false
	l.store.View(host, func(old hostRecord, _ bool) { ok = exceeds(remote, l.decayed(old, now)) })
	return ok
}

// exceeds is the adoption rule: remote must clear local by mergeSlack.
func exceeds(remote, local float64) bool { return remote > local*(1+mergeSlack) }

// noteCrossing publishes an escalation event when suspicion crossed
// the escalation threshold upward.
func (l *Ledger) noteCrossing(host string, before, after float64) {
	if l.cfg.Bus == nil || before >= l.cfg.EscalateAt || after < l.cfg.EscalateAt {
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
	return l.decayed(rec, l.cfg.Now())
}

// Report returns the core.HostReputation snapshot for host.
func (l *Ledger) Report(host string) (core.HostReputation, bool) {
	rec, ok := l.store.Get(host)
	if !ok {
		return core.HostReputation{}, false
	}
	return core.HostReputation{
		Host:            host,
		Suspicion:       l.decayed(rec, l.cfg.Now()),
		Events:          rec.events,
		Failures:        rec.failures,
		UpdatedUnixNano: rec.updated.UnixNano(),
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
	raised           float64
	raisedAtUnixNano int64
}

// rows returns every tracked host, most suspect first.
func (l *Ledger) rows() []ledgerRow { return l.appendRows(nil) }

// appendRows appends every tracked host to dst, most suspect first, so
// a caller on a hot path can reuse one buffer.
func (l *Ledger) appendRows(dst []ledgerRow) []ledgerRow {
	now := l.cfg.Now()
	start := len(dst)
	l.store.Range(func(host string, rec hostRecord) bool {
		raised, raisedAt := rec.raisePoint()
		dst = append(dst, ledgerRow{
			HostReputation: core.HostReputation{
				Host:            host,
				Suspicion:       l.decayed(rec, now),
				Events:          rec.events,
				Failures:        rec.failures,
				UpdatedUnixNano: rec.updated.UnixNano(),
			},
			raised:           raised,
			raisedAtUnixNano: raisedAt,
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
