// Package shardstore provides a generic striped-lock sharded map for
// the platform's hot-path bookkeeping: per-agent journals on nodes,
// action ledgers on hosts, retained trace packages, and the reputation
// ledger. Keys are strings (agent IDs, host names, or composite keys
// built with Key); values are striped over independently locked shards
// by FNV-1a hash, so concurrent workers touching distinct agents never
// serialize on one mutex.
//
// The store is bounded: with a non-zero Capacity, inserting beyond it
// evicts the oldest evictable entries first (FIFO by first insertion,
// approximated per shard — eviction sweeps shards round-robin and
// removes each shard's oldest candidate, so the global order is FIFO up
// to striping skew). An optional TTL expires entries lazily on access
// (or eagerly via SweepExpired). Entries the Evictable hook vetoes
// (e.g. a receipt still running) are skipped by capacity eviction and
// do not expire; if nothing is evictable the store tolerates transient
// overshoot rather than dropping live state.
//
// Eviction contract:
//
//   - OnEvict fires exactly once per capacity- or TTL-evicted entry,
//     synchronously, with the evicted value, before the entry leaves
//     the map. It runs while the entry's shard is locked: it must not
//     call back into the store.
//   - Delete and overwriting Put do not fire OnEvict.
//   - Re-inserting a key after Delete re-enters the FIFO at the tail;
//     overwriting an existing key keeps its original position.
//
// A store is memory-only by default. NewPersistent layers a pluggable
// Backend (backend.go) under the same API: every mutation is appended
// to the backend's log and the full state is rebuilt from it on the
// next open, with the sharded in-memory tier staying the cache and the
// only read path. See wal.go for the file-backed implementation.
package shardstore

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Reason says why OnEvict fired.
type Reason int

const (
	// EvictCapacity is a FIFO eviction under capacity pressure.
	EvictCapacity Reason = iota + 1
	// EvictTTL is a lazy expiry of an entry older than the TTL.
	EvictTTL
)

// String names the reason.
func (r Reason) String() string {
	switch r {
	case EvictCapacity:
		return "capacity"
	case EvictTTL:
		return "ttl"
	default:
		return "reason(" + strconv.Itoa(int(r)) + ")"
	}
}

// DefaultShards is the shard count when Config.Shards is zero: enough
// stripes that a worker pool on a large machine rarely collides.
const DefaultShards = 32

// Config parameterizes a store.
type Config[V any] struct {
	// Shards is the stripe count, rounded up to a power of two; 0 means
	// DefaultShards.
	Shards int
	// Capacity bounds the total entry count across all shards; 0 means
	// unbounded. Inserts beyond it evict FIFO (oldest first).
	Capacity int
	// TTL expires entries lazily on access (and eagerly via
	// SweepExpired); 0 means no expiry. Entries the Evictable hook
	// vetoes do not expire.
	TTL time.Duration
	// RefreshOnWrite restarts an entry's TTL clock on every overwrite,
	// so the TTL measures age since the last write instead of age since
	// first insertion (e.g. a journal entry's age since it settled).
	RefreshOnWrite bool
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
	// OnEvict observes capacity/TTL evictions; may be nil. Called under
	// the shard lock — must not call back into the store.
	OnEvict func(key string, v V, reason Reason)
	// Evictable vetoes eviction of in-flight entries; nil means every
	// entry is evictable. Called under the shard lock. The veto covers
	// both capacity eviction and TTL expiry.
	Evictable func(key string, v V) bool
}

// Store is a sharded string-keyed map. The zero value is not usable;
// call New (memory-only) or NewPersistent (backed by a Backend).
type Store[V any] struct {
	cfg    Config[V]
	shards []shard[V]
	mask   uint32
	size   atomic.Int64
	sweep  atomic.Uint32 // round-robin eviction cursor

	// Persistence plumbing; zero for memory-only stores. See persist.go.
	backend      Backend
	codec        Codec[V]
	onPersistErr func(error)
	appends      atomic.Int64 // records since the last compaction
	compacting   atomic.Bool
	closing      atomic.Bool
	compactWG    sync.WaitGroup
	loading      bool // replay in progress: suppress re-appending
	// degraded flags a permanent persistence failure: appends stop,
	// the memory tier keeps serving. See reportPersistErr.
	degraded atomic.Bool
	errMu    sync.Mutex
	firstErr error
}

type shard[V any] struct {
	mu sync.Mutex
	m  map[string]*entry[V]
	// order is the FIFO queue of (key, seq) in first-insertion order.
	// Stale records (deleted or re-inserted keys) are skipped and
	// dropped during eviction scans; head tracks the scan start.
	order []orderRec
	head  int
	// stale counts records invalidated by Delete. Eviction scans only
	// reclaim the queue's prefix, so a Put/Delete workload that never
	// triggers eviction would grow order without bound; once stale
	// records dominate, Delete rebuilds the queue (amortized O(1)).
	stale int
}

type orderRec struct {
	key string
	seq uint64
}

type entry[V any] struct {
	v   V
	at  time.Time // insertion time, for TTL
	seq uint64
}

var seqCounter atomic.Uint64

// New builds a store.
func New[V any](cfg Config[V]) *Store[V] {
	n := cfg.Shards
	if n <= 0 {
		n = DefaultShards
	}
	// Round up to a power of two so striping is a mask, not a modulo.
	pow := 1
	for pow < n {
		pow <<= 1
	}
	s := &Store[V]{cfg: cfg, shards: make([]shard[V], pow), mask: uint32(pow - 1)}
	for i := range s.shards {
		s.shards[i].m = make(map[string]*entry[V])
	}
	return s
}

// Key builds a composite key from parts, NUL-separated. Parts must not
// contain NUL bytes for the composition to stay injective (agent IDs
// and host names in this codebase never do).
func Key(parts ...string) string {
	switch len(parts) {
	case 0:
		return ""
	case 1:
		return parts[0]
	}
	n := len(parts) - 1
	for _, p := range parts {
		n += len(p)
	}
	b := make([]byte, 0, n)
	for i, p := range parts {
		if i > 0 {
			b = append(b, 0)
		}
		b = append(b, p...)
	}
	return string(b)
}

func (s *Store[V]) now() time.Time {
	if s.cfg.Now != nil {
		return s.cfg.Now()
	}
	return time.Now()
}

func (s *Store[V]) shardFor(key string) *shard[V] {
	// Inlined FNV-1a: the striping hash runs on every operation and
	// must not allocate (hash/fnv's New32a escapes).
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &s.shards[h&s.mask]
}

// expired reports whether e is past the TTL at time now and not vetoed
// by the Evictable hook. Must be called under the entry's shard lock.
func (s *Store[V]) expired(key string, e *entry[V], now time.Time) bool {
	if s.cfg.TTL <= 0 || now.Sub(e.at) < s.cfg.TTL {
		return false
	}
	return s.cfg.Evictable == nil || s.cfg.Evictable(key, e.v)
}

// dropLocked removes key from the shard map (the FIFO record is
// dropped lazily by eviction scans), decrements the global size, and
// appends the removal to the backend, if any.
func (s *Store[V]) dropLocked(sh *shard[V], key string) {
	delete(sh.m, key)
	s.size.Add(-1)
	s.appendRecord(OpDelete, key, *new(V))
}

// expireLocked evicts one TTL-expired entry: OnEvict first (so e.g. an
// evidence spill lands before the removal is logged), then the drop.
func (s *Store[V]) expireLocked(sh *shard[V], key string, e *entry[V]) {
	if s.cfg.OnEvict != nil {
		s.cfg.OnEvict(key, e.v, EvictTTL)
	}
	s.dropLocked(sh, key)
}

// Get returns the value for key. An entry past the TTL reads as absent
// and is expired in place.
func (s *Store[V]) Get(key string) (V, bool) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	if s.expired(key, e, s.now()) {
		s.expireLocked(sh, key, e)
		var zero V
		return zero, false
	}
	return e.v, true
}

// Put stores key = v, evicting beyond capacity. Overwriting an
// existing key keeps its FIFO position and insertion time.
func (s *Store[V]) Put(key string, v V) {
	s.Upsert(key, func(V, bool) V { return v })
}

// GetOrCreate returns the existing value or stores and returns
// create(). created reports whether create ran. The existing-key path
// is a pure read: it does not count as a write for RefreshOnWrite TTL
// purposes and appends nothing to a persistence backend (an Upsert
// returning the old value would do both).
func (s *Store[V]) GetOrCreate(key string, create func() V) (v V, created bool) {
	if v, ok := s.Get(key); ok {
		return v, false
	}
	v = s.Upsert(key, func(old V, ok bool) V {
		if ok {
			return old // lost a create race; keep the winner
		}
		created = true
		return create()
	})
	return v, created
}

// Upsert atomically replaces key's value with fn(old, existed) under
// the shard lock and returns the stored value. fn must not call back
// into the store.
func (s *Store[V]) Upsert(key string, fn func(old V, ok bool) V) V {
	sh := s.shardFor(key)
	sh.mu.Lock()
	now := s.now()
	e, ok := sh.m[key]
	if ok && s.expired(key, e, now) {
		s.expireLocked(sh, key, e)
		ok = false
	}
	var old V
	if ok {
		old = e.v
	}
	v := fn(old, ok)
	if ok {
		e.v = v
		if s.cfg.RefreshOnWrite {
			e.at = now
		}
		s.appendRecord(OpPut, key, v)
		sh.mu.Unlock()
		return v
	}
	seq := seqCounter.Add(1)
	sh.m[key] = &entry[V]{v: v, at: now, seq: seq}
	sh.order = append(sh.order, orderRec{key: key, seq: seq})
	s.appendRecord(OpPut, key, v)
	sh.mu.Unlock()
	if n := s.size.Add(1); s.cfg.Capacity > 0 && int(n) > s.cfg.Capacity {
		s.evict()
	}
	return v
}

// View runs fn with key's current value under the shard lock — the
// race-free way to read interior state of a shared value (e.g. copy a
// slice whose backing array concurrent Upserts append to). fn must not
// call back into the store.
func (s *Store[V]) View(key string, fn func(v V, ok bool)) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.m[key]
	if ok && s.expired(key, e, s.now()) {
		s.expireLocked(sh, key, e)
		ok = false
	}
	if !ok {
		var zero V
		fn(zero, false)
		return
	}
	fn(e.v, true)
}

// Delete removes key, reporting whether it was present. OnEvict does
// not fire.
func (s *Store[V]) Delete(key string) bool {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.m[key]; !ok {
		return false
	}
	s.dropLocked(sh, key)
	sh.stale++
	if sh.stale > 64 && sh.stale > len(sh.m) {
		s.rebuildOrderLocked(sh)
	}
	return true
}

// rebuildOrderLocked drops every stale FIFO record, keeping the queue's
// memory proportional to the live entry count under Put/Delete churn.
func (s *Store[V]) rebuildOrderLocked(sh *shard[V]) {
	live := sh.order[:0]
	for _, rec := range sh.order[sh.head:] {
		if e, ok := sh.m[rec.key]; ok && e.seq == rec.seq {
			live = append(live, rec)
		}
	}
	sh.order = live
	sh.head = 0
	sh.stale = 0
}

// Len returns the entry count (TTL-expired entries still count until
// touched).
func (s *Store[V]) Len() int { return int(s.size.Load()) }

// SweepExpired eagerly drops every TTL-expired, non-vetoed entry and
// returns how many were dropped. Expiry is otherwise lazy (an expired
// entry is only reclaimed when its key is touched or a capacity
// eviction scan passes it), so long-lived stores with quiet keys call
// this periodically to shed settled state by age.
func (s *Store[V]) SweepExpired() int {
	if s.cfg.TTL <= 0 {
		return 0
	}
	dropped := 0
	now := s.now()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, e := range sh.m {
			if s.expired(k, e, now) {
				s.expireLocked(sh, k, e)
				sh.stale++
				dropped++
			}
		}
		if sh.stale > 64 && sh.stale > len(sh.m) {
			s.rebuildOrderLocked(sh)
		}
		sh.mu.Unlock()
	}
	return dropped
}

// Range calls fn over a point-in-time snapshot of each shard taken
// under its lock; fn itself runs unlocked, so it may call back into the
// store. Entries inserted or removed while ranging may or may not be
// seen; no entry is visited twice.
func (s *Store[V]) Range(fn func(key string, v V) bool) {
	type kv struct {
		k string
		v V
	}
	now := s.now()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		snap := make([]kv, 0, len(sh.m))
		for k, e := range sh.m {
			if s.expired(k, e, now) {
				continue
			}
			snap = append(snap, kv{k, e.v})
		}
		sh.mu.Unlock()
		for _, p := range snap {
			if !fn(p.k, p.v) {
				return
			}
		}
	}
}

// evict removes the oldest evictable entries, sweeping shards
// round-robin, until the store is back under capacity or a full sweep
// finds nothing evictable (transient overshoot is tolerated: in-flight
// entries are never dropped). Shards are locked one at a time, never
// nested.
func (s *Store[V]) evict() {
	misses := 0
	for int(s.size.Load()) > s.cfg.Capacity && misses < len(s.shards) {
		idx := s.sweep.Add(1) & s.mask
		if s.evictOneFrom(&s.shards[idx]) {
			misses = 0
		} else {
			misses++
		}
	}
}

// evictOneFrom pops the shard's oldest evictable entry; reports whether
// one was evicted. Stale FIFO records (deleted/re-inserted keys) are
// compacted away as the scan passes them.
func (s *Store[V]) evictOneFrom(sh *shard[V]) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	now := s.now()
	for i := sh.head; i < len(sh.order); i++ {
		rec := sh.order[i]
		e, ok := sh.m[rec.key]
		if !ok || e.seq != rec.seq {
			// Stale: the key was deleted or re-inserted; drop the record
			// if it is still at the scan head.
			if i == sh.head {
				sh.head++
			}
			continue
		}
		reason := EvictCapacity
		if s.expired(rec.key, e, now) {
			reason = EvictTTL
		} else if s.cfg.Evictable != nil && !s.cfg.Evictable(rec.key, e.v) {
			continue // pinned; look past it
		}
		// OnEvict before the drop: a spill hook runs before the removal
		// reaches the backend's log.
		if s.cfg.OnEvict != nil {
			s.cfg.OnEvict(rec.key, e.v, reason)
		}
		s.dropLocked(sh, rec.key)
		if i == sh.head {
			sh.head++
		}
		s.compactLocked(sh)
		return true
	}
	s.compactLocked(sh)
	return false
}

// compactLocked reclaims the consumed prefix of the FIFO queue once it
// dominates the slice, keeping the queue's memory proportional to the
// live entry count.
func (s *Store[V]) compactLocked(sh *shard[V]) {
	if sh.head > 64 && sh.head > len(sh.order)/2 {
		n := copy(sh.order, sh.order[sh.head:])
		sh.order = sh.order[:n]
		sh.head = 0
	}
}
