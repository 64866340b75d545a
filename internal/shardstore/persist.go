package shardstore

import (
	"errors"
	"fmt"
)

// DefaultCompactEvery is the number of appended records between
// snapshot compactions. It is high enough that compaction never
// dominates a steady write load and low enough that replay time stays
// proportional to the live state, not the node's lifetime.
const DefaultCompactEvery = 4096

// PersistConfig wires a Backend under a Store.
type PersistConfig[V any] struct {
	// Backend is the persistence layer (e.g. a WAL). The store owns it
	// from here on: Store.Close closes it.
	Backend Backend
	// Codec converts values to and from the backend's byte records.
	Codec Codec[V]
	// OnError observes the first persistence failure (append or
	// compaction I/O error); may be nil. It fires exactly once: the
	// backend's errors are sticky and a log with holes would replay
	// into a silently wrong state, so on the first failure the store
	// stops appending and keeps serving from memory — persistence is
	// degraded, not the cache. The error is also returned by Close.
	OnError func(error)
}

// NewPersistent builds a store layered over a persistence backend: the
// backend's log is replayed to rebuild the in-memory state, and every
// subsequent mutation (insert, overwrite, delete, capacity eviction,
// TTL expiry) is appended to it. The in-memory sharded tier remains the
// cache and the only read path.
//
// Replay re-enters entries through the normal insert path, so capacity
// bounds and OnEvict/Evictable hooks apply to recovered state exactly
// as they do to live state (a store reopened with a smaller capacity
// evicts down, firing OnEvict; evictions during replay are not logged —
// the next compaction reconciles the backend). Two recovery caveats:
// per-shard FIFO age order is rebuilt from log order, which matches
// original insertion order up to the last compaction's snapshot (a
// snapshot iterates in unspecified order); and TTL clocks restart at
// replay time.
//
// Callers must stop writing before calling Close, which flushes and
// closes the backend.
func NewPersistent[V any](cfg Config[V], p PersistConfig[V]) (*Store[V], error) {
	if p.Backend == nil {
		return nil, errors.New("shardstore: NewPersistent requires a Backend")
	}
	if p.Codec.Encode == nil || p.Codec.Decode == nil {
		return nil, errors.New("shardstore: NewPersistent requires a complete Codec")
	}
	s := New(cfg)
	s.backend = p.Backend
	s.codec = p.Codec
	s.onPersistErr = p.OnError
	s.loading = true
	err := p.Backend.Replay(func(op Op, key string, value []byte) error {
		switch op {
		case OpPut:
			v, derr := p.Codec.Decode(value)
			if derr != nil {
				return fmt.Errorf("shardstore: replaying key %q: %w", key, derr)
			}
			s.Put(key, v)
		case OpDelete:
			s.Delete(key)
		default:
			return fmt.Errorf("%w: unknown op %d for key %q", ErrCorrupt, op, key)
		}
		return nil
	})
	s.loading = false
	if err != nil {
		_ = p.Backend.Close()
		return nil, err
	}
	return s, nil
}

// appendRecord mirrors one mutation into the backend. It runs under the
// entry's shard lock (so the encoded bytes are consistent with memory),
// which is also what orders the backend's per-key records. Failures are
// reported, not propagated: the memory tier stays authoritative. After
// the first failure the store stops appending altogether — the WAL's
// own errors are sticky, and a log with holes would replay into a
// silently wrong state, so degraded means degraded.
func (s *Store[V]) appendRecord(op Op, key string, v V) {
	if s.backend == nil || s.loading || s.degraded.Load() {
		return
	}
	var value []byte
	if op == OpPut {
		b, err := s.codec.Encode(v)
		if err != nil {
			s.reportPersistErr(fmt.Errorf("shardstore: encoding key %q: %w", key, err))
			return
		}
		value = b
	}
	if err := s.backend.Append(op, key, value); err != nil {
		s.reportPersistErr(err)
		return
	}
	if s.appends.Add(1) >= DefaultCompactEvery {
		s.maybeCompact()
	}
}

// maybeCompact starts one background compaction if none is running and
// the store is not closing.
func (s *Store[V]) maybeCompact() {
	if s.closing.Load() || !s.compacting.CompareAndSwap(false, true) {
		return
	}
	s.appends.Store(0)
	s.compactWG.Add(1)
	go func() {
		defer s.compactWG.Done()
		defer s.compacting.Store(false)
		if err := s.Compact(); err != nil && !errors.Is(err, ErrWALClosed) {
			s.reportPersistErr(err)
		}
	}()
}

// Compact snapshots the store's full live state into the backend,
// letting it drop the log records the snapshot covers. Automatic
// compaction (every DefaultCompactEvery records) calls this in the
// background; explicit calls are useful before a planned shutdown.
// No-op for memory-only stores.
func (s *Store[V]) Compact() error {
	if s.backend == nil {
		return nil
	}
	return s.backend.Compact(func(emit func(key string, value []byte) error) error {
		return s.snapshotEncoded(emit)
	})
}

// snapshotEncoded streams every live entry's encoded bytes to emit.
// Values are encoded under their shard lock (consistent with memory),
// then emitted unlocked so backend I/O never stalls a shard.
func (s *Store[V]) snapshotEncoded(emit func(key string, value []byte) error) error {
	type kv struct {
		k   string
		enc []byte
	}
	now := s.now()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		snap := make([]kv, 0, len(sh.m))
		var encErr error
		for k, e := range sh.m {
			if s.expired(k, e, now) {
				continue
			}
			enc, err := s.codec.Encode(e.v)
			if err != nil {
				encErr = fmt.Errorf("shardstore: encoding key %q: %w", k, err)
				break
			}
			snap = append(snap, kv{k, enc})
		}
		sh.mu.Unlock()
		if encErr != nil {
			return encErr
		}
		for _, p := range snap {
			if err := emit(p.k, p.enc); err != nil {
				return err
			}
		}
	}
	return nil
}

// reportPersistErr records the first persistence failure (returned by
// Close), forwards it to the OnError hook exactly once, and flags the
// store degraded so the hot path stops paying for (and re-reporting) a
// backend that can no longer accept records.
func (s *Store[V]) reportPersistErr(err error) {
	s.errMu.Lock()
	first := s.firstErr == nil
	if first {
		s.firstErr = err
	}
	s.errMu.Unlock()
	s.degraded.Store(true)
	if first && s.onPersistErr != nil {
		s.onPersistErr(err)
	}
}

// StatsProvider is implemented by backends that expose WAL-style
// lifetime counters (*WAL does).
type StatsProvider interface {
	Stats() WALStats
}

// BackendStats returns the backend's lifetime counters when the
// backend exposes them (false for memory-only stores and backends
// without stats).
func (s *Store[V]) BackendStats() (WALStats, bool) {
	if sp, ok := s.backend.(StatsProvider); ok {
		return sp.Stats(), true
	}
	return WALStats{}, false
}

// Close waits out any background compaction and closes the backend,
// returning the first persistence failure seen over the store's
// lifetime, if any. Callers must have stopped writing. No-op (and nil)
// for memory-only stores.
func (s *Store[V]) Close() error {
	if s.backend == nil {
		return nil
	}
	if !s.closing.CompareAndSwap(false, true) {
		return nil
	}
	s.compactWG.Wait()
	closeErr := s.backend.Close()
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return errors.Join(s.firstErr, closeErr)
}
