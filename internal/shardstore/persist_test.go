package shardstore

import (
	"fmt"
	"strconv"
	"testing"
	"time"
)

// intCodec persists int values as decimal strings — small, readable in
// test failures, and exercises a real encode/decode round trip.
var intCodec = Codec[int]{
	Encode: func(v int) ([]byte, error) { return []byte(strconv.Itoa(v)), nil },
	Decode: func(b []byte) (int, error) { return strconv.Atoi(string(b)) },
}

func newPersistentInt(t *testing.T, dir string, cfg Config[int], p PersistConfig[int]) *Store[int] {
	t.Helper()
	if p.Backend == nil {
		w, err := OpenWAL(dir, WALConfig{FlushInterval: -1})
		if err != nil {
			t.Fatalf("OpenWAL: %v", err)
		}
		p.Backend = w
	}
	if p.Codec.Encode == nil {
		p.Codec = intCodec
	}
	s, err := NewPersistent(cfg, p)
	if err != nil {
		t.Fatalf("NewPersistent: %v", err)
	}
	return s
}

func TestPersistentStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := newPersistentInt(t, dir, Config[int]{}, PersistConfig[int]{})
	for i := 0; i < 50; i++ {
		s.Put(fmt.Sprintf("k%d", i), i)
	}
	s.Put("k7", 700) // overwrite
	s.Delete("k9")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := newPersistentInt(t, dir, Config[int]{}, PersistConfig[int]{})
	defer r.Close()
	if r.Len() != 49 {
		t.Fatalf("reopened Len=%d, want 49", r.Len())
	}
	if v, ok := r.Get("k7"); !ok || v != 700 {
		t.Fatalf("k7=%d,%v after reopen, want 700", v, ok)
	}
	if _, ok := r.Get("k9"); ok {
		t.Fatal("deleted key k9 resurrected after reopen")
	}
	for i := 0; i < 50; i++ {
		if i == 7 || i == 9 {
			continue
		}
		if v, ok := r.Get(fmt.Sprintf("k%d", i)); !ok || v != i {
			t.Fatalf("k%d=%d,%v after reopen, want %d", i, v, ok, i)
		}
	}
}

func TestPersistentStoreAutoCompacts(t *testing.T) {
	dir := t.TempDir()
	s := newPersistentInt(t, dir, Config[int]{}, PersistConfig[int]{})
	// Churn one key past DefaultCompactEvery: the log would hold every
	// overwrite, the snapshot only the final value.
	for i := 0; i < DefaultCompactEvery+500; i++ {
		s.Put("hot", i)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, snaps, _, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshot written despite churn past DefaultCompactEvery")
	}
	r := newPersistentInt(t, dir, Config[int]{}, PersistConfig[int]{})
	defer r.Close()
	if v, ok := r.Get("hot"); !ok || v != DefaultCompactEvery+499 {
		t.Fatalf("hot=%d,%v after compacted reopen, want %d", v, ok, DefaultCompactEvery+499)
	}
	if r.Len() != 1 {
		t.Fatalf("Len=%d after compacted reopen, want 1", r.Len())
	}
}

func TestPersistentStoreCapacityEvictionIsDurable(t *testing.T) {
	dir := t.TempDir()
	s := newPersistentInt(t, dir, Config[int]{Capacity: 4}, PersistConfig[int]{})
	for i := 0; i < 12; i++ {
		s.Put(fmt.Sprintf("k%d", i), i)
	}
	// Eviction order is per-shard FIFO, not strict global FIFO, so the
	// invariant to check is that the reopened state equals the state at
	// close — whichever keys survived the evictions.
	before := map[string]int{}
	s.Range(func(k string, v int) bool { before[k] = v; return true })
	if len(before) != 4 {
		t.Fatalf("live set %v, want 4 entries under capacity 4", before)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := newPersistentInt(t, dir, Config[int]{Capacity: 4}, PersistConfig[int]{})
	defer r.Close()
	after := map[string]int{}
	r.Range(func(k string, v int) bool { after[k] = v; return true })
	if len(after) != len(before) {
		t.Fatalf("reopened live set %v, want %v", after, before)
	}
	for k, v := range before {
		if after[k] != v {
			t.Fatalf("reopened live set %v, want %v", after, before)
		}
	}
}

func TestPersistentStoreReopenedWithSmallerCapacityEvicts(t *testing.T) {
	dir := t.TempDir()
	s := newPersistentInt(t, dir, Config[int]{}, PersistConfig[int]{})
	for i := 0; i < 20; i++ {
		s.Put(fmt.Sprintf("k%d", i), i)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	evicted := 0
	r := newPersistentInt(t, dir, Config[int]{
		Capacity: 5,
		OnEvict:  func(string, int, Reason) { evicted++ },
	}, PersistConfig[int]{})
	defer r.Close()
	if r.Len() != 5 {
		t.Fatalf("reopened Len=%d, want shrunken capacity 5", r.Len())
	}
	if evicted != 15 {
		t.Fatalf("OnEvict fired %d times during replay, want 15", evicted)
	}
}

func TestTTLVetoedByEvictable(t *testing.T) {
	now := time.Now()
	clock := func() time.Time { return now }
	s := New(Config[int]{
		TTL: time.Second,
		Now: clock,
		// Odd values are "in flight": they must neither expire nor be
		// swept.
		Evictable: func(_ string, v int) bool { return v%2 == 0 },
	})
	s.Put("even", 2)
	s.Put("odd", 1)
	now = now.Add(2 * time.Second)
	if _, ok := s.Get("even"); ok {
		t.Fatal("expired evictable entry still readable")
	}
	if _, ok := s.Get("odd"); !ok {
		t.Fatal("vetoed entry expired despite Evictable veto")
	}
	if n := s.SweepExpired(); n != 0 {
		t.Fatalf("sweep dropped %d vetoed entries, want 0", n)
	}
}

func TestRefreshOnWriteRestartsTTL(t *testing.T) {
	now := time.Now()
	s := New(Config[int]{
		TTL:            10 * time.Second,
		RefreshOnWrite: true,
		Now:            func() time.Time { return now },
	})
	s.Put("k", 1)
	now = now.Add(8 * time.Second)
	s.Put("k", 2) // refreshes the clock
	now = now.Add(8 * time.Second)
	if v, ok := s.Get("k"); !ok || v != 2 {
		t.Fatalf("k=%d,%v 8s after refresh, want alive with 2", v, ok)
	}
	now = now.Add(3 * time.Second)
	if _, ok := s.Get("k"); ok {
		t.Fatal("k alive 11s after its last write")
	}
}

func TestSweepExpired(t *testing.T) {
	now := time.Now()
	ttlEvicted := 0
	s := New(Config[int]{
		TTL: time.Second,
		Now: func() time.Time { return now },
		OnEvict: func(_ string, _ int, r Reason) {
			if r == EvictTTL {
				ttlEvicted++
			}
		},
	})
	for i := 0; i < 10; i++ {
		s.Put(fmt.Sprintf("old%d", i), i)
	}
	now = now.Add(2 * time.Second)
	for i := 0; i < 3; i++ {
		s.Put(fmt.Sprintf("new%d", i), i)
	}
	if n := s.SweepExpired(); n != 10 {
		t.Fatalf("sweep dropped %d, want 10", n)
	}
	if ttlEvicted != 10 {
		t.Fatalf("OnEvict(TTL) fired %d times, want 10", ttlEvicted)
	}
	if s.Len() != 3 {
		t.Fatalf("Len=%d after sweep, want 3", s.Len())
	}
}

// countingBackend counts appends; used to pin which operations write.
type countingBackend struct {
	appends int
}

func (b *countingBackend) Replay(func(Op, string, []byte) error) error { return nil }
func (b *countingBackend) Append(Op, string, []byte) error             { b.appends++; return nil }
func (b *countingBackend) Compact(func(emit func(string, []byte) error) error) error {
	return nil
}
func (b *countingBackend) Close() error { return nil }

func TestGetOrCreateExistingKeyIsAPureRead(t *testing.T) {
	backend := &countingBackend{}
	now := time.Now()
	s, err := NewPersistent(Config[int]{
		TTL:            10 * time.Second,
		RefreshOnWrite: true,
		Now:            func() time.Time { return now },
	}, PersistConfig[int]{Backend: backend, Codec: intCodec})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, created := s.GetOrCreate("k", func() int { return 1 }); !created {
		t.Fatal("first GetOrCreate did not create")
	}
	after := backend.appends
	// Polling an existing key must not append to the backend...
	for i := 0; i < 100; i++ {
		if v, created := s.GetOrCreate("k", func() int { return 2 }); created || v != 1 {
			t.Fatalf("GetOrCreate = %d, created=%v", v, created)
		}
	}
	if backend.appends != after {
		t.Fatalf("GetOrCreate on an existing key appended %d records", backend.appends-after)
	}
	// ...and must not refresh the RefreshOnWrite TTL clock: the entry
	// still expires relative to its last real write.
	now = now.Add(11 * time.Second)
	if _, ok := s.Get("k"); ok {
		t.Fatal("GetOrCreate reads kept a RefreshOnWrite entry alive past its TTL")
	}
}

func TestPersistentStoreSweepIsDurable(t *testing.T) {
	dir := t.TempDir()
	now := time.Now()
	s := newPersistentInt(t, dir, Config[int]{
		TTL: time.Second,
		Now: func() time.Time { return now },
	}, PersistConfig[int]{})
	s.Put("stale", 1)
	now = now.Add(2 * time.Second)
	s.Put("fresh", 2)
	if n := s.SweepExpired(); n != 1 {
		t.Fatalf("sweep dropped %d, want 1", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := newPersistentInt(t, dir, Config[int]{}, PersistConfig[int]{})
	defer r.Close()
	if _, ok := r.Get("stale"); ok {
		t.Fatal("swept entry resurrected after reopen")
	}
	if _, ok := r.Get("fresh"); !ok {
		t.Fatal("fresh entry lost after reopen")
	}
}
