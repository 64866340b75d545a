package canon

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/testutil"
	"repro/internal/value"
)

// hashStates covers every kind, nesting, and map-ordering hazard the
// writer's key scratch must keep byte-for-byte.
func hashStates() []value.State {
	return []value.State{
		{},
		{"x": value.Int(-7)},
		{"s": value.Str("0123456789"), "b": value.Bool(true), "n": value.Null()},
		{"xs": value.List(value.Int(1), value.Str("two"), value.List(value.Bool(false)))},
		{"m": value.Map(map[string]value.Value{
			"zz": value.Int(1),
			"aa": value.Map(map[string]value.Value{"inner": value.List(value.Str("deep"))}),
			"mm": value.Str(""),
		})},
		benchState(50),
	}
}

func benchState(vars int) value.State {
	s := value.State{}
	for c := 0; c < vars; c++ {
		s[fmt.Sprintf("var%02d", c)] = value.List(
			value.Int(int64(c)), value.Str("0123456789"),
			value.Map(map[string]value.Value{"k": value.Int(int64(c * 2))}))
	}
	return s
}

func TestStreamingHashMatchesMaterialized(t *testing.T) {
	for i, s := range hashStates() {
		want := Digest(sha256.Sum256(EncodeState(s)))
		if got := HashState(s); got != want {
			t.Errorf("state %d: streaming digest %s != materialized %s", i, got, want)
		}
		for k, v := range s {
			want := Digest(sha256.Sum256(encodeValue(v)))
			if got := HashValue(v); got != want {
				t.Errorf("state %d, value %q: streaming digest mismatch", i, k)
			}
		}
	}
}

func TestStreamingHashTupleMatchesMaterialized(t *testing.T) {
	fields := [][]byte{[]byte("role"), nil, []byte("0123456789")}
	want := Digest(sha256.Sum256(Tuple(fields...)))
	if got := HashTuple(fields...); got != want {
		t.Errorf("tuple digest: streaming %s != materialized %s", got, want)
	}
}

func TestSizeHelpersMatchEncoding(t *testing.T) {
	for i, s := range hashStates() {
		for k, v := range s {
			if got, want := SizeValue(v), len(AppendValue(nil, v)); got != want {
				t.Errorf("state %d, value %q: SizeValue = %d, encoded length = %d", i, k, got, want)
			}
		}
	}
}

func TestScanTupleRoundTrip(t *testing.T) {
	fields := [][]byte{[]byte("a"), nil, []byte("0123456789")}
	s, err := ScanTuple(Tuple(fields...))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(fields) {
		t.Fatalf("got %d fields, want %d", s.Len(), len(fields))
	}
	for i := range fields {
		if got := s.Field(MaxLen); string(got) != string(fields[i]) {
			t.Errorf("field %d: %q != %q", i, got, fields[i])
		}
	}
	if err := s.End(); err != nil {
		t.Fatal(err)
	}
	s, err = ScanTuple(append(Tuple(fields...), 0))
	if err != nil {
		t.Fatal(err)
	}
	for s.Len() > 0 {
		s.Field(MaxLen)
	}
	if err := s.End(); !errors.Is(err, ErrMalformed) {
		t.Errorf("trailing byte accepted: %v", err)
	}
	if _, err := ScanTuple([]byte{version, tagTuple, 0, 0, 0, 9}); err == nil {
		t.Error("truncated tuple accepted")
	}
}

func TestEncodeOversizedPanicsTyped(t *testing.T) {
	big := value.Str(string(make([]byte, MaxLen+1)))
	cases := map[string]func(){
		"AppendValue": func() { AppendValue(nil, big) },
		"AppendState": func() { AppendState(nil, value.State{"x": big}) },
		"Tuple":       func() { Tuple(make([]byte, MaxLen+1)) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s: no panic on oversized input", name)
					return
				}
				err, ok := r.(error)
				if !ok || !errors.Is(err, ErrTooLarge) {
					t.Errorf("%s: panic value %v does not wrap ErrTooLarge", name, r)
				}
				var se *SizeError
				if !errors.As(err, &se) {
					t.Errorf("%s: panic value %T is not a *SizeError", name, err)
				}
			}()
			fn()
		}()
	}
}

// TestHashStateAllocs pins the digests' allocation ceiling: pooled
// bytes and key scratch make steady-state digesting allocation-free.
func TestHashStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation ceilings are not meaningful under the race detector")
	}
	s := benchState(50)
	HashState(s) // warm the pool and key scratch
	if avg := testing.AllocsPerRun(100, func() { HashState(s) }); avg > 0 {
		t.Errorf("HashState allocs/op = %.1f, want 0", avg)
	}
	v := s["var01"]
	HashValue(v)
	if avg := testing.AllocsPerRun(100, func() { HashValue(v) }); avg > 0 {
		t.Errorf("HashValue allocs/op = %.1f, want 0", avg)
	}
	fields := [][]byte{[]byte("trace"), []byte("0123456789")}
	if avg := testing.AllocsPerRun(100, func() { HashTuple(fields...) }); avg > 1 {
		t.Errorf("HashTuple allocs/op = %.1f, want <= 1 (variadic slice)", avg)
	}
}

// TestAppendStateAllocs pins the writer's ceiling: encoding into a warm
// buffer allocates nothing, maps included, because keys sort in pooled
// per-depth scratch.
func TestAppendStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation ceilings are not meaningful under the race detector")
	}
	s := benchState(50)
	buf := AppendState(nil, s) // warm the buffer and the key scratch
	if avg := testing.AllocsPerRun(100, func() { buf = AppendState(buf[:0], s) }); avg > 0 {
		t.Errorf("AppendState allocs/op = %.1f, want 0", avg)
	}
}

// TestConcurrentHashing digests distinct states and tuples from several
// goroutines at once, so the pooled bytes and key scratch are shared
// between them (go test -race checks the sharing).
func TestConcurrentHashing(t *testing.T) {
	const workers, rounds = 8, 50
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				s := benchState(1 + (w*rounds+r)%20)
				s["worker"] = value.Map(map[string]value.Value{"w": value.Int(int64(w)), "r": value.Int(int64(r))})
				if got, want := HashState(s), Digest(sha256.Sum256(EncodeState(s))); got != want {
					t.Errorf("worker %d round %d: state digest %s != %s", w, r, got, want)
				}
				f := []byte(fmt.Sprintf("worker %d round %d", w, r))
				if got, want := HashTuple([]byte("t"), f), Digest(sha256.Sum256(Tuple([]byte("t"), f))); got != want {
					t.Errorf("worker %d round %d: tuple digest %s != %s", w, r, got, want)
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkHashStatePooled digests a 50-variable state through the
// pooled writer; BenchmarkHashStateMaterialized encodes the same state
// into a fresh slice and hashes it, the cost the pool saves.
func BenchmarkHashStatePooled(b *testing.B) {
	s := benchState(50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		HashState(s)
	}
}

func BenchmarkHashStateMaterialized(b *testing.B) {
	s := benchState(50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Digest(sha256.Sum256(EncodeState(s)))
	}
}
