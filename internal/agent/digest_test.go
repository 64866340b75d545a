package agent

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/canon"
	"repro/internal/value"
)

// TestStateDigestInvalidation drives every Agent-level state write path
// and asserts the memoized digest tracks the state exactly: stale
// digests would let a host sign a state it no longer carries.
func TestStateDigestInvalidation(t *testing.T) {
	a := newTestAgent(t)

	check := func(step string) {
		t.Helper()
		if got, want := a.StateDigest(), canon.HashState(a.State); got != want {
			t.Fatalf("%s: cached digest %s != recomputed %s", step, got, want)
		}
	}
	mustChange := func(step string, prev canon.Digest) canon.Digest {
		t.Helper()
		check(step)
		d := a.StateDigest()
		if d == prev {
			t.Fatalf("%s: digest did not change", step)
		}
		return d
	}

	d := a.StateDigest()
	if a.StateDigest() != d {
		t.Fatal("digest not stable without mutation")
	}

	a.SetVar("x", value.Int(1))
	d = mustChange("SetVar", d)

	a.SetVar("x", value.List(value.Int(1)))
	d = mustChange("SetVar overwrite", d)

	a.MutateState(func(st value.State) {
		st["y"] = value.Str("hello")
		st["x"] = value.Int(2)
	})
	d = mustChange("MutateState", d)

	a.SetState(value.State{"z": value.Bool(true)})
	d = mustChange("SetState", d)

	// Direct Go-level mutation followed by explicit invalidation — the
	// documented escape hatch.
	a.State["w"] = value.Int(9)
	a.InvalidateStateDigest()
	d = mustChange("InvalidateStateDigest", d)

	// A clone carries the cache but stays coherent on its own writes.
	c := a.Clone()
	if c.StateDigest() != d {
		t.Fatal("clone digest differs from source")
	}
	c.SetVar("w", value.Int(10))
	if c.StateDigest() == d {
		t.Fatal("clone write did not change its digest")
	}
	if a.StateDigest() != d {
		t.Fatal("clone write leaked into source digest")
	}
}

// TestUnmarshalRejectsForgedCounts: the wire counts are attacker
// controlled; an overflowing sum must not let an encoding decode with
// trailing fields silently dropped.
func TestUnmarshalRejectsForgedCounts(t *testing.T) {
	a := newTestAgent(t)
	a.SetBaggage("mech", []byte("payload"))
	wire, err := a.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the baggage count with 2^63+1: 10 + nRoute + 2*nBag
	// wraps back to the true field count in uint64 arithmetic.
	forged := wireFields(t, wire)
	forged[9] = []byte{0x80, 0, 0, 0, 0, 0, 0, 1}
	if _, err := Unmarshal(canon.Tuple(forged...)); err == nil {
		t.Fatal("forged baggage count accepted")
	}
}

// TestUnmarshalSeedsDigest verifies the arrival fast path: the digest
// seeded from the wire encoding must equal a from-scratch rehash.
func TestUnmarshalSeedsDigest(t *testing.T) {
	a := newTestAgent(t)
	a.SetVar("money", value.Int(500))
	a.SetVar("offers", value.List(value.Str("x"), value.Map(map[string]value.Value{"p": value.Int(3)})))
	wire, err := a.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := b.StateDigest(), canon.HashState(b.State); got != want {
		t.Fatalf("seeded digest %s != recomputed %s", got, want)
	}
	if b.StateDigest() != a.StateDigest() {
		t.Fatal("digest changed across marshal round-trip")
	}
}

// TestUnmarshalRefusesNonCanonicalState: the arrival digest is seeded
// from the wire bytes, so those bytes must be the state's one encoding.
// A state whose true was sent as 0x02 used to arrive comparing Equal to
// the sender's, with a StateDigest that was the digest of neither it nor
// the sender's state; it is now refused.
func TestUnmarshalRefusesNonCanonicalState(t *testing.T) {
	a := newTestAgent(t)
	a.SetVar("zzflag", value.Bool(true))
	wire, err := a.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	canonical := append([]byte("zzflag"), 0x04, 0x01)
	if bytes.Count(wire, canonical) != 1 {
		t.Fatal("the flag's encoding is not where the test looks for it")
	}
	forged := bytes.Replace(wire, canonical, append([]byte("zzflag"), 0x04, 0x02), 1)
	if b, err := Unmarshal(forged); !errors.Is(err, canon.ErrMalformed) {
		t.Fatalf("state with true sent as 0x02: err = %v, want canon.ErrMalformed (digest memo %s, state digest %s)",
			err, b.StateDigest(), canon.HashState(b.State))
	}
}

// wireFields splits an agent encoding into its tuple fields.
func wireFields(t *testing.T, wire []byte) [][]byte {
	t.Helper()
	s, err := canon.ScanTuple(wire)
	if err != nil {
		t.Fatal(err)
	}
	var fields [][]byte
	for s.Len() > 0 {
		fields = append(fields, s.Field(len(wire)))
	}
	if err := s.End(); err != nil {
		t.Fatal(err)
	}
	return fields
}

// TestDecodeRefusesBaggageOutOfOrder: Encode writes baggage in sorted
// mechanism order, so keys that do not strictly increase are not an
// agent's encoding. Taking them would decode to an agent whose encoding
// differs from the bytes it came from, or drop a repeated slot.
func TestDecodeRefusesBaggageOutOfOrder(t *testing.T) {
	a := newTestAgent(t)
	a.SetBaggage("a", []byte("first"))
	a.SetBaggage("b", []byte("second"))
	fields := wireFields(t, a.Encode())
	n := len(fields)
	if string(fields[n-4]) != "a" || string(fields[n-2]) != "b" {
		t.Fatal("the baggage is not where the test looks for it")
	}
	rows := map[string]func(f [][]byte){
		"swapped":  func(f [][]byte) { f[n-4], f[n-3], f[n-2], f[n-1] = f[n-2], f[n-1], f[n-4], f[n-3] },
		"repeated": func(f [][]byte) { f[n-2] = f[n-4] },
	}
	for name, forge := range rows {
		forged := append([][]byte(nil), fields...)
		forge(forged)
		if _, err := Decode(canon.Tuple(forged...)); !errors.Is(err, canon.ErrMalformed) {
			t.Errorf("%s baggage keys: err = %v, want canon.ErrMalformed", name, err)
		}
	}
}
