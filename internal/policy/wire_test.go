package policy

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/sigcrypto"
	"repro/internal/testutil"
)

// mkEntries builds n syntactically valid (unsigned) entries.
func mkEntries(n int) []GossipEntry {
	out := make([]GossipEntry, n)
	for i := range out {
		out[i] = GossipEntry{
			Observer:   "observer",
			Host:       "suspect",
			Suspicion:  1.5,
			AtUnixNano: time.Now().UnixNano(),
			Sig:        sigcrypto.Signature{Signer: "observer", Sig: make([]byte, 64)},
		}
	}
	return out
}

// TestGossipWireRoundTrip pins that the tuple codec reproduces entries
// exactly.
func TestGossipWireRoundTrip(t *testing.T) {
	in := mkEntries(3)
	in[1].Suspicion = 0.25
	in[2].Host = "other"
	enc, err := encodeEntries(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodeEntriesBounded(enc, maxGossipEntries)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d entries, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Observer != in[i].Observer || out[i].Host != in[i].Host ||
			out[i].Suspicion != in[i].Suspicion || out[i].AtUnixNano != in[i].AtUnixNano ||
			out[i].Sig.Signer != in[i].Sig.Signer || len(out[i].Sig.Sig) != len(in[i].Sig.Sig) {
			t.Fatalf("entry %d mismatch: %+v vs %+v", i, out[i], in[i])
		}
	}
}

// TestGossipWireBounds is the regression test for the unbounded-decode
// bug: oversized messages, over-count messages, and huge declared
// counts are all rejected by the bounded decoder — no proportional
// allocation happens for bytes that were never sent.
func TestGossipWireBounds(t *testing.T) {
	// Over the byte bound: rejected before parsing.
	big := make([]byte, MaxGossipWireBytes+1)
	if _, err := decodeEntriesBounded(big, maxGossipEntries); !errors.Is(err, ErrGossipWire) {
		t.Fatalf("oversized message: err = %v, want ErrGossipWire", err)
	}
	// Baggage wrapper treats it as empty rather than erroring.
	if got := decodeEntries(big); got != nil {
		t.Fatalf("baggage wrapper returned %d entries for oversized input", len(got))
	}

	// Over the entry-count bound.
	enc, err := encodeEntries(mkEntries(maxGossipEntries + 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeEntriesBounded(enc, maxGossipEntries); !errors.Is(err, ErrGossipWire) {
		t.Fatalf("over-count message: err = %v, want ErrGossipWire", err)
	}

	// A tiny message declaring an enormous tuple count: the framed
	// format runs out of bytes immediately instead of allocating for
	// the declared count.
	forged := []byte{0x01, 0x09} // canon version + tuple tag
	forged = binary.BigEndian.AppendUint32(forged, 1<<25)
	if _, err := decodeEntriesBounded(forged, maxGossipEntries); err == nil {
		t.Fatal("huge declared count accepted")
	}

	// Per-field bounds hold on both sides of the wire.
	overlong := mkEntries(1)
	overlong[0].Observer = string(make([]byte, maxPrincipalLen+1))
	if _, err := encodeEntries(overlong); !errors.Is(err, ErrGossipWire) {
		t.Fatalf("overlong principal encoded: err = %v", err)
	}
}

// TestBindingDigestIsTheTuple pins what an entry signature covers to
// the canon tuple it has always been, materialized, so that signatures
// made by hosts of different builds verify alike.
func TestBindingDigestIsTheTuple(t *testing.T) {
	for _, e := range []GossipEntry{
		{Observer: "o", Host: "h", Suspicion: 1.5, AtUnixNano: 1},
		{Observer: string(make([]byte, maxPrincipalLen)), Host: "", Suspicion: math.MaxFloat64, AtUnixNano: -7},
		{Observer: "observer-with-a-longer-name", Host: "h\x00x", Suspicion: 8.000001, AtUnixNano: time.Now().UnixNano()},
	} {
		want := canon.HashBytes(canon.Tuple([]byte("policy-gossip"), []byte(e.Observer), []byte(e.Host),
			binary.BigEndian.AppendUint64(nil, math.Float64bits(e.Suspicion)),
			binary.BigEndian.AppendUint64(nil, uint64(e.AtUnixNano))))
		if got := e.bindingDigest(); got != want {
			t.Fatalf("%+v: digest %v, tuple %v", e, got, want)
		}
	}
}

// TestBindingDigestAllocs: checking a gossip bundle digests every entry,
// and the digest writes into pooled scratch, so it allocates nothing.
func TestBindingDigestAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation ceilings are not meaningful under the race detector")
	}
	e := mkEntries(1)[0]
	e.bindingDigest() // warm the pool
	if avg := testing.AllocsPerRun(100, func() { e.bindingDigest() }); avg > 0 {
		t.Errorf("bindingDigest allocs/op = %.1f, want 0", avg)
	}
}

// TestExchangeWireBounds covers the offer/delta framing: byte bound,
// budget clamping, and malformed-label rejection.
func TestExchangeWireBounds(t *testing.T) {
	if _, err := decodeDelta(make([]byte, MaxExchangeWireBytes+1)); !errors.Is(err, ErrExchangeWire) {
		t.Fatalf("oversized delta: err = %v, want ErrExchangeWire", err)
	}
	if _, _, _, _, err := decodeOffer(make([]byte, MaxExchangeWireBytes+1)); !errors.Is(err, ErrExchangeWire) {
		t.Fatalf("oversized offer: err = %v, want ErrExchangeWire", err)
	}

	body, err := encodeOffer("init", 1<<40, []summaryItem{{Host: "h", Suspicion: 2}}, mkEntries(1))
	if err != nil {
		t.Fatal(err)
	}
	initiator, budget, summary, entries, err := decodeOffer(body)
	if err != nil {
		t.Fatal(err)
	}
	if initiator != "init" {
		t.Fatalf("initiator = %q, want %q", initiator, "init")
	}
	if budget != core.MaxExchangeBudget {
		t.Fatalf("budget = %d, want clamped to %d", budget, core.MaxExchangeBudget)
	}
	if summary["h"] != 2 || len(entries) != 1 {
		t.Fatalf("offer round trip: summary %v, %d entries", summary, len(entries))
	}

	// A delta is not an offer and vice versa.
	delta, err := encodeDelta(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := decodeOffer(delta); !errors.Is(err, ErrExchangeWire) {
		t.Fatalf("delta accepted as offer: %v", err)
	}
	if _, err := decodeDelta(body); !errors.Is(err, ErrExchangeWire) {
		t.Fatalf("offer accepted as delta: %v", err)
	}
}
