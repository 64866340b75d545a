package replication

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/sigcrypto"
)

// TestVoteWireRoundTrip pins the tuple codec's fidelity.
func TestVoteWireRoundTrip(t *testing.T) {
	in := &Vote{
		Replica:     "s0r1",
		Hop:         3,
		StateEnc:    []byte{1, 2, 3, 4},
		ResultEntry: "second",
		Sig:         sigcrypto.Signature{Signer: "s0r1", Sig: make([]byte, 64)},
	}
	enc, err := encodeVote(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodeVote(enc)
	if err != nil {
		t.Fatal(err)
	}
	if out.Replica != in.Replica || out.Hop != in.Hop || out.ResultEntry != in.ResultEntry ||
		out.Sig.Signer != in.Sig.Signer || out.Digest() != in.Digest() {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
}

// TestVoteWireBounds is the regression test for the unbounded
// vote-decode bug: oversized and malformed votes are rejected by the
// bounded decoder instead of being speculatively decoded.
func TestVoteWireBounds(t *testing.T) {
	if _, err := decodeVote(make([]byte, MaxVoteWireBytes+1)); !errors.Is(err, ErrVoteWire) {
		t.Fatalf("oversized vote: err = %v, want ErrVoteWire", err)
	}
	if _, err := decodeVote([]byte("not a tuple")); !errors.Is(err, ErrVoteWire) {
		t.Fatalf("junk vote: err = %v, want ErrVoteWire", err)
	}
	// A state encoding that would push the message over the bound is
	// refused at encode time — a replica cannot emit what peers must
	// reject.
	big := &Vote{Replica: "r", StateEnc: make([]byte, MaxVoteWireBytes)}
	if _, err := encodeVote(big); !errors.Is(err, ErrVoteWire) {
		t.Fatalf("oversized encode: err = %v, want ErrVoteWire", err)
	}
	over := &Vote{Replica: string(make([]byte, maxVoteNameLen+1))}
	if _, err := encodeVote(over); !errors.Is(err, ErrVoteWire) {
		t.Fatalf("overlong replica name encoded: err = %v", err)
	}
}

// FuzzDecodeVote feeds the vote decoder the bytes a replica could send.
// It must not panic, and an accepted vote encodes back to exactly its
// input.
func FuzzDecodeVote(f *testing.F) {
	for _, v := range []*Vote{
		{Replica: "s0r1", Hop: 3, StateEnc: []byte{1, 2, 3, 4}, ResultEntry: "second",
			Sig: sigcrypto.Signature{Signer: "s0r1", Sig: make([]byte, 64)}},
		{Replica: "r"},
	} {
		enc, err := encodeVote(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte("not a tuple"))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := decodeVote(data)
		if err != nil {
			return
		}
		enc, err := encodeVote(v)
		if err != nil {
			t.Fatalf("accepted vote does not encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatal("encodeVote(decodeVote(x)) != x for an accepted input")
		}
	})
}
