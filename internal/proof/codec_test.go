package proof

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/canon"
	"repro/internal/sigcrypto"
	"repro/internal/trace"
	"repro/internal/value"
)

func sampleChain(tb testing.TB) []Commitment {
	tb.Helper()
	keys, err := sigcrypto.GenerateKeyPair("h1")
	if err != nil {
		tb.Fatal(err)
	}
	chain := []Commitment{
		{Host: "home", Hop: 0, Entry: "main", Root: canon.HashBytes([]byte("r0")), N: 150, StateHash: canon.HashBytes([]byte("s0"))},
		{Host: "h1", Hop: 1, Entry: "visit", Root: canon.HashBytes([]byte("r1")), N: 3, StateHash: canon.HashBytes([]byte("s1"))},
		{Host: strings.Repeat("h", canon.MaxNameLen), Hop: -1, N: -2, Sig: sigcrypto.Signature{Signer: "x", Sig: make([]byte, sigcrypto.MaxSigLen)}},
	}
	chain[1].Sig = keys.Sign(chain[1].bindingBytes("tourist"))
	return chain
}

// sampleOpenings opens three leaves of a five-entry trace.
func sampleOpenings(tb testing.TB) []Opening {
	tb.Helper()
	entries := make([]trace.Entry, 5)
	leaves := make([]canon.Digest, len(entries))
	for i := range entries {
		entries[i] = trace.Entry{StmtID: i + 1, Bindings: []trace.Binding{{Name: "total", Val: value.Int(int64(10 * i))}}}
		leaves[i] = trace.EntryDigest(entries[i])
	}
	tree, err := BuildTree(leaves)
	if err != nil {
		tb.Fatal(err)
	}
	var openings []Opening
	for _, i := range []int{4, 0, 4} {
		path, err := tree.Open(i)
		if err != nil {
			tb.Fatal(err)
		}
		openings = append(openings, Opening{Index: i, Entry: entries[i], Path: path})
	}
	return openings
}

func TestProofCodecsRoundTrip(t *testing.T) {
	chain := sampleChain(t)
	chainEnc, err := encodeChain(chain)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := decodeChain(chainEnc); err != nil || !reflect.DeepEqual(got, chain) {
		t.Fatalf("chain round trip: %+v, %v", got, err)
	}
	for _, req := range []OpenRequest{{AgentID: "tourist", Hop: 1}, {AgentID: "tourist", Hop: 2, Indices: []int{0, 7, 7, -1}}} {
		enc, err := encodeOpen(req)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := decodeOpen(enc); err != nil || !reflect.DeepEqual(got, req) {
			t.Fatalf("open round trip: %+v, %v", got, err)
		}
	}
	openings := sampleOpenings(t)
	enc, err := encodeOpenings(openings)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeOpenings(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(openings) {
		t.Fatalf("%d openings decoded, want %d", len(got), len(openings))
	}
	for i := range got {
		if got[i].Index != openings[i].Index || !reflect.DeepEqual(got[i].Path, openings[i].Path) ||
			trace.EntryDigest(got[i].Entry) != trace.EntryDigest(openings[i].Entry) {
			t.Fatalf("opening %d: got %+v, want %+v", i, got[i], openings[i])
		}
	}

	if _, err := encodeChain([]Commitment{{Entry: strings.Repeat("e", canon.MaxNameLen+1)}}); !errors.Is(err, canon.ErrMalformed) {
		t.Errorf("over-bound commitment encoded: %v", err)
	}
	if _, err := encodeOpen(OpenRequest{Indices: make([]int, maxOpenings+1)}); !errors.Is(err, canon.ErrMalformed) {
		t.Errorf("over-long open request encoded: %v", err)
	}
	if _, err := encodeOpenings([]Opening{{Path: make([]PathElem, maxPathLen+1)}}); !errors.Is(err, canon.ErrMalformed) {
		t.Errorf("over-long opening path encoded: %v", err)
	}
	noEntry, err := (trace.Trace{}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	oneEntry, err := trace.AppendEntry(nil, openings[0].Entry)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"open with ragged indices": canon.Tuple([]byte(openLabel), []byte("a"), make([]byte, 8), make([]byte, 7)),
		"opening with ragged path": canon.Tuple([]byte(openingsLabel), canon.Tuple(make([]byte, 8), oneEntry, make([]byte, 33))),
		"opening of no entry":      canon.Tuple([]byte(openingsLabel), canon.Tuple(make([]byte, 8), noEntry, nil)),
		"a commitment chain":       chainEnc,
	} {
		_, errOpen := decodeOpen(data)
		_, errOpenings := decodeOpenings(data)
		if !errors.Is(errOpen, canon.ErrMalformed) || !errors.Is(errOpenings, canon.ErrMalformed) {
			t.Errorf("%s: open err = %v, openings err = %v, want canon.ErrMalformed", name, errOpen, errOpenings)
		}
	}
}

// FuzzDecodeProofWire feeds every proof decoder — the commitment chain
// the route's hosts write, the open request any peer may send, and the
// openings a prover replies with — the same arbitrary bytes. None may
// panic; what each accepts is within its bounds and holds no more than
// its own length in fields, and encodes back to the same bytes.
func FuzzDecodeProofWire(f *testing.F) {
	chain := sampleChain(f)
	for _, c := range [][]Commitment{nil, chain[:1], chain[:2]} {
		enc, err := encodeChain(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	open, err := encodeOpen(OpenRequest{AgentID: "tourist", Hop: 1, Indices: []int{3, 1}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(open)
	openings, err := encodeOpenings(sampleOpenings(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(openings)
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, errChain := decodeChain(data)
		if errChain == nil {
			if chainBytes(got) > len(data) {
				t.Fatalf("accepted %d bytes of chain holding %d bytes", len(data), chainBytes(got))
			}
			again, err := encodeChain(got)
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("chain: encode(decode(x)) != x (%v)", err)
			}
		}
		req, errOpen := decodeOpen(data)
		if errOpen == nil {
			if len(req.AgentID)+8*len(req.Indices) > len(data) {
				t.Fatalf("accepted %d bytes of open request holding %d indices", len(data), len(req.Indices))
			}
			again, err := encodeOpen(req)
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("open: encode(decode(x)) != x (%v)", err)
			}
		}
		os, errOpenings := decodeOpenings(data)
		if errOpenings == nil && openingsBytes(os) > len(data) {
			t.Fatalf("accepted %d bytes of openings holding %d bytes", len(data), openingsBytes(os))
		}
		if errOpenings == nil {
			again, err := encodeOpenings(os)
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("openings: encode(decode(x)) != x (%v)", err)
			}
		}
	})
}

// chainBytes is what a decoded chain holds: each commitment's fixed
// fields and the bytes of its variable ones.
func chainBytes(chain []Commitment) int {
	n := 0
	for _, c := range chain {
		n += 2*8 + 2*len(canon.Digest{}) + len(c.Host) + len(c.Entry) + len(c.Sig.Signer) + len(c.Sig.Sig)
	}
	return n
}

// openingsBytes is what a decoded reply holds: each opening's index and
// path, and one byte per opened binding (each costs more on the wire).
func openingsBytes(openings []Opening) int {
	n := 0
	for _, o := range openings {
		n += 8 + len(o.Path)*len(canon.Digest{}) + len(o.Entry.Bindings)
	}
	return n
}
