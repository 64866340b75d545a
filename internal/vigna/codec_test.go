package vigna

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/canon"
	"repro/internal/sigcrypto"
)

// sampleChain is a three-session chain with one commitment at the
// field bounds.
func sampleChain(tb testing.TB) []Commitment {
	tb.Helper()
	keys, err := sigcrypto.GenerateKeyPair("h1")
	if err != nil {
		tb.Fatal(err)
	}
	chain := []Commitment{
		{Host: "home", Hop: 0, Entry: "main", ResultEntry: "visit", PkgHash: canon.HashBytes([]byte("p0")), StateHash: canon.HashBytes([]byte("s0"))},
		{Host: "h1", Hop: 1, Entry: "visit", ResultEntry: "visit", PkgHash: canon.HashBytes([]byte("p1")), StateHash: canon.HashBytes([]byte("s1"))},
		{Host: strings.Repeat("h", canon.MaxNameLen), Hop: -1, Entry: strings.Repeat("e", canon.MaxNameLen),
			Sig: sigcrypto.Signature{Signer: strings.Repeat("s", canon.MaxNameLen), Sig: make([]byte, sigcrypto.MaxSigLen)}},
	}
	chain[1].Sig = keys.Sign(chain[1].bindingBytes("tourist"))
	return chain
}

func TestChainAndFetchCodecRoundTrip(t *testing.T) {
	chain := sampleChain(t)
	for n := 1; n <= len(chain); n++ {
		enc, err := encodeChain(chain[:n])
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeChain(enc)
		if err != nil {
			t.Fatalf("%d commitments: %v", n, err)
		}
		if !reflect.DeepEqual(got, chain[:n]) {
			t.Fatalf("%d commitments: got %+v", n, got)
		}
	}
	for _, req := range []FetchRequest{{AgentID: "tourist", Hop: 2}, {AgentID: strings.Repeat("a", canon.MaxNameLen), Hop: -3}} {
		enc, err := encodeFetch(req)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) > maxFetchBytes {
			t.Fatalf("%d-byte fetch over maxFetchBytes %d", len(enc), maxFetchBytes)
		}
		if got, err := decodeFetch(enc); err != nil || got != req {
			t.Fatalf("fetch round trip: %+v, %v", got, err)
		}
	}

	over := Commitment{Host: strings.Repeat("h", canon.MaxNameLen+1)}
	if _, err := encodeChain([]Commitment{over}); !errors.Is(err, canon.ErrMalformed) {
		t.Errorf("over-bound commitment encoded: %v", err)
	}
	if _, err := encodeChain(make([]Commitment, maxChainLen+1)); !errors.Is(err, canon.ErrMalformed) {
		t.Errorf("over-long chain encoded: %v", err)
	}
	if _, err := encodeFetch(FetchRequest{AgentID: strings.Repeat("a", canon.MaxNameLen+1)}); !errors.Is(err, canon.ErrMalformed) {
		t.Errorf("over-bound fetch encoded: %v", err)
	}
	good, _ := encodeChain(chain[:1])
	for name, data := range map[string][]byte{
		"empty":             nil,
		"fetch as chain":    canon.Tuple([]byte(fetchLabel), []byte("a"), make([]byte, 8)),
		"short commitment":  canon.Tuple([]byte(chainLabel), canon.Tuple([]byte("home"))),
		"short hash":        canon.Tuple([]byte(chainLabel), canon.Tuple(nil, make([]byte, 8), nil, nil, make([]byte, 31), make([]byte, 32), nil, nil)),
		"truncated":         good[:len(good)-1],
		"trailing garbage":  append(bytes.Clone(good), 1),
		"over total bounds": append(bytes.Clone(good), make([]byte, maxChainBytes)...),
	} {
		if _, err := decodeChain(data); !errors.Is(err, canon.ErrMalformed) {
			t.Errorf("chain %s: err = %v, want canon.ErrMalformed", name, err)
		}
	}
	if _, err := decodeFetch(canon.Tuple([]byte(fetchLabel), []byte("a"), make([]byte, 7))); !errors.Is(err, canon.ErrMalformed) {
		t.Errorf("fetch with a 7-byte hop: err = %v", err)
	}
}

// FuzzDecodeVignaWire feeds both vigna decoders — the commitment chain
// every host on the route writes, and the fetch body any peer may send
// — the same arbitrary bytes. Neither may panic; what each accepts is
// within its bounds, holds no more than its own length in fields, and
// encodes back to the same bytes.
func FuzzDecodeVignaWire(f *testing.F) {
	chain := sampleChain(f)
	for n := 0; n <= 2; n++ {
		enc, err := encodeChain(chain[:n])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	fetch, err := encodeFetch(FetchRequest{AgentID: "tourist", Hop: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fetch)
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeChain(data)
		if err == nil {
			if len(data) > maxChainBytes || len(got) > maxChainLen || chainBytes(got) > len(data) {
				t.Fatalf("accepted %d bytes holding %d commitments of %d bytes", len(data), len(got), chainBytes(got))
			}
			again, err := encodeChain(got)
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("chain: encode(decode(x)) != x (%v)", err)
			}
		}
		req, err := decodeFetch(data)
		if err == nil {
			if len(req.AgentID) > len(data) {
				t.Fatalf("accepted %d bytes holding a %d-byte agent ID", len(data), len(req.AgentID))
			}
			again, err := encodeFetch(req)
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("fetch: encode(decode(x)) != x (%v)", err)
			}
		}
	})
}

// chainBytes is what a decoded chain holds: each commitment's fixed
// fields and the bytes of its variable ones.
func chainBytes(chain []Commitment) int {
	n := 0
	for _, c := range chain {
		n += 2*8 + 2*len(canon.Digest{}) + len(c.Host) + len(c.Entry) + len(c.ResultEntry) + len(c.Sig.Signer) + len(c.Sig.Sig)
	}
	return n
}
