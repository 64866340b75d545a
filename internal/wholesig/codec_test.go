package wholesig

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/canon"
	"repro/internal/sigcrypto"
)

// samplePayloads are a signed payload and the edge shapes: no
// signature bytes, names and signatures at their bounds.
func samplePayloads(tb testing.TB) []payload {
	tb.Helper()
	keys, err := sigcrypto.GenerateKeyPair("h1")
	if err != nil {
		tb.Fatal(err)
	}
	d := canon.HashBytes([]byte("whole agent"))
	return []payload{
		{Digest: d, Sig: keys.SignDigest(d)},
		{Digest: d, Sig: sigcrypto.Signature{Signer: "h1"}},
		{Sig: sigcrypto.Signature{Signer: strings.Repeat("h", canon.MaxNameLen), Sig: bytes.Repeat([]byte{7}, sigcrypto.MaxSigLen)}},
	}
}

func TestPayloadCodecRoundTrip(t *testing.T) {
	for i, p := range samplePayloads(t) {
		enc, err := encodePayload(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) > maxPayloadBytes {
			t.Fatalf("payload %d: %d bytes over maxPayloadBytes %d", i, len(enc), maxPayloadBytes)
		}
		got, err := decodePayload(enc)
		if err != nil {
			t.Fatalf("payload %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("payload %d: got %+v, want %+v", i, got, p)
		}
	}
	over := []payload{
		{Sig: sigcrypto.Signature{Signer: strings.Repeat("h", canon.MaxNameLen+1)}},
		{Sig: sigcrypto.Signature{Sig: make([]byte, sigcrypto.MaxSigLen+1)}},
	}
	for _, p := range over {
		if _, err := encodePayload(p); !errors.Is(err, canon.ErrMalformed) {
			t.Errorf("over-bound payload encoded: %v", err)
		}
	}
	good, _ := encodePayload(samplePayloads(t)[0])
	for name, data := range map[string][]byte{
		"empty":         nil,
		"wrong label":   canon.Tuple([]byte("wholesig-payloaf"), good[:32], nil, nil),
		"short digest":  canon.Tuple([]byte(payloadLabel), good[:31], nil, nil),
		"missing field": canon.Tuple([]byte(payloadLabel), make([]byte, 32), nil),
		"extra field":   canon.Tuple([]byte(payloadLabel), make([]byte, 32), nil, nil, nil),
		"truncated":     good[:len(good)-1],
	} {
		if _, err := decodePayload(data); !errors.Is(err, canon.ErrMalformed) {
			t.Errorf("%s: err = %v, want canon.ErrMalformed", name, err)
		}
	}
}

// FuzzDecodePayload feeds the whole-agent signature decoder what the
// previous host — or anything between it and this one — could send. It
// must not panic; what it accepts is within its bound, holds no more
// than its own length in fields, and encodes back to the same bytes.
func FuzzDecodePayload(f *testing.F) {
	for _, p := range samplePayloads(f) {
		enc, err := encodePayload(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := decodePayload(data)
		if err != nil {
			return
		}
		if len(data) > maxPayloadBytes || len(p.Sig.Signer)+len(p.Sig.Sig) > len(data) {
			t.Fatalf("accepted %d bytes holding a %d-byte signer and %d signature bytes", len(data), len(p.Sig.Signer), len(p.Sig.Sig))
		}
		again, err := encodePayload(p)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("encode(decode(x)) != x (%v)", err)
		}
	})
}
