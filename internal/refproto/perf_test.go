package refproto

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"repro/internal/testutil"
	"testing"

	"repro/internal/agent"
	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/sigcrypto"
	"repro/internal/value"
)

// hopBed is the minimal two-host protocol fixture: an untrusted
// executing host and the next host that checks it.
type hopBed struct {
	mPrev, mNext *Mechanism
	hcPrev       *core.HostContext
	hcNext       *core.HostContext
	ag           *agent.Agent
	rec          *host.SessionRecord
}

func newHopBed(tb testing.TB, vars int) *hopBed {
	tb.Helper()
	reg := sigcrypto.NewRegistry()
	mkHost := func(name string, trusted bool) *host.Host {
		keys, err := sigcrypto.GenerateKeyPair(name)
		if err != nil {
			tb.Fatal(err)
		}
		h, err := host.New(host.Config{Name: name, Keys: keys, Registry: reg, Trusted: trusted})
		if err != nil {
			tb.Fatal(err)
		}
		return h
	}
	prev := mkHost("prev", false)
	next := mkHost("next", false)

	ag, err := agent.New("bench-agent", "owner", `
proc main() {
    x = x + 1
    migrate("next", "main")
}`, "main")
	if err != nil {
		tb.Fatal(err)
	}
	ag.SetVar("x", value.Int(0))
	for i := 0; i < vars; i++ {
		ag.SetVar(fmt.Sprintf("v%02d", i), value.List(
			value.Int(int64(i)), value.Str("0123456789"),
			value.Map(map[string]value.Value{"k": value.Int(int64(i))})))
	}
	rec, err := prev.RunSession(context.Background(), ag, host.SessionOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	return &hopBed{
		mPrev:  New(Config{}),
		mNext:  New(Config{}),
		hcPrev: &core.HostContext{Host: prev},
		hcNext: &core.HostContext{Host: next},
		ag:     ag,
		rec:    rec,
	}
}

// depart signs and packages the session at departure and migrates the
// agent over the wire.
func (bed *hopBed) depart(tb testing.TB) *agent.Agent {
	if err := bed.mPrev.PrepareDeparture(context.Background(), bed.hcPrev, bed.ag, bed.rec); err != nil {
		tb.Fatal(err)
	}
	wire, err := bed.ag.Marshal()
	if err != nil {
		tb.Fatal(err)
	}
	arrived, err := agent.Unmarshal(wire)
	if err != nil {
		tb.Fatal(err)
	}
	return arrived
}

// hop performs one full protocol hop: depart, then verify (including
// re-execution) on arrival.
func (bed *hopBed) hop(tb testing.TB) {
	v, err := bed.mNext.CheckAfterSession(context.Background(), bed.hcNext, bed.depart(tb))
	if err != nil {
		tb.Fatal(err)
	}
	if v == nil || !v.OK {
		tb.Fatalf("hop verdict: %+v", v)
	}
}

// BenchmarkRefprotoHop measures the sign -> handoff -> countersign ->
// verify path of one untrusted session, wire migration included.
func BenchmarkRefprotoHop(b *testing.B) {
	bed := newHopBed(b, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bed.hop(b)
	}
}

// BenchmarkRefprotoRelayedHop is BenchmarkRefprotoHop for a session
// that did not launch the agent, which is every untrusted session: its
// initial state arrives dual-signed, as "resulting" by the host before
// and as "initial" by the executing host, and the checker verifies both.
func BenchmarkRefprotoRelayedHop(b *testing.B) {
	bed := newHopBed(b, 20)
	older, err := sigcrypto.GenerateKeyPair("older")
	if err != nil {
		b.Fatal(err)
	}
	if err := bed.hcPrev.Host.Registry().RegisterKeyPair(older); err != nil {
		b.Fatal(err)
	}
	d := bed.rec.InitialDigest()
	relayed := handoff{Digest: d, Sigs: []sigcrypto.Signature{
		signBinding(older, bed.ag, "resulting", bed.rec.Hop-1, d),
		signBinding(bed.hcPrev.Host.Keys(), bed.ag, "initial", bed.rec.Hop, d),
	}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bed.mPrev.mu.Lock()
		bed.mPrev.pending[bed.ag.ID] = relayed
		bed.mPrev.mu.Unlock()
		bed.hop(b)
	}
}

// TestRefprotoHopAllocs pins the hop's allocation ceiling so the
// streaming pipeline cannot silently regress. The seed's gob-based hop
// measured ~1700 allocs/op; the streaming pipeline runs at ~500. The
// ceiling leaves headroom over the current measurement without letting
// the old profile back in.
func TestRefprotoHopAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation ceilings are not meaningful under the race detector")
	}
	bed := newHopBed(t, 20)
	bed.hop(t) // warm pools
	if avg := testing.AllocsPerRun(20, func() { bed.hop(t) }); avg > 700 {
		t.Errorf("refproto hop allocs/op = %.0f, want <= 700", avg)
	}
}

// BenchmarkPayloadCodec compares the canonical tuple payload codec
// against the gob round-trip it replaced (the seed's wire path), on an
// identical payload.
func BenchmarkPayloadCodec(b *testing.B) {
	p := benchPayload()
	b.Run("canonical", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			enc := appendPayload(nil, p)
			if _, err := parsePayload(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gob", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(p); err != nil {
				b.Fatal(err)
			}
			var out payload
			if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchPayload() *payload {
	sig := func(n string) sigcrypto.Signature {
		return sigcrypto.Signature{Signer: n, Sig: bytes.Repeat([]byte{7}, 64)}
	}
	return &payload{
		Hop:          3,
		PkgEnc:       bytes.Repeat([]byte{42}, 2048),
		PkgSig:       sig("prev"),
		ResultDigest: canon.HashBytes([]byte("resulting")),
		ResultSig:    sig("prev"),
		Handoff: handoff{
			Digest: canon.HashBytes([]byte("initial")),
			Sigs:   []sigcrypto.Signature{sig("older"), sig("prev")},
		},
	}
}

// TestPayloadRoundTrip exercises the canonical codec across every
// payload shape the protocol produces.
func TestPayloadRoundTrip(t *testing.T) {
	cases := map[string]*payload{
		"full": benchPayload(),
		"trusted-skip": {
			Hop:          1,
			TrustedSkip:  true,
			ResultDigest: canon.HashBytes([]byte("r")),
			ResultSig:    sigcrypto.Signature{Signer: "prev", Sig: []byte{1, 2}},
			Handoff: handoff{
				Digest: canon.HashBytes([]byte("i")),
				Origin: true,
				Sigs:   []sigcrypto.Signature{{Signer: "prev", Sig: []byte{3}}},
			},
		},
	}
	for name, p := range cases {
		enc := appendPayload(nil, p)
		got, err := parsePayload(enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Hop != p.Hop || got.TrustedSkip != p.TrustedSkip ||
			got.ResultDigest != p.ResultDigest || got.Handoff.Digest != p.Handoff.Digest ||
			got.Handoff.Origin != p.Handoff.Origin || len(got.Handoff.Sigs) != len(p.Handoff.Sigs) {
			t.Fatalf("%s: round trip mismatch: %+v vs %+v", name, got, p)
		}
		if !bytes.Equal(got.PkgEnc, p.PkgEnc) || got.PkgSig.Signer != p.PkgSig.Signer {
			t.Fatalf("%s: package fields mismatch", name)
		}
		for i := range p.Handoff.Sigs {
			if got.Handoff.Sigs[i].Signer != p.Handoff.Sigs[i].Signer ||
				!bytes.Equal(got.Handoff.Sigs[i].Sig, p.Handoff.Sigs[i].Sig) {
				t.Fatalf("%s: handoff sig %d mismatch", name, i)
			}
		}
	}
	if _, err := parsePayload([]byte("junk")); err == nil {
		t.Error("junk payload accepted")
	}
	if _, err := parsePayload(canon.Tuple([]byte("wrong-label"))); err == nil {
		t.Error("mislabeled payload accepted")
	}
}
