package refproto

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/agent"
	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/sigcrypto"
	"repro/internal/testutil"
	"repro/internal/value"
)

// hopBed is the minimal two-host protocol fixture: an untrusted
// executing host and the next host that checks it.
type hopBed struct {
	mPrev, mNext pair
	hcPrev       *core.HostContext
	hcNext       *core.HostContext
	ag           *agent.Agent
	rec          *host.SessionRecord
	older        *sigcrypto.KeyPair // registered; signs the session before the bed's
}

// bedConfig shapes the session the bed runs.
type bedConfig struct {
	vars    int   // list-valued variables beside x
	inputs  int   // ten-byte elements the session reads and appends to got
	got     int   // got's length before the session
	hop     int   // the session's index
	x       int64 // x's value before the session
	trusted bool  // the executing host is trusted
}

// sessionSizes are the sessions of the benchmark's light and
// bulk-tcp-durable workloads at a route worker: one input and a short
// list, and 100 ten-byte inputs appended to a 200-element list.
var sessionSizes = []struct {
	name string
	cfg  bedConfig
}{
	{"light", bedConfig{inputs: 1, got: 3}},
	{"bulk", bedConfig{inputs: 100, got: 200}},
}

func newHopBed(tb testing.TB, cfg bedConfig) *hopBed {
	tb.Helper()
	reg := sigcrypto.NewRegistry()
	mkKeys := func(name string) *sigcrypto.KeyPair {
		keys, err := sigcrypto.GenerateKeyPair(name)
		if err != nil {
			tb.Fatal(err)
		}
		if err := reg.RegisterKeyPair(keys); err != nil {
			tb.Fatal(err)
		}
		return keys
	}
	mkHost := func(name string, trusted bool) *host.Host {
		h, err := host.New(host.Config{Name: name, Keys: mkKeys(name), Registry: reg, Trusted: trusted,
			Feed: func(string, string) (value.Value, error) { return value.Str("0123456789"), nil }})
		if err != nil {
			tb.Fatal(err)
		}
		return h
	}
	prev := mkHost("prev", cfg.trusted)
	next := mkHost("next", false)

	code := `
proc main() {
    x = x + 1
    migrate("next", "main")
}`
	if cfg.inputs > 0 {
		code = fmt.Sprintf(`
proc main() {
    x = x + 1
    let i = 0
    while i < %d {
        got = append(got, read("elem"))
        i = i + 1
    }
    migrate("next", "main")
}`, cfg.inputs)
	}
	ag, err := agent.New("bench-agent", "owner", code, "main")
	if err != nil {
		tb.Fatal(err)
	}
	ag.Hop = cfg.hop
	// The hosts of the sessions before the bed's, the last on "older".
	for i := 1; i < cfg.hop; i++ {
		ag.Route = append(ag.Route, fmt.Sprintf("h%d", i))
	}
	if cfg.hop > 0 {
		ag.Route = append(ag.Route, "older")
	}
	ag.SetVar("x", value.Int(cfg.x))
	if cfg.inputs > 0 || cfg.got > 0 {
		got := make([]value.Value, cfg.got)
		for i := range got {
			got[i] = value.Str("0123456789")
		}
		ag.SetVar("got", value.List(got...))
	}
	for i := 0; i < cfg.vars; i++ {
		ag.SetVar(fmt.Sprintf("v%02d", i), value.List(
			value.Int(int64(i)), value.Str("0123456789"),
			value.Map(map[string]value.Value{"k": value.Int(int64(i))})))
	}
	rec, err := prev.RunSession(context.Background(), ag, host.SessionOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	return &hopBed{
		mPrev:  newTestPair(Config{}),
		mNext:  newTestPair(Config{}),
		hcPrev: &core.HostContext{Host: prev},
		hcNext: &core.HostContext{Host: next},
		ag:     ag,
		rec:    rec,
		older:  mkKeys("older"),
	}
}

// producer is the signed session before the bed's, run on "older": the
// commitment the executing host keeps at arrival when its session did
// not launch the agent.
func (bed *hopBed) producer(tb testing.TB) session {
	tb.Helper()
	if bed.rec.Hop == 0 {
		tb.Fatal("session 0 has no producer")
	}
	s := session{
		Initial:  canon.HashBytes([]byte("older's initial state")),
		Result:   bed.rec.InitialDigest(),
		Package:  canon.HashBytes([]byte("older's package")),
		Envelope: canon.HashBytes([]byte("older's envelope")),
	}
	bed.mPrev.sign(bed.older, bed.ag, bed.rec.Hop-1, bed.ag.Route[:len(bed.ag.Route)-1], &s)
	return s
}

// pair is one node's protocol, its two halves run in the order New
// stacks them.
type pair struct {
	*shared
	seal  *Seal
	check *Mechanism
}

func newTestPair(cfg Config) pair {
	seal, check := newPair(cfg)
	return pair{shared: seal.shared, seal: seal, check: check}
}

// PrepareDeparture packages the session, then seals it.
func (p pair) PrepareDeparture(ctx context.Context, hc *core.HostContext, ag *agent.Agent, rec *host.SessionRecord) error {
	if err := p.check.PrepareDeparture(ctx, hc, ag, rec); err != nil {
		return err
	}
	return p.seal.PrepareDeparture(ctx, hc, ag, rec)
}

// CheckAfterSession runs the seal's check, then the checker's, and
// returns the first verdict.
func (p pair) CheckAfterSession(ctx context.Context, hc *core.HostContext, ag *agent.Agent) (*core.Verdict, error) {
	if v, err := p.seal.CheckAfterSession(ctx, hc, ag); v != nil || err != nil {
		return v, err
	}
	return p.check.CheckAfterSession(ctx, hc, ag)
}

// depart signs and packages the session at departure and migrates the
// agent over the wire.
func (bed *hopBed) depart(tb testing.TB) *agent.Agent {
	if err := bed.mPrev.PrepareDeparture(context.Background(), bed.hcPrev, bed.ag, bed.rec); err != nil {
		tb.Fatal(err)
	}
	return bed.migrate(tb)
}

// migrate sends the agent over the wire.
func (bed *hopBed) migrate(tb testing.TB) *agent.Agent {
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
	bed.check(tb, bed.depart(tb))
}

// check runs the next host's arrival check on arrived, which must pass.
func (bed *hopBed) check(tb testing.TB, arrived *agent.Agent) {
	v, err := bed.mNext.CheckAfterSession(context.Background(), bed.hcNext, arrived)
	if err != nil {
		tb.Fatal(err)
	}
	if v == nil || !v.OK {
		tb.Fatalf("hop verdict: %+v", v)
	}
}

// gated sets the next host's re-execution gate to answer reexec.
func (bed *hopBed) gated(reexec bool) {
	bed.mNext = newTestPair(Config{ReExecGate: func(string) bool { return reexec }})
}

// BenchmarkRefprotoArrival measures the next host's arrival check, the
// seal's and the checker's, of the bed's untrusted session, at each
// session size: skipped where the reputation gate declines the
// re-execution (LevelAdaptive's usual case), reexec where it runs it.
func BenchmarkRefprotoArrival(b *testing.B) {
	for _, gate := range []struct {
		name   string
		reexec bool
	}{{"skipped", false}, {"reexec", true}} {
		for _, size := range sessionSizes {
			b.Run(gate.name+"/"+size.name, func(b *testing.B) {
				bed := newHopBed(b, size.cfg)
				bed.gated(gate.reexec)
				arrived := bed.depart(b)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bed.check(b, arrived)
				}
			})
		}
	}
}

// BenchmarkRefprotoDeparture measures the executing host's departure,
// the checker packaging the session and the seal signing it, at each
// session size.
func BenchmarkRefprotoDeparture(b *testing.B) {
	for _, size := range sessionSizes {
		b.Run(size.name, func(b *testing.B) {
			bed := newHopBed(b, size.cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bed.mPrev.PrepareDeparture(context.Background(), bed.hcPrev, bed.ag, bed.rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRefprotoHop measures the sign -> verify path of the agent's
// first, untrusted session, wire migration included: one session
// signature at departure, one verify on arrival.
func BenchmarkRefprotoHop(b *testing.B) {
	bed := newHopBed(b, bedConfig{vars: 20})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bed.hop(b)
	}
}

// BenchmarkRefprotoRelayedHop is BenchmarkRefprotoHop for a session
// that did not launch the agent, which is every untrusted session but
// the first: the checker verifies the executing host's session
// signature and its producer's.
func BenchmarkRefprotoRelayedHop(b *testing.B) {
	bed := newHopBed(b, bedConfig{vars: 20, hop: 1})
	producer := bed.producer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bed.mPrev.keep(bed.ag, producer)
		bed.hop(b)
	}
}

// TestRefprotoHopAllocs pins the hop's allocation ceiling so the
// streaming pipeline cannot silently regress. The seed's gob-based hop
// measured ~1700 allocs/op; the streaming pipeline ran at ~500, one
// signature per session brought it to ~485, and reading the package
// from its bytes at both ends to ~458, nearly all of it the agent's
// own wire round trip. The ceiling leaves headroom over the current
// measurement without letting the old profile back in.
func TestRefprotoHopAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation ceilings are not meaningful under the race detector")
	}
	bed := newHopBed(t, bedConfig{vars: 20})
	bed.hop(t) // warm pools
	if avg := testing.AllocsPerRun(20, func() { bed.hop(t) }); avg > 500 {
		t.Errorf("refproto hop allocs/op = %.0f, want <= 500", avg)
	}
}

// TestGateSkippedCheckAllocs: where the reputation gate skips the
// re-execution, the checker reads the reference package from its bytes
// and decodes none of it, so an arrival check allocates the same few
// objects whatever the size of the session's states. Decoding the
// package anyway costs an allocation per value.
func TestGateSkippedCheckAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation ceilings are not meaningful under the race detector")
	}
	allocs := func(vars int) float64 {
		bed := newHopBed(t, bedConfig{vars: vars})
		bed.gated(false)
		arrived := bed.depart(t)
		bed.check(t, arrived) // warm pools
		return testing.AllocsPerRun(20, func() { bed.check(t, arrived) })
	}
	small, large := allocs(20), allocs(200)
	if small != large || large > 8 {
		t.Errorf("gate-skipped arrival check allocs/op = %.0f at 20 vars, %.0f at 200; want the same, at most 8", small, large)
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
		Hop:    3,
		PkgEnc: bytes.Repeat([]byte{42}, 2048),
		Session: session{
			Initial: canon.HashBytes([]byte("initial")),
			Result:  canon.HashBytes([]byte("resulting")),
			Package: canon.HashBytes([]byte("package")),
			Sig:     sig("prev"),
		},
		Producer: session{
			Initial:  canon.HashBytes([]byte("older's initial")),
			Package:  canon.HashBytes([]byte("older's package")),
			Envelope: canon.HashBytes([]byte("older's envelope")),
			Sig:      sig("older"),
		},
	}
}

// payloadShapes holds one payload of every shape the protocol
// produces: a relayed untrusted session, the agent's first session, a
// trusted one, and a seal's without a checker (the origin form at any
// hop, with no package).
func payloadShapes() map[string]*payload {
	origin := benchPayload()
	origin.Hop, origin.Origin, origin.Producer = 0, true, session{}
	trusted := benchPayload()
	trusted.PkgEnc, trusted.Session.Package = nil, canon.Digest{}
	sealed := benchPayload()
	sealed.PkgEnc, sealed.Session.Package, sealed.Origin, sealed.Producer = nil, canon.Digest{}, true, session{}
	return map[string]*payload{"relayed": benchPayload(), "origin": origin, "trusted": trusted, "sealed": sealed}
}

// TestPayloadRoundTrip exercises the canonical codec across every
// payload shape the protocol produces: each decodes to the payload it
// encodes, and encodes back to the same bytes.
func TestPayloadRoundTrip(t *testing.T) {
	for name, p := range payloadShapes() {
		enc := appendPayload(nil, p)
		got, err := parsePayload(enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(&got, p) {
			t.Fatalf("%s: round trip mismatch: %+v vs %+v", name, got, p)
		}
		if again := appendPayload(nil, &got); !bytes.Equal(again, enc) {
			t.Fatalf("%s: encode(decode(x)) != x:\n%x\n%x", name, again, enc)
		}
	}
	if _, err := parsePayload([]byte("junk")); err == nil {
		t.Error("junk payload accepted")
	}
	if _, err := parsePayload(canon.Tuple([]byte("wrong-label"))); err == nil {
		t.Error("mislabeled payload accepted")
	}
}
