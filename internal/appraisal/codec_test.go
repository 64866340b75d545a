package appraisal

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/agent"
	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/sigcrypto"
	"repro/internal/value"
)

// sampleRules are signed rule sets: empty, one rule, several, and one
// at the field bounds.
func sampleRules(tb testing.TB) []wireRules {
	tb.Helper()
	owner, err := sigcrypto.GenerateKeyPair("owner")
	if err != nil {
		tb.Fatal(err)
	}
	sets := []wireRules{
		{},
		{Names: []string{"track"}, Sources: []string{"total == hops"}},
		{Names: []string{"a", "b", ""}, Sources: []string{"x >= 0", "y + z == 100", "true"}},
		{Names: []string{strings.Repeat("n", canon.MaxNameLen)}, Sources: []string{strings.Repeat("1", maxRuleSourceLen)}},
	}
	for i := range sets[:3] {
		sets[i].Sig = owner.SignDigest(rulesDigest("agent", sets[i].Names, sets[i].Sources))
	}
	return sets
}

func TestRulesCodecRoundTrip(t *testing.T) {
	for i, w := range sampleRules(t) {
		enc, err := encodeRules(&w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeRules(enc)
		if err != nil {
			t.Fatalf("rule set %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("rule set %d: got %+v, want %+v", i, got, w)
		}
	}
	over := []wireRules{
		{Names: []string{"a"}},
		{Names: make([]string, maxRules+1), Sources: make([]string, maxRules+1)},
		{Names: []string{strings.Repeat("n", canon.MaxNameLen+1)}, Sources: []string{"true"}},
		{Names: []string{"a"}, Sources: []string{strings.Repeat("1", maxRuleSourceLen+1)}},
		{Sig: sigcrypto.Signature{Signer: strings.Repeat("o", canon.MaxNameLen+1)}},
		{Sig: sigcrypto.Signature{Sig: make([]byte, sigcrypto.MaxSigLen+1)}},
	}
	for i, w := range over {
		if _, err := encodeRules(&w); !errors.Is(err, canon.ErrMalformed) {
			t.Errorf("over-bound rule set %d encoded: %v", i, err)
		}
	}
	good, _ := encodeRules(&sampleRules(t)[1])
	for name, data := range map[string][]byte{
		"empty":        nil,
		"wrong label":  canon.Tuple([]byte("appraisal-rules"), nil, nil),
		"odd fields":   canon.Tuple([]byte(rulesWireLabel), nil, nil, []byte("name")),
		"no signature": canon.Tuple([]byte(rulesWireLabel)),
		"truncated":    good[:len(good)-1],
	} {
		if _, err := decodeRules(data); !errors.Is(err, canon.ErrMalformed) {
			t.Errorf("%s: err = %v, want canon.ErrMalformed", name, err)
		}
	}
}

// voucherBed is TestRepeatDamageAttribution's setting: the checker
// receives an agent whose signed rules are violated after a session on
// mallory, with whatever verdict baggage the fuzzer supplies.
type voucherBed struct {
	reg  *sigcrypto.Registry
	keys map[string]*sigcrypto.KeyPair
	hc   *core.HostContext
	base *agent.Agent
}

func newVoucherBed(tb testing.TB) *voucherBed {
	tb.Helper()
	b := &voucherBed{reg: sigcrypto.NewRegistry(), keys: map[string]*sigcrypto.KeyPair{}}
	for _, name := range []string{"mallory", "checker", "witness", "owner"} {
		kp, err := sigcrypto.GenerateKeyPair(name)
		if err != nil {
			tb.Fatal(err)
		}
		if err := b.reg.RegisterKeyPair(kp); err != nil {
			tb.Fatal(err)
		}
		b.keys[name] = kp
	}
	h, err := host.New(host.Config{Name: "checker", Keys: b.keys["checker"], Registry: b.reg})
	if err != nil {
		tb.Fatal(err)
	}
	b.hc = &core.HostContext{Host: h}
	ag, err := agent.New("vic", "owner", `proc main() { done() }`, "main")
	if err != nil {
		tb.Fatal(err)
	}
	ag.SetVar("total", value.Int(5))
	ag.SetVar("hops", value.Int(1))
	if err := Attach(ag, RuleSet{MustRule("track", "total == hops")}, b.keys["owner"]); err != nil {
		tb.Fatal(err)
	}
	ag.Route = []string{"witness", "mallory"}
	ag.Hop = 2
	b.base = ag
	return b
}

// voucherSeeds are verdict lists around the voucher rules: a genuine
// third-party voucher, a self-vouched one, a forged one.
func (b *voucherBed) voucherSeeds(tb testing.TB) [][]byte {
	prior := func(checker string, signer *sigcrypto.KeyPair) core.Verdict {
		v := core.Verdict{
			AgentID: "vic", Mechanism: MechanismName, Moment: core.AfterSession,
			CheckedHost: "elsewhere", CheckedHop: 0, Checker: checker, Suspect: "elsewhere", Reason: "earlier damage",
		}
		v.Sign(signer)
		return v
	}
	var seeds [][]byte
	for _, vs := range [][]core.Verdict{
		{prior("witness", b.keys["witness"])},
		{prior("mallory", b.keys["mallory"])},
		{prior("witness", b.keys["mallory"])},
		{prior("mallory", b.keys["mallory"]), prior("witness", b.keys["witness"])},
	} {
		enc, err := core.EncodeVerdicts(vs)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, enc)
	}
	return seeds
}

// vouched reports whether vs holds a voucher appraisal may honour for
// a violation found in session checkedHop, blamed on suspect: an
// earlier failed appraisal verdict for this agent, checked by someone
// else, carrying that checker's valid signature.
func (b *voucherBed) vouched(vs []core.Verdict, checkedHop int, suspect string) bool {
	for _, v := range vs {
		if v.Mechanism == MechanismName && !v.OK && v.CheckedHop < checkedHop &&
			v.AgentID == b.base.ID && v.Checker != suspect && v.VerifySig(b.reg) == nil {
			return true
		}
	}
	return false
}

// FuzzAppraisalBaggage puts arbitrary bytes where a route's hosts can:
// as rule baggage, whose decoder must not panic, must stay within its
// bounds, must hold no more rules or bytes than the input could carry,
// and must encode what it accepts back to the same bytes; and as the agent's verdict list,
// from which appraisal's voucher check may lift the blame off the
// previous host only on a verdict validly signed by another checker.
func FuzzAppraisalBaggage(f *testing.F) {
	bed := newVoucherBed(f)
	for _, w := range sampleRules(f)[:3] {
		enc, err := encodeRules(&w)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	for _, seed := range bed.voucherSeeds(f) {
		f.Add(seed)
	}
	f.Add([]byte("garbage"))
	mech := New()
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := decodeRules(data)
		if err == nil {
			text := len(w.Sig.Signer) + len(w.Sig.Sig)
			for i := range w.Names {
				text += len(w.Names[i]) + len(w.Sources[i])
			}
			if len(data) > maxRulesWireBytes || len(w.Names) > maxRules || len(w.Names) != len(w.Sources) ||
				8*len(w.Names) > len(data) || text > len(data) {
				t.Fatalf("accepted %d bytes holding %d rules of %d bytes", len(data), len(w.Names), text)
			}
			again, err := encodeRules(&w)
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("encode(decode(x)) != x (%v)", err)
			}
		}

		ag := bed.base.Clone()
		ag.SetBaggage("core/verdicts", data)
		v, err := mech.CheckAfterSession(context.Background(), bed.hc, ag)
		if err != nil {
			t.Fatal(err)
		}
		if v == nil || v.OK {
			t.Fatalf("violation not detected: %+v", v)
		}
		if v.Suspect != "mallory" && !bed.vouched(core.AgentVerdicts(ag), v.CheckedHop, "mallory") {
			t.Fatalf("blame lifted off mallory without a valid voucher (suspect %q, reason %q)", v.Suspect, v.Reason)
		}
	})
}
