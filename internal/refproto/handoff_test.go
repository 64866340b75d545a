package refproto

import (
	"context"
	"strings"
	"testing"

	"repro/internal/agent"
	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/sigcrypto"
)

// signAs signs s's commitment under any role and hop: the honest
// binding is role "session" at the session's own hop.
func signAs(kp *sigcrypto.KeyPair, ag *agent.Agent, role string, hop int, s session) sigcrypto.Signature {
	d := canon.HashTuple([]byte(sessionLabel), s.Initial[:], s.Result[:], s.Package[:])
	return kp.Sign(ag.AppendSessionBinding(nil, role, hop, d))
}

// TestVerifyHandoffAcceptsWhatEitherOrderAccepts pins which handoffs the
// checker accepts. A session passes when the host it ran on signed it
// as role "session" at its own hop, and, unless it is the agent's first
// session, when a registered producer signed the session before it, at
// the hop before, with the checked session's initial state as its
// result. Only session 0 may come without a producer, and a payload
// cannot claim trust: the old layout's flag field is refused as
// malformed. The "countersignature" rows concern the checked host's
// session signature. Each payload crosses the wire codec before the
// check.
func TestVerifyHandoffAcceptsWhatEitherOrderAccepts(t *testing.T) {
	reg := sigcrypto.NewRegistry()
	keys := map[string]*sigcrypto.KeyPair{}
	for _, name := range []string{"producer", "checked", "other"} {
		kp, err := sigcrypto.GenerateKeyPair(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.RegisterKeyPair(kp); err != nil {
			t.Fatal(err)
		}
		keys[name] = kp
	}
	stranger, err := sigcrypto.GenerateKeyPair("stranger") // never registered
	if err != nil {
		t.Fatal(err)
	}
	ag, err := agent.New("handoff-agent", "owner", `proc main() { done() }`, "main")
	if err != nil {
		t.Fatal(err)
	}
	digest := func(s string) canon.Digest { return canon.HashBytes([]byte(s)) }
	const hop = 3
	initial := digest("initial state of session 3")
	checked := session{Initial: initial, Result: digest("resulting state"), Package: digest("package")}
	producer := session{Initial: digest("initial state of session 2"), Result: initial, Package: digest("package 2")}
	forged := signAs(keys["other"], ag, "session", hop, checked)
	forged.Signer = "checked"

	// relayed is the honest payload of session 3; origin that of
	// session 0, which the launching host ran.
	relayed := func(producerSig, checkedSig sigcrypto.Signature) payload {
		p := payload{Hop: hop, Session: checked, Producer: producer}
		p.Session.Sig, p.Producer.Sig = checkedSig, producerSig
		p.Producer.Result = canon.Digest{} // implied by Session.Initial; never on the wire
		return p
	}
	origin := func(at int, sig sigcrypto.Signature) payload {
		p := payload{Hop: at, Session: checked, Origin: true}
		p.Session.Sig = sig
		return p
	}
	produced := signAs(keys["producer"], ag, "session", hop-1, producer)
	sessionSig := signAs(keys["checked"], ag, "session", hop, checked)
	launched := signAs(keys["checked"], ag, "session", 0, checked)
	otherResult := producer
	otherResult.Result = digest("x")
	// flagged encodes p in the layout that carried a trust flag as its
	// field 2.
	flagged := func(p payload) []byte {
		s, pr := p.Session, p.Producer
		return canon.Tuple([]byte(payloadLabel), canon.Uint64Field(uint64(p.Hop)), []byte{1}, p.PkgEnc,
			s.Initial[:], s.Result[:], s.Package[:], []byte(s.Sig.Signer), s.Sig.Sig,
			pr.Initial[:], pr.Package[:], []byte(pr.Sig.Signer), pr.Sig.Sig)
	}
	cases := []struct {
		name   string
		p      payload
		enc    []byte // sent instead of p's encoding when set
		accept bool
		reason string // substring of the rejection, where the row pins one
	}{
		{name: "producer then receiver", p: relayed(produced, sessionSig), accept: true},
		{name: "producer is the checked host", p: relayed(signAs(keys["checked"], ag, "session", hop-1, producer), sessionSig), accept: true},
		{name: "countersignature missing", p: relayed(produced, sigcrypto.Signature{}), reason: "session signature invalid"},
		{name: "countersigned by a third host", p: relayed(produced, signAs(keys["other"], ag, "session", hop, checked)), reason: `session signed by "other"`},
		{name: "countersignature forged", p: relayed(produced, forged), reason: "session signature invalid"},
		{name: "countersignature at the wrong hop", p: relayed(produced, signAs(keys["checked"], ag, "session", hop+1, checked)), reason: "session signature invalid"},
		{name: "producer at the wrong hop", p: relayed(signAs(keys["producer"], ag, "session", hop, producer), sessionSig), reason: `producer signature by "producer"`},
		{name: "producer signed under another role", p: relayed(signAs(keys["producer"], ag, "resulting", hop-1, producer), sessionSig), reason: `producer signature by "producer"`},
		{name: "unregistered producer", p: relayed(signAs(stranger, ag, "session", hop-1, producer), sessionSig), reason: `producer signature by "stranger"`},
		{name: "over another digest", p: relayed(signAs(keys["producer"], ag, "session", hop-1, otherResult), sessionSig), reason: `producer signature by "producer"`},
		{name: "origin", p: origin(0, launched), accept: true},
		{name: "origin at session 3", p: origin(hop, sessionSig), reason: "origin handoff for session 3"},
		{name: "origin signed as resulting", p: origin(0, signAs(keys["checked"], ag, "resulting", 0, checked)), reason: "session signature invalid"},
		{name: "origin signed by another host", p: origin(0, signAs(keys["producer"], ag, "session", 0, checked)), reason: `session signed by "producer"`},
		{name: "origin with two signatures", p: func() payload {
			p := relayed(signAs(keys["producer"], ag, "session", -1, producer), launched)
			p.Hop = 0
			return p
		}(), reason: "producer handoff for session 0"},
		{name: "trust claimed over a packaged session", enc: flagged(relayed(produced, sessionSig)), reason: "malformed encoding"},
		{name: "origin forged", p: origin(0, func() sigcrypto.Signature {
			s := signAs(keys["other"], ag, "session", 0, checked)
			s.Signer = "checked"
			return s
		}()), reason: "session signature invalid"},
	}
	m := New(Config{})
	check := func(enc []byte) error {
		p, err := parsePayload(enc)
		if err != nil {
			return err
		}
		if err := m.verifySession(reg, ag, "checked", &p); err != nil {
			return err
		}
		return m.verifyHandoff(reg, ag, &p)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			enc := c.enc
			if enc == nil {
				enc = appendPayload(nil, &c.p)
			}
			err := check(enc)
			if (err == nil) != c.accept {
				t.Fatalf("check = %v, want accept = %v", err, c.accept)
			}
			if err != nil && !strings.Contains(err.Error(), c.reason) {
				t.Fatalf("check = %v, want a reason containing %q", err, c.reason)
			}
		})
	}
}

// TestOriginHandoffOnlyAtSessionZero is the made-up-state attack: a host
// at session 3 drops the producer it received, runs from a state it
// invented (x = 1000) and presents the session as the agent's first.
// The session is consistent with itself, so its package and its
// re-execution pass; only the handoff tells it from a launch. An honest
// host with no producer kept refuses to make that claim.
func TestOriginHandoffOnlyAtSessionZero(t *testing.T) {
	bed := newHopBed(t, bedConfig{hop: 3, x: 1000})
	err := bed.mPrev.PrepareDeparture(context.Background(), bed.hcPrev, bed.ag, bed.rec)
	if err == nil || !strings.Contains(err.Error(), "session 3 has no verified producer") {
		t.Fatalf("honest departure without a producer: %v", err)
	}

	// The attacker's departure: PrepareDeparture's package and session
	// signature, sent as the agent's first session.
	rec := bed.rec
	pkg := core.BuildReferencePackage(bed.mPrev, rec, nil)
	enc, err := pkg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	p := payload{Hop: rec.Hop, PkgEnc: enc, Origin: true, Session: session{
		Initial: rec.InitialDigest(), Result: rec.ResultingDigest(), Package: pkg.Digest()}}
	bed.mPrev.sign(bed.hcPrev.Host.Keys(), bed.ag, rec.Hop, &p.Session)
	bed.ag.SetBaggage(MechanismName, appendPayload(nil, &p))

	v, err := bed.mNext.CheckAfterSession(context.Background(), bed.hcNext, bed.migrate(t))
	if err != nil {
		t.Fatal(err)
	}
	const want = "initial-state handoff invalid: origin handoff for session 3"
	if v == nil || v.OK || v.Reason != want {
		t.Fatalf("verdict %+v, want a failure reading %q", v, want)
	}
}

// TestSignaturesPerHop pins the protocol's signature count: each host
// signs each of its sessions once, and the checker verifies that
// signature plus, for an untrusted session that did not launch the
// agent, its producer's.
func TestSignaturesPerHop(t *testing.T) {
	var signs, verifies int
	sign, verify := signMsg, verifyMsg
	t.Cleanup(func() { signMsg, verifyMsg = sign, verify })
	signMsg = func(k *sigcrypto.KeyPair, msg []byte) sigcrypto.Signature {
		signs++
		return sign(k, msg)
	}
	verifyMsg = func(r *sigcrypto.Registry, msg []byte, sig sigcrypto.Signature) error {
		verifies++
		return verify(r, msg, sig)
	}
	for _, tc := range []struct {
		name         string
		cfg          bedConfig
		relayed      bool
		wantVerifies int
		reason       string // substring of the verdict's reason
	}{
		{"origin", bedConfig{}, false, 1, ""},
		{"relayed", bedConfig{hop: 1}, true, 2, ""},
		{"trusted", bedConfig{hop: 1, trusted: true}, true, 1, "trusted"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bed := newHopBed(t, tc.cfg)
			if tc.relayed {
				bed.mPrev.keep(bed.ag, bed.producer(t))
			}
			signs, verifies = 0, 0
			arrived := bed.depart(t)
			if signs != 1 || verifies != 0 {
				t.Fatalf("departure: %d signs, %d verifies; want 1 and 0", signs, verifies)
			}
			signs = 0
			v, err := bed.mNext.CheckAfterSession(context.Background(), bed.hcNext, arrived)
			if err != nil {
				t.Fatal(err)
			}
			if v == nil || !v.OK || !strings.Contains(v.Reason, tc.reason) {
				t.Fatalf("verdict %+v", v)
			}
			if signs != 0 || verifies != tc.wantVerifies {
				t.Fatalf("check: %d signs, %d verifies; want 0 and %d", signs, verifies, tc.wantVerifies)
			}
		})
	}
}
