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

// signAs signs s's commitment under any role, hop and route: the
// honest binding is role "session" at the session's own hop, over the
// route up to the host that ran it.
func signAs(kp *sigcrypto.KeyPair, ag *agent.Agent, role string, hop int, route []string, s session) sigcrypto.Signature {
	return kp.Sign(ag.AppendSessionBinding(nil, role, hop, s.digest(route)))
}

// TestVerifyHandoffAcceptsWhatEitherOrderAccepts pins which handoffs the
// checker accepts. A session passes when the host it ran on signed it
// as role "session" at its own hop, over the agent as it arrived, and,
// unless it is the agent's first session, when the route's host for the
// session before signed that session, at the hop before and over the
// route up to itself, with the checked session's initial state as its
// result. Only session 0 may come without a producer, and a payload
// cannot claim trust: a layout with a flag field is refused as
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
	ag.Route = []string{"producer", "checked"}
	route, prefix := ag.Route, ag.Route[:1]
	digest := func(s string) canon.Digest { return canon.HashBytes([]byte(s)) }
	const hop = 3
	initial := digest("initial state of session 3")
	checked := session{Initial: initial, Result: digest("resulting state"), Package: digest("package"), Envelope: envelope(ag)}
	producer := session{Initial: digest("initial state of session 2"), Result: initial, Package: digest("package 2"),
		Envelope: digest("envelope of session 2")}
	forged := signAs(keys["other"], ag, "session", hop, route, checked)
	forged.Signer = "checked"

	// relayed is the honest payload of session 3; origin that of
	// session 0, which the launching host ran.
	relayed := func(producerSig, checkedSig sigcrypto.Signature) payload {
		p := payload{Hop: hop, Session: checked, Producer: producer}
		p.Session.Sig, p.Producer.Sig = checkedSig, producerSig
		p.Session.Envelope = canon.Digest{} // recomputed by the checker; never on the wire
		p.Producer.Result = canon.Digest{}  // implied by Session.Initial; never on the wire
		return p
	}
	origin := func(at int, sig sigcrypto.Signature) payload {
		p := payload{Hop: at, Session: checked, Origin: true}
		p.Session.Sig = sig
		return p
	}
	produced := signAs(keys["producer"], ag, "session", hop-1, prefix, producer)
	sessionSig := signAs(keys["checked"], ag, "session", hop, route, checked)
	launched := signAs(keys["checked"], ag, "session", 0, route, checked)
	otherResult := producer
	otherResult.Result = digest("x")
	otherEnvelope := checked
	otherEnvelope.Envelope = digest("another agent")
	// flagged encodes p with a trust flag inserted as field 2.
	flagged := func(p payload) []byte {
		s, pr := p.Session, p.Producer
		return canon.Tuple([]byte(payloadLabel), canon.Uint64Field(uint64(p.Hop)), []byte{1}, p.PkgEnc,
			s.Initial[:], s.Result[:], s.Package[:], []byte(s.Sig.Signer), s.Sig.Sig,
			pr.Initial[:], pr.Package[:], pr.Envelope[:], []byte(pr.Sig.Signer), pr.Sig.Sig)
	}
	cases := []struct {
		name   string
		p      payload
		enc    []byte // sent instead of p's encoding when set
		accept bool
		reason string // substring of the rejection, where the row pins one
	}{
		{name: "producer then receiver", p: relayed(produced, sessionSig), accept: true},
		{name: "producer is the checked host", p: relayed(signAs(keys["checked"], ag, "session", hop-1, prefix, producer), sessionSig),
			reason: `producer signed by "checked", but session 2 ran on "producer"`},
		{name: "countersignature missing", p: relayed(produced, sigcrypto.Signature{}), reason: "session signature invalid"},
		{name: "countersigned by a third host", p: relayed(produced, signAs(keys["other"], ag, "session", hop, route, checked)), reason: `session signed by "other"`},
		{name: "countersignature forged", p: relayed(produced, forged), reason: "session signature invalid"},
		{name: "countersignature at the wrong hop", p: relayed(produced, signAs(keys["checked"], ag, "session", hop+1, route, checked)), reason: "session signature invalid"},
		{name: "countersignature over another agent", p: relayed(produced, signAs(keys["checked"], ag, "session", hop, route, otherEnvelope)), reason: "session signature invalid"},
		{name: "producer at the wrong hop", p: relayed(signAs(keys["producer"], ag, "session", hop, prefix, producer), sessionSig), reason: `producer signature by "producer"`},
		{name: "producer signed under another role", p: relayed(signAs(keys["producer"], ag, "resulting", hop-1, prefix, producer), sessionSig), reason: `producer signature by "producer"`},
		{name: "unregistered producer", p: relayed(signAs(stranger, ag, "session", hop-1, prefix, producer), sessionSig), reason: `producer signature by "stranger"`},
		{name: "over another digest", p: relayed(signAs(keys["producer"], ag, "session", hop-1, prefix, otherResult), sessionSig), reason: `producer signature by "producer"`},
		{name: "producer over another route", p: relayed(signAs(keys["producer"], ag, "session", hop-1, []string{"elsewhere", "producer"}, producer), sessionSig),
			reason: `producer signature by "producer"`},
		{name: "origin", p: origin(0, launched), accept: true},
		{name: "origin at session 3", p: origin(hop, sessionSig), reason: "origin handoff for session 3"},
		{name: "origin signed as resulting", p: origin(0, signAs(keys["checked"], ag, "resulting", 0, route, checked)), reason: "session signature invalid"},
		{name: "origin signed by another host", p: origin(0, signAs(keys["producer"], ag, "session", 0, route, checked)), reason: `session signed by "producer"`},
		{name: "origin with two signatures", p: func() payload {
			p := relayed(signAs(keys["producer"], ag, "session", -1, prefix, producer), launched)
			p.Hop = 0
			return p
		}(), reason: "producer handoff for session 0"},
		{name: "trust claimed over a packaged session", enc: flagged(relayed(produced, sessionSig)), reason: "malformed encoding"},
		{name: "origin forged", p: origin(0, func() sigcrypto.Signature {
			s := signAs(keys["other"], ag, "session", 0, route, checked)
			s.Signer = "checked"
			return s
		}()), reason: "session signature invalid"},
	}
	_, m := newPair(Config{})
	check := func(enc []byte) error {
		p, err := parsePayload(enc)
		if err != nil {
			return err
		}
		p.Session.Envelope = envelope(ag)
		if err := m.verifySession(reg, ag, &p); err != nil {
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
	enc, sums, err := core.PackageSession(bed.mPrev.check, rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := payload{Hop: rec.Hop, PkgEnc: enc, Origin: true, Session: session{
		Initial: rec.InitialDigest(), Result: rec.ResultingDigest(), Package: sums.Digest, Envelope: envelope(bed.ag)}}
	bed.mPrev.sign(bed.hcPrev.Host.Keys(), bed.ag, rec.Hop, bed.ag.Route, &p.Session)
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

// selfProducedBed is the made-up-state attack of
// TestOriginHandoffOnlyAtSessionZero, with the handoff forged the other
// way: the host at session 3 signs a producer for session 2 itself,
// resulting in the state it invented (x = 1000), over the route as it
// stands after rewrite, and departs with it as an honest host departs.
func selfProducedBed(t *testing.T, rewrite func(route []string)) (*hopBed, *core.Verdict) {
	t.Helper()
	bed := newHopBed(t, bedConfig{hop: 3, x: 1000})
	rewrite(bed.ag.Route)
	s := session{Result: bed.rec.InitialDigest()}
	bed.mPrev.sign(bed.hcPrev.Host.Keys(), bed.ag, 2, bed.ag.Route[:len(bed.ag.Route)-1], &s)
	bed.mPrev.keep(bed.ag, s)
	v, err := bed.mNext.CheckAfterSession(context.Background(), bed.hcNext, bed.depart(t))
	if err != nil {
		t.Fatal(err)
	}
	return bed, v
}

// TestSelfSignedProducerBlamed: the producer of a session must be the
// route's host for the session before. A host that signs its own
// producer is blamed for the handoff.
func TestSelfSignedProducerBlamed(t *testing.T) {
	_, v := selfProducedBed(t, func([]string) {})
	const want = `initial-state handoff invalid: producer signed by "prev", but session 2 ran on "older"`
	if v == nil || v.OK || v.Suspect != "prev" || v.Reason != want {
		t.Fatalf("verdict %+v, want a failure against prev reading %q", v, want)
	}
}

// TestPredecessorRewrittenToSelfNotDetected pins a limit: the host at
// session 3 also rewrites the route's entry for session 2 to itself,
// so the route reads as two consecutive sessions on one host. Its own
// producer is then the route's host for session 2, and the session
// before — the only one that could tell — is not checked here. The
// host has vouched for its own session, as two consecutive colluding
// hosts vouch for each other (§5.1; DESIGN §5).
func TestPredecessorRewrittenToSelfNotDetected(t *testing.T) {
	bed, v := selfProducedBed(t, func(route []string) { route[len(route)-2] = "prev" })
	if v == nil || !v.OK {
		t.Fatalf("verdict %+v, want the documented limit: OK", v)
	}
	if got := strings.Join(bed.ag.Route, " "); got != "h1 h2 prev prev" {
		t.Fatalf("route %q", got)
	}
}
