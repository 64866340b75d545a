package refproto_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/agent"
	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/platformtest"
	"repro/internal/refproto"
	"repro/internal/sigcrypto"
	"repro/internal/transport"
)

// noncanonicalNet sends the agent leaving the cheating host the way
// that host would: its state encoded with the bool byte of zz, the last
// key, set to 2 instead of 1 — bytes a lenient decoder reads as the same
// state under a different digest — and its refproto session re-signed
// over the digest of those bytes.
type noncanonicalNet struct {
	transport.Network
	cheat *sigcrypto.KeyPair
}

func (n noncanonicalNet) SendAgent(ctx context.Context, to string, wire []byte) error {
	if to != "honest" {
		return n.Network.SendAgent(ctx, to, wire)
	}
	ag, err := agent.Unmarshal(wire)
	if err != nil {
		return err
	}
	state := canon.EncodeState(ag.State)
	bent := bytes.Clone(state)
	bent[len(bent)-1] = 2
	if err := refproto.RecommitResult(n.cheat, ag, canon.HashBytes(bent)); err != nil {
		return err
	}
	out, err := ag.Marshal()
	if err != nil {
		return err
	}
	i := bytes.Index(out, state)
	if i < 0 {
		return errors.New("state encoding not found in the agent's wire form")
	}
	copy(out[i:], bent)
	return n.Network.SendAgent(ctx, to, out)
}

// TestNonCanonicalStateBlamesNoHonestHost: a cheating host sends its
// state in bytes that decode to the same values but hash differently,
// and signs its session over the digest of those bytes. If the next,
// honest host admitted them, it would commit to the canonical digest of
// the same state as its session's initial state, and the checker after
// it would find the cheat's signature over another digest and blame the
// honest host. So the bytes are refused at the door: the forward from
// the cheat fails as malformed, the honest host runs nothing, and no
// check fails — whether the honest host would have re-executed the
// cheat's session or its reputation gate would have skipped it, and
// whether the cheat's session was packaged or claimed trusted.
func TestNonCanonicalStateBlamesNoHonestHost(t *testing.T) {
	const code = `
proc main() { zz = true
    migrate("cheat", "a") }
proc a() { n = 1
    migrate("honest", "b") }
proc b() { n = n + 1
    migrate("back", "c") }
proc c() { done() }`
	for _, tc := range []struct {
		name         string
		cheatTrusted bool
	}{{"gate skips the cheat", false}, {"cheat claims trust", true}} {
		t.Run(tc.name, func(t *testing.T) {
			cheat, err := sigcrypto.GenerateKeyPair("cheat")
			if err != nil {
				t.Fatal(err)
			}
			bed := platformtest.New(t)
			bed.WrapNet(func(n transport.Network) transport.Network { return noncanonicalNet{n, cheat} })
			mechs := func() []core.Mechanism {
				gate := func(checked string) bool { return checked != "cheat" }
				return refproto.New(refproto.Config{ReExecGate: gate})
			}
			bed.AddHost("home", platformtest.HostOptions{Trusted: true, Mechanisms: mechs})
			bed.AddHost("cheat", platformtest.HostOptions{Trusted: tc.cheatTrusted, Mechanisms: mechs,
				Configure: func(c *host.Config) { c.Keys = cheat }})
			honest := bed.AddHost("honest", platformtest.HostOptions{Mechanisms: mechs})
			bed.AddHost("back", platformtest.HostOptions{Trusted: true, Mechanisms: mechs})

			err = bed.Run("home", bed.NewAgent("bent", code))
			for _, v := range bed.FailedVerdicts() {
				t.Errorf("failed verdict, suspect %s: %s", v.Suspect, v)
			}
			var fe *core.ForwardError
			if !errors.As(err, &fe) || fe.From != "cheat" || fe.To != "honest" || !errors.Is(err, canon.ErrMalformed) {
				t.Fatalf("outcome = %v, want cheat's forward to honest refused as malformed", err)
			}
			if st := honest.Status("bent"); st.Phase != core.PhaseUnknown {
				t.Fatalf("honest host's status = %+v, want no record of the agent", st)
			}
		})
	}
}
