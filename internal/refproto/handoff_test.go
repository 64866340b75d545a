package refproto

import (
	"fmt"
	"testing"

	"repro/internal/agent"
	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/sigcrypto"
)

// verifyHandoffEitherRole is the acceptance rule verifyHandoff must
// keep, written the way it was before signatures were tried under
// their signer's binding first: every signature is tried as "initial"
// at the checked hop and, failing that, as "resulting" at the hop
// before it.
func verifyHandoffEitherRole(reg *sigcrypto.Registry, ag *agent.Agent, hop int, checkedHost string, h handoff) error {
	if h.Origin {
		if len(h.Sigs) != 1 || h.Sigs[0].Signer != checkedHost {
			return fmt.Errorf("bad origin handoff")
		}
		return verifyBinding(reg, ag, "initial", hop, h.Digest, h.Sigs[0])
	}
	if len(h.Sigs) < 2 {
		return fmt.Errorf("too few signatures")
	}
	receiverSigned := false
	for _, sig := range h.Sigs {
		if err := verifyBinding(reg, ag, "initial", hop, h.Digest, sig); err != nil {
			if err := verifyBinding(reg, ag, "resulting", hop-1, h.Digest, sig); err != nil {
				return err
			}
		}
		receiverSigned = receiverSigned || sig.Signer == checkedHost
	}
	if !receiverSigned {
		return fmt.Errorf("no countersignature")
	}
	return nil
}

// TestVerifyHandoffAcceptsWhatEitherOrderAccepts: trying each handoff
// signature under its signer's binding first changes which verify runs
// first, never whether a handoff is accepted.
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
	h, err := host.New(host.Config{Name: "other", Keys: keys["other"], Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	hc := &core.HostContext{Host: h}
	ag, err := agent.New("handoff-agent", "owner", `proc main() { done() }`, "main")
	if err != nil {
		t.Fatal(err)
	}
	const hop = 3
	d := canon.HashBytes([]byte("initial state of session 3"))
	sign := func(kp *sigcrypto.KeyPair, role string, hop int) sigcrypto.Signature {
		return signBinding(kp, ag, role, hop, d)
	}
	forged := sign(keys["other"], "initial", hop)
	forged.Signer = "checked"

	produced := sign(keys["producer"], "resulting", hop-1)
	countersigned := sign(keys["checked"], "initial", hop)
	cases := []struct {
		name   string
		h      handoff
		accept bool
	}{
		{"producer then receiver", handoff{Sigs: []sigcrypto.Signature{produced, countersigned}}, true},
		{"receiver then producer", handoff{Sigs: []sigcrypto.Signature{countersigned, produced}}, true},
		{"producer is the checked host", handoff{Sigs: []sigcrypto.Signature{sign(keys["checked"], "resulting", hop-1), countersigned}}, true},
		{"producer signed as initial", handoff{Sigs: []sigcrypto.Signature{sign(keys["producer"], "initial", hop), countersigned}}, true},
		{"receiver signed as resulting", handoff{Sigs: []sigcrypto.Signature{produced, sign(keys["checked"], "resulting", hop-1)}}, true},
		{"countersignature missing", handoff{Sigs: []sigcrypto.Signature{produced}}, false},
		{"countersigned by a third host", handoff{Sigs: []sigcrypto.Signature{produced, sign(keys["other"], "initial", hop)}}, false},
		{"countersignature forged", handoff{Sigs: []sigcrypto.Signature{produced, forged}}, false},
		{"countersignature at the wrong hop", handoff{Sigs: []sigcrypto.Signature{produced, sign(keys["checked"], "initial", hop+1)}}, false},
		{"producer at the wrong hop", handoff{Sigs: []sigcrypto.Signature{sign(keys["producer"], "resulting", hop), countersigned}}, false},
		{"unregistered producer", handoff{Sigs: []sigcrypto.Signature{sign(stranger, "resulting", hop-1), countersigned}}, false},
		{"over another digest", handoff{Digest: canon.HashBytes([]byte("x")), Sigs: []sigcrypto.Signature{produced, countersigned}}, false},
		{"origin", handoff{Origin: true, Sigs: []sigcrypto.Signature{countersigned}}, true},
		{"origin signed as resulting", handoff{Origin: true, Sigs: []sigcrypto.Signature{sign(keys["checked"], "resulting", hop-1)}}, false},
		{"origin signed by another host", handoff{Origin: true, Sigs: []sigcrypto.Signature{produced}}, false},
		{"origin with two signatures", handoff{Origin: true, Sigs: []sigcrypto.Signature{produced, countersigned}}, false},
		{"origin forged", handoff{Origin: true, Sigs: []sigcrypto.Signature{forged}}, false},
	}
	m := New(Config{})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.h.Digest == (canon.Digest{}) {
				c.h.Digest = d
			}
			got := m.verifyHandoff(hc, ag, hop, "checked", c.h)
			before := verifyHandoffEitherRole(reg, ag, hop, "checked", c.h)
			if (got == nil) != (before == nil) {
				t.Fatalf("verifyHandoff = %v, trying both roles in the old order = %v", got, before)
			}
			if (got == nil) != c.accept {
				t.Fatalf("verifyHandoff = %v, want accept = %v", got, c.accept)
			}
		})
	}
}
