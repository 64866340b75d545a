package refproto

import (
	"context"

	"repro/internal/agent"
	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/sigcrypto"
)

// resign rewrites ag's protocol baggage as a cheating host would send
// it: edit changes the payload, and the session is signed anew with
// keys over the agent as it now is.
func resign(keys *sigcrypto.KeyPair, ag *agent.Agent, edit func(*payload)) error {
	data, _ := ag.GetBaggage(MechanismName)
	p, err := parsePayload(data)
	if err != nil {
		return err
	}
	edit(&p)
	p.Session.Envelope = envelope(ag)
	p.Session.Sig = keys.Sign(p.Session.binding(nil, ag, p.Hop, ag.Route))
	ag.SetBaggage(MechanismName, appendPayload(nil, &p))
	return nil
}

// RecommitResult rewrites ag's protocol baggage as a cheating host
// would send it: its session now commits to result as the resulting
// state, signed with keys.
func RecommitResult(keys *sigcrypto.KeyPair, ag *agent.Agent, result canon.Digest) error {
	return resign(keys, ag, func(p *payload) { p.Session.Result = result })
}

// DepartAsTrusted rewrites ag's protocol baggage as a trusted host
// sends it: no reference package, a zero package digest, and the
// session signed anew with keys.
func DepartAsTrusted(keys *sigcrypto.KeyPair, ag *agent.Agent) error {
	return resign(keys, ag, func(p *payload) { p.PkgEnc, p.Session.Package = nil, canon.Digest{} })
}

// Reseal signs ag's session anew with keys over the agent as it now
// is, as the host that sends it would after changing the agent.
func Reseal(keys *sigcrypto.KeyPair, ag *agent.Agent) error {
	return resign(keys, ag, func(*payload) {})
}

// CarryPackage puts pkg into ag's protocol baggage as its reference
// package and leaves the signed session as it was, as a wire attacker
// would add bytes beside an intact signature.
func CarryPackage(ag *agent.Agent, pkg []byte) error {
	data, _ := ag.GetBaggage(MechanismName)
	p, err := parsePayload(data)
	if err != nil {
		return err
	}
	p.PkgEnc = pkg
	ag.SetBaggage(MechanismName, appendPayload(nil, &p))
	return nil
}

// CoverPredecessor makes the node whose mechanisms mechs are a host
// that covers for its predecessor: its checker runs every check as an
// honest one does, keeps the checked session as the producer of its
// own and departs as usual, but reports no failed verdict. Two
// consecutive hosts, the first tampering and this one covering, are
// the collaboration the protocol cannot detect (§5.1).
func CoverPredecessor(mechs []core.Mechanism) []core.Mechanism {
	out := append([]core.Mechanism(nil), mechs...)
	for i, m := range out {
		if check, ok := m.(*Mechanism); ok {
			out[i] = coveringChecker{check}
		}
	}
	return out
}

// coveringChecker is the checker of a host that covers for its
// predecessor.
type coveringChecker struct{ *Mechanism }

// CheckAfterSession drops a failed verdict of the checker it wraps.
func (c coveringChecker) CheckAfterSession(ctx context.Context, hc *core.HostContext, ag *agent.Agent) (*core.Verdict, error) {
	v, err := c.Mechanism.CheckAfterSession(ctx, hc, ag)
	if v != nil && !v.OK {
		return nil, err
	}
	return v, err
}
