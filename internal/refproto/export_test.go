package refproto

import (
	"repro/internal/agent"
	"repro/internal/canon"
	"repro/internal/sigcrypto"
)

// RecommitResult rewrites ag's protocol baggage as a cheating host
// would send it: its session now commits to result as the resulting
// state, signed with keys.
func RecommitResult(keys *sigcrypto.KeyPair, ag *agent.Agent, result canon.Digest) error {
	data, _ := ag.GetBaggage(MechanismName)
	p, err := parsePayload(data)
	if err != nil {
		return err
	}
	p.Session.Result = result
	p.Session.Sig = keys.Sign(p.Session.binding(nil, ag, p.Hop))
	ag.SetBaggage(MechanismName, appendPayload(nil, &p))
	return nil
}

// DepartAsTrusted rewrites ag's protocol baggage as a trusted host
// sends it: no reference package, a zero package digest, and the
// session signed anew with keys.
func DepartAsTrusted(keys *sigcrypto.KeyPair, ag *agent.Agent) error {
	data, _ := ag.GetBaggage(MechanismName)
	p, err := parsePayload(data)
	if err != nil {
		return err
	}
	p.PkgEnc, p.Session.Package = nil, canon.Digest{}
	p.Session.Sig = keys.Sign(p.Session.binding(nil, ag, p.Hop))
	ag.SetBaggage(MechanismName, appendPayload(nil, &p))
	return nil
}
