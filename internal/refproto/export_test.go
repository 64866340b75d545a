package refproto

import (
	"repro/internal/agent"
	"repro/internal/canon"
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
