// Package wholesig implements the baseline protection the paper's
// "plain" agents use (§5.2: executed "without using the protocol (but
// being signed and verified as a whole)"): each departing host signs a
// digest of the whole agent — identity, code, data state, execution
// state, hop, and route — and the receiving host verifies that
// signature before executing.
//
// This authenticates the channel hop ("masquerading of the host",
// Fig. 2 area 8, and in-transit tampering) but detects no misbehaviour
// *by* the executing host itself: a malicious host simply signs the
// tampered agent. It is the floor of the protection scale that
// Tables 1 and 2 compare the example mechanism against.
package wholesig

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/agent"
	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/sigcrypto"
	"repro/internal/stopwatch"
)

// MechanismName is the baggage key and verdict label.
const MechanismName = "wholesig"

// Mechanism signs/verifies whole agents at every hop.
type Mechanism struct {
	core.BaseMechanism
	// Timer, when non-nil, accumulates crypto time under
	// stopwatch.PhaseSignVerify (for the Tables 1-2 columns).
	Timer *stopwatch.PhaseTimer
}

var _ core.Mechanism = (*Mechanism)(nil)

// New returns the baseline mechanism.
func New(timer *stopwatch.PhaseTimer) *Mechanism {
	return &Mechanism{Timer: timer}
}

// Name implements core.Mechanism.
func (m *Mechanism) Name() string { return MechanismName }

type payload struct {
	Digest canon.Digest
	Sig    sigcrypto.Signature
}

// Payload wire layout (canon.Tuple framing), every field bounded:
//
//	payload := Tuple(payloadLabel, digest32, sigSigner, sigBytes)
const (
	payloadLabel = "wholesig-payload"
	// maxPayloadBytes is the largest payload the field bounds allow:
	// tuple header, the label and digest fields with their length
	// prefixes, then the signature.
	maxPayloadBytes = 6 + 4 + len(payloadLabel) + 4 + len(canon.Digest{}) + sigcrypto.MaxWireLen
)

// encodePayload renders p, refusing what decodePayload would reject.
func encodePayload(p payload) ([]byte, error) {
	fields, err := p.Sig.AppendWire([][]byte{[]byte(payloadLabel), p.Digest[:]})
	if err != nil {
		return nil, fmt.Errorf("wholesig: %w", err)
	}
	return canon.Tuple(fields...), nil
}

// decodePayload parses a payload; every rejection wraps
// canon.ErrMalformed.
func decodePayload(data []byte) (payload, error) {
	var p payload
	s, err := canon.ScanList(data, payloadLabel, maxPayloadBytes, 3)
	if err != nil {
		return p, err
	}
	p.Digest = s.Digest()
	sigcrypto.ScanSignature(&s, &p.Sig)
	if err := s.End(); err != nil {
		return payload{}, err
	}
	return p, nil
}

// agentDigest binds everything about the agent except this mechanism's
// own baggage slot (which cannot cover itself).
func agentDigest(ag *agent.Agent) canon.Digest {
	fields := [][]byte{
		[]byte("wholesig"),
		[]byte(ag.ID),
		[]byte(ag.Owner),
		ag.CodeDigest[:],
		[]byte(ag.Entry),
		[]byte(fmt.Sprintf("%d", ag.Hop)),
		[]byte(strings.Join(ag.Route, "\x00")),
	}
	st := ag.StateDigest()
	fields = append(fields, st[:])
	for _, key := range ag.BaggageKeys() {
		if key == MechanismName {
			continue
		}
		b, _ := ag.GetBaggage(key)
		fields = append(fields, []byte(key), b)
	}
	return canon.HashTuple(fields...)
}

// PrepareDeparture signs the whole agent.
func (m *Mechanism) PrepareDeparture(_ context.Context, hc *core.HostContext, ag *agent.Agent, rec *host.SessionRecord) error {
	stop := func() {}
	if m.Timer != nil {
		stop = m.Timer.Time(stopwatch.PhaseSignVerify)
	}
	defer stop()
	p := payload{Digest: agentDigest(ag)}
	p.Sig = hc.Host.Keys().SignDigest(p.Digest)
	enc, err := encodePayload(p)
	if err != nil {
		return err
	}
	ag.SetBaggage(MechanismName, enc)
	return nil
}

// CheckAfterSession verifies the previous host's whole-agent signature.
func (m *Mechanism) CheckAfterSession(_ context.Context, hc *core.HostContext, ag *agent.Agent) (*core.Verdict, error) {
	if ag.Hop == 0 {
		return nil, nil // freshly launched, nothing signed yet
	}
	stop := func() {}
	if m.Timer != nil {
		stop = m.Timer.Time(stopwatch.PhaseSignVerify)
	}
	defer stop()

	prev := ""
	if len(ag.Route) > 0 {
		prev = ag.Route[len(ag.Route)-1]
	}
	v := &core.Verdict{
		Mechanism:   MechanismName,
		Moment:      core.AfterSession,
		CheckedHost: prev,
		CheckedHop:  ag.Hop - 1,
		Checker:     hc.Host.Name(),
	}
	data, ok := ag.GetBaggage(MechanismName)
	if !ok {
		v.OK = false
		v.Suspect = prev
		v.Reason = "agent arrived without whole-agent signature"
		return v, nil
	}
	p, err := decodePayload(data)
	if err != nil {
		v.OK = false
		v.Suspect = prev
		v.Reason = fmt.Sprintf("malformed signature baggage: %v", err)
		return v, nil
	}
	if got := agentDigest(ag); got != p.Digest {
		v.OK = false
		v.Suspect = prev
		v.Reason = "agent digest does not match signed digest (tampered in transit)"
		return v, nil
	}
	if err := hc.Host.Registry().VerifyDigest(p.Digest, p.Sig); err != nil {
		v.OK = false
		v.Suspect = p.Sig.Signer
		v.Reason = fmt.Sprintf("signature verification failed: %v", err)
		return v, nil
	}
	if p.Sig.Signer != prev {
		v.OK = false
		v.Suspect = prev
		v.Reason = fmt.Sprintf("agent signed by %q but forwarded by %q", p.Sig.Signer, prev)
		return v, nil
	}
	v.OK = true
	return v, nil
}
