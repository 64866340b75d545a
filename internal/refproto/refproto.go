// Package refproto implements the paper's example checking mechanism
// (§5.1), based on Hohl's "A New Protocol Protecting Mobile Agents From
// Some Modification Attacks" (TR 09/99). Its design point in the
// framework's attribute space:
//
//   - Moment of checking: after *every* execution session, performed by
//     the next host — "regardless of whether this next host is a
//     trusted one ... or an untrusted one". No suspicion is needed
//     (unlike Vigna's traces), so attacks are caught one hop after they
//     happen. The price: "collaboration attacks of two and more
//     consecutive hosts cannot be detected".
//
//   - Reference data: "the initial and the resulting state of an
//     execution session are used as well as the input to this session"
//     — declared via the framework's requester interfaces.
//
//   - Checking algorithm: re-execution with input replay (host.Replay,
//     the same replay vigna's audit runs), then a strict comparison of
//     the replayed state and continuation entry with the reported ones.
//
// The protocol detail the paper highlights: "to prevent an attack by
// the checking host, initial states have to be signed by both the
// checking host and the checked host". Each host signs each of its
// sessions once, at departure: one signature over the digests of the
// session's initial state, resulting state and reference package. A
// session's initial state is the previous session's resulting state, so
// two hosts have signed it — the producing host as its result, the
// checked host as its initial state. The checked host keeps the
// producer's signed commitment from arrival and hands it on beside its
// own, and the checker verifies both. A checking host can consequently
// neither forge the initial state a session started from, nor can the
// checked host later repudiate it. Only the agent's first session has
// no producer: the launching host's own signature covers it. Sessions
// on trusted hosts are not checked ("trusted hosts will not attack by
// definition"), only their session signature is verified; whether a
// host is trusted is the checker's own registry lookup
// (sigcrypto.Registry.Trusted), never the checked host's claim. Unlike
// Vigna's hash-only commitments, the package carries the complete
// states, so the owner "is able to prove his/her damage in case of a
// fraud".
package refproto

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/agent"
	"repro/internal/agentlang"
	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/sigcrypto"
	"repro/internal/stopwatch"
)

// MechanismName is the baggage key and verdict label.
const MechanismName = "refproto"

// Config tunes the mechanism.
type Config struct {
	// Timer, when non-nil, accumulates signing/verification time under
	// stopwatch.PhaseSignVerify.
	Timer *stopwatch.PhaseTimer
	// ExecHook observes checking re-executions (for benchmark phase
	// timing); may be nil.
	ExecHook agentlang.Hook
	// ReExecGate, when non-nil, decides per checked session whether the
	// expensive re-execution step runs (the adaptive protection level
	// plugs the reputation gate in here — the paper's suspicion-driven
	// checking). When it returns false, every cheap check still runs —
	// the session signatures, the state and package digests, the
	// producer's handoff — and the session is accepted on that evidence
	// alone; only the input-replay re-execution is skipped. Nil
	// re-executes every untrusted session (the paper's full protocol).
	ReExecGate func(checkedHost string) bool
	// Colluding makes this node's checker accept every session without
	// examining it, while still participating in the protocol (it hands
	// the session it received on as its producer, and packages its own
	// at departure). It models the paper's documented limitation:
	// "collaboration attacks of two and more consecutive hosts cannot be
	// detected" (§5.1). For attack simulation only.
	Colluding bool
}

// Mechanism is the per-node instance of the example protocol.
type Mechanism struct {
	core.BaseMechanism
	cfg Config

	mu sync.Mutex
	// pending holds, per agent currently on this host, the signed
	// commitment of the session that produced the state the agent
	// arrived with: the producer of the session this host is about to
	// run.
	pending map[string]session
}

var (
	_ core.Mechanism               = (*Mechanism)(nil)
	_ core.InitialStateRequester   = (*Mechanism)(nil)
	_ core.ResultingStateRequester = (*Mechanism)(nil)
	_ core.InputRequester          = (*Mechanism)(nil)
	_ core.StayEnder               = (*Mechanism)(nil)
)

// New builds the mechanism.
func New(cfg Config) *Mechanism {
	return &Mechanism{cfg: cfg, pending: make(map[string]session)}
}

// Name implements core.Mechanism.
func (m *Mechanism) Name() string { return MechanismName }

// RequestsInitialState declares reference data (Fig. 4).
func (m *Mechanism) RequestsInitialState() {}

// RequestsResultingState declares reference data (Fig. 4).
func (m *Mechanism) RequestsResultingState() {}

// RequestsInput declares reference data (Fig. 4).
func (m *Mechanism) RequestsInput() {}

// session is a host's signed commitment to one of its execution
// sessions: the digests of the session's initial state, resulting state
// and reference package (zero for a trusted session, which carries
// none), and the executing host's one signature over all three.
type session struct {
	Initial, Result, Package canon.Digest
	Sig                      sigcrypto.Signature
}

// sessionLabel domain-separates the digest a session signature covers.
const sessionLabel = "refproto-session"

// binding appends the message a session signature covers: the agent's
// session binding, role "session", at the session's hop.
func (s *session) binding(dst []byte, ag *agent.Agent, hop int) []byte {
	d := canon.HashTuple([]byte(sessionLabel), s.Initial[:], s.Result[:], s.Package[:])
	return ag.AppendSessionBinding(dst, "session", hop, d)
}

// signMsg and verifyMsg are the mechanism's only uses of a key pair and
// the registry: the signature count per hop is counted through them.
var (
	signMsg   = (*sigcrypto.KeyPair).Sign
	verifyMsg = (*sigcrypto.Registry).Verify
)

// sign signs s as the session at hop, in a pooled buffer that never
// outlives the call.
func (m *Mechanism) sign(keys *sigcrypto.KeyPair, ag *agent.Agent, hop int, s *session) {
	defer m.timeCrypto()()
	buf := canon.GetBuf()
	msg := s.binding((*buf)[:0], ag, hop)
	s.Sig = signMsg(keys, msg)
	*buf = msg
	canon.PutBuf(buf)
}

// verify verifies s's signature as the session at hop.
func (m *Mechanism) verify(reg *sigcrypto.Registry, ag *agent.Agent, hop int, s *session) error {
	defer m.timeCrypto()()
	buf := canon.GetBuf()
	msg := s.binding((*buf)[:0], ag, hop)
	err := verifyMsg(reg, msg, s.Sig)
	*buf = msg
	canon.PutBuf(buf)
	return err
}

func (m *Mechanism) timeCrypto() func() {
	if m.cfg.Timer == nil {
		return func() {}
	}
	return m.cfg.Timer.Time(stopwatch.PhaseSignVerify)
}

// payload is the wire baggage: everything the next host needs to check
// the previous session. It travels in the canonical tuple encoding
// (see appendPayload), not gob: the hot sign→verify path runs once per
// hop, and gob's per-encoder type negotiation dominated its allocation
// profile.
type payload struct {
	// Hop is the checked session's index.
	Hop int
	// PkgEnc is the encoded reference package (initial state, input,
	// resulting state); nil for a session on a trusted host.
	PkgEnc []byte
	// Session is the checked session's commitment, signed by the host
	// that ran it.
	Session session
	// Producer is the session before it, as the checked host received
	// it. Its resulting state is Session's initial state, so its Result
	// does not travel. Origin marks the agent's first session, which
	// has no producer.
	Producer session
	Origin   bool
}

// Payload wire layout: one canonical tuple; an origin payload stops
// after field 7, and its field count is what marks it as one.
//
//	0  format label ("refproto-session-payload")
//	1  hop, 8-byte big-endian
//	2  package encoding (empty for a session on a trusted host)
//	3  session: initial-state digest
//	4  session: resulting-state digest
//	5  session: package digest
//	6  session signature: signer
//	7  session signature: bytes
//	8  producer: initial-state digest
//	9  producer: package digest
//	10 producer signature: signer
//	11 producer signature: bytes
const (
	payloadLabel  = "refproto-session-payload"
	originFields  = 8
	relayedFields = 12
)

// appendPayload appends p's canonical encoding to dst.
func appendPayload(dst []byte, p *payload) []byte {
	var hopBuf [8]byte
	binary.BigEndian.PutUint64(hopBuf[:], uint64(p.Hop))
	n := relayedFields
	if p.Origin {
		n = originFields
	}
	s, pr := &p.Session, &p.Producer
	fields := [relayedFields][]byte{
		[]byte(payloadLabel),
		hopBuf[:],
		p.PkgEnc,
		s.Initial[:], s.Result[:], s.Package[:],
		[]byte(s.Sig.Signer), s.Sig.Sig,
		pr.Initial[:], pr.Package[:],
		[]byte(pr.Sig.Signer), pr.Sig.Sig,
	}
	return canon.AppendTuple(dst, fields[:n]...)
}

// parsePayload decodes a payload produced by appendPayload. The
// returned payload's byte slices alias data.
func parsePayload(data []byte) (payload, error) {
	var p payload
	bound := len(data)
	s, err := canon.ScanList(data, payloadLabel, bound, relayedFields-1)
	if err != nil {
		return p, err
	}
	if n := 1 + s.Len(); n != originFields && n != relayedFields {
		return p, fmt.Errorf("%w: payload has %d fields", canon.ErrMalformed, n)
	}
	p.Origin = 1+s.Len() == originFields
	p.Hop = int(s.Uint64())
	if pkg := s.Field(bound); len(pkg) > 0 {
		p.PkgEnc = pkg
	}
	p.Session = session{
		Initial: s.Digest(),
		Result:  s.Digest(),
		Package: s.Digest(),
		Sig:     sigcrypto.Signature{Signer: string(s.Field(bound)), Sig: s.Field(bound)},
	}
	if !p.Origin {
		p.Producer = session{
			Initial: s.Digest(),
			Package: s.Digest(),
			Sig:     sigcrypto.Signature{Signer: string(s.Field(bound)), Sig: s.Field(bound)},
		}
	}
	if err := s.End(); err != nil {
		return payload{}, err
	}
	return p, nil
}

// PrepareDeparture signs the just-executed session — the host's one
// signature for it — and packages it for checking by the next host.
func (m *Mechanism) PrepareDeparture(_ context.Context, hc *core.HostContext, ag *agent.Agent, rec *host.SessionRecord) error {
	// The producer kept at arrival; none if this host launched the
	// agent. The record's memoized digests mean each state is hashed
	// once per session no matter how many mechanisms commit to it.
	m.mu.Lock()
	producer, relayed := m.pending[ag.ID]
	delete(m.pending, ag.ID)
	m.mu.Unlock()
	if !relayed && rec.Hop > 0 {
		// The arrival check failed before it could vouch for a producer,
		// and a lenient policy let the agent run on. Presenting this
		// session as the agent's first would be false, and the next
		// checker would blame this host for it, so the journey stops
		// here.
		return fmt.Errorf("refproto: session %d has no verified producer to hand on", rec.Hop)
	}
	p := payload{
		Hop:      rec.Hop,
		Session:  session{Initial: rec.InitialDigest(), Result: rec.ResultingDigest()},
		Producer: producer,
		Origin:   !relayed,
	}

	// Optimization (§5.1): trusted sessions are not checked, so they
	// carry no package. The checker decides that from its own registry.
	if !hc.Host.Registry().Trusted(hc.Host.Name()) {
		pkg := core.BuildReferencePackage(m, rec, nil)
		enc, err := pkg.Marshal()
		if err != nil {
			return fmt.Errorf("refproto: %w", err)
		}
		p.PkgEnc = enc
		p.Session.Package = pkg.Digest()
	}
	m.sign(hc.Host.Keys(), ag, rec.Hop, &p.Session)

	// Encode into a pooled buffer; SetBaggage copies, so the scratch
	// goes straight back to the pool.
	buf := canon.GetBuf()
	enc := appendPayload((*buf)[:0], &p)
	ag.SetBaggage(MechanismName, enc)
	*buf = enc
	canon.PutBuf(buf)
	return nil
}

// EndStay implements core.StayEnder. The producer recorded at arrival
// is consumed when the agent departs; where its stay ends instead — the
// journey completed here, the agent was quarantined, its session
// failed — it is dropped, or pending would keep it for good.
func (m *Mechanism) EndStay(_ *core.HostContext, ag *agent.Agent) {
	m.mu.Lock()
	delete(m.pending, ag.ID)
	m.mu.Unlock()
}

// keep records s as the producer of the session this host runs next.
func (m *Mechanism) keep(ag *agent.Agent, s session) {
	m.mu.Lock()
	m.pending[ag.ID] = s
	m.mu.Unlock()
}

// CheckAfterSession verifies the previous host's session as the first
// action after arrival (Fig. 4).
func (m *Mechanism) CheckAfterSession(ctx context.Context, hc *core.HostContext, ag *agent.Agent) (*core.Verdict, error) {
	if ag.Hop == 0 {
		// Freshly launched on this host; nothing to check yet.
		return nil, nil
	}
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
		Suspect:     prev,
	}
	fail := func(reason string, evidence ...string) (*core.Verdict, error) {
		v.OK = false
		v.Reason = reason
		v.Evidence = evidence
		return v, nil
	}

	data, ok := ag.GetBaggage(MechanismName)
	if !ok {
		return fail("agent arrived without protocol baggage (stripped or never attached)")
	}
	p, err := parsePayload(data)
	if err != nil {
		return fail(fmt.Sprintf("malformed protocol baggage: %v", err))
	}

	if m.cfg.Colluding {
		// A colluding checker vouches for whatever it received: it hands
		// the session on as its producer and reports nothing, so its own
		// departure package looks perfectly regular to the host after it.
		m.keep(ag, p.Session)
		return nil, nil
	}
	if p.Hop != ag.Hop-1 {
		return fail(fmt.Sprintf("baggage is for session %d, expected %d (replayed?)", p.Hop, ag.Hop-1))
	}

	reg := hc.Host.Registry()

	// 1. The session's resulting state must be the state that actually
	// arrived, and the previous host must have signed the session. The
	// arrival digest was seeded from the wire bytes during
	// unmarshalling, so this is a cache read, not a rehash.
	if ag.StateDigest() != p.Session.Result {
		return fail("arrived state does not match the previous host's signed resulting state")
	}
	if err := m.verifySession(reg, ag, prev, &p); err != nil {
		return fail(err.Error())
	}

	// Keep the checked session before any early return: it produced the
	// initial state of this host's own session.
	m.keep(ag, p.Session)

	// 2. Sessions on hosts the registry trusts are not re-executed.
	if reg.Trusted(prev) {
		v.OK = true
		v.Reason = "trusted host; session not checked"
		return v, nil
	}

	// 3. Verify the package against the signed session, and the
	// producer's handoff of its initial state.
	if p.PkgEnc == nil {
		return fail("untrusted session carries no reference package")
	}
	pkg, err := core.UnmarshalReferencePackage(p.PkgEnc)
	if err != nil {
		return fail(fmt.Sprintf("malformed reference package: %v", err))
	}
	if pkg.Hop != p.Hop || pkg.HostName != prev {
		return fail(fmt.Sprintf("package identifies session %d@%s, expected %d@%s",
			pkg.Hop, pkg.HostName, p.Hop, prev))
	}
	if pkg.Digest() != p.Session.Package {
		return fail("package differs from the signed session commitment")
	}
	if canon.HashState(pkg.ResultingState) != p.Session.Result {
		return fail("package resulting state differs from the signed commitment")
	}
	if canon.HashState(pkg.InitialState) != p.Session.Initial {
		return fail("package initial state differs from the signed commitment")
	}
	if err := m.verifyHandoff(reg, ag, &p); err != nil {
		return fail(fmt.Sprintf("initial-state handoff invalid: %v", err))
	}

	// 4. Re-execute the session against the packaged reference data —
	// the expensive step. A configured gate may decide the executing
	// host's standing does not warrant it this session; the commitment
	// checks above have already run either way.
	if m.cfg.ReExecGate != nil && !m.cfg.ReExecGate(prev) {
		v.OK = true
		v.Reason = "commitments verified; re-execution skipped by reputation gate"
		return v, nil
	}
	// Do not start the re-execution under a dead context.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("refproto: %w", err)
	}
	if evidence, err := m.reexecute(ag, pkg); err != nil {
		return nil, fmt.Errorf("refproto: re-execution check: %w", err)
	} else if evidence != nil {
		// Full states are available: attach the complete divergence as
		// evidence, so the owner can prove the damage (§5.1).
		return fail("re-execution does not reproduce the claimed resulting state", evidence...)
	}
	v.OK = true
	return v, nil
}

// verifySession checks the checked host's signature over its session.
func (m *Mechanism) verifySession(reg *sigcrypto.Registry, ag *agent.Agent, checkedHost string, p *payload) error {
	if err := m.verify(reg, ag, p.Hop, &p.Session); err != nil {
		return fmt.Errorf("session signature invalid: %v", err)
	}
	if p.Session.Sig.Signer != checkedHost {
		return fmt.Errorf("session signed by %q, but session ran on %q", p.Session.Sig.Signer, checkedHost)
	}
	return nil
}

// verifyHandoff checks the producer's side of the checked session's
// initial state: the session before it, signed at its own hop, resulted
// in exactly that state. The agent's first session, and only that one,
// has no producer; the checked host's own session signature covers it.
func (m *Mechanism) verifyHandoff(reg *sigcrypto.Registry, ag *agent.Agent, p *payload) error {
	switch {
	case p.Origin && p.Hop != 0:
		return fmt.Errorf("origin handoff for session %d", p.Hop)
	case p.Origin:
		return nil
	case p.Hop == 0:
		return errors.New("producer handoff for session 0")
	}
	producer := p.Producer
	producer.Result = p.Session.Initial
	if err := m.verify(reg, ag, p.Hop-1, &producer); err != nil {
		return fmt.Errorf("producer signature by %q: %v", producer.Sig.Signer, err)
	}
	return nil
}

// reexecute replays the packaged session (host.Replay) and compares
// the outcome with what the package reports. It returns nil evidence
// when the replay reproduces the reported session, and an error when
// the package lacks the data a replay needs. Comparison is strict: the
// interpreter is single-threaded and byte-deterministic, so an honest
// session replays to exactly the state it reported.
func (m *Mechanism) reexecute(ag *agent.Agent, pkg *core.ReferencePackage) ([]string, error) {
	switch {
	case pkg.InitialState == nil:
		return nil, errors.New("reference package has no initial state")
	case pkg.ResultingState == nil:
		return nil, errors.New("reference package has no resulting state")
	case pkg.Input == nil:
		return nil, errors.New("reference package has no input")
	case pkg.Entry == "":
		return nil, errors.New("reference package has no entry procedure")
	}
	prog, err := ag.Program()
	if err != nil {
		return nil, err
	}
	replayed, entry, unconsumed, err := host.Replay(prog, pkg.Entry, pkg.InitialState, pkg.Input, m.cfg.ExecHook)
	if err != nil {
		// Replay divergence: the (initial state, input, code) triple is
		// inconsistent with itself — the session as reported cannot have
		// happened.
		return []string{fmt.Sprintf("re-execution failed: %v", err)}, nil
	}
	var evidence []string
	if unconsumed != 0 {
		evidence = append(evidence, fmt.Sprintf(
			"reported input has %d records the re-execution never consumed", unconsumed))
	}
	// The execution state transition must match, too: an attacker could
	// otherwise redirect the agent to a different entry procedure.
	if entry != pkg.ResultEntry {
		evidence = append(evidence, fmt.Sprintf(
			"execution state mismatch: re-execution continues at %q, reported %q",
			entry, pkg.ResultEntry))
	}
	if !replayed.Equal(pkg.ResultingState) {
		for _, d := range replayed.Diff(pkg.ResultingState) {
			evidence = append(evidence, "state mismatch: "+d)
		}
	}
	return evidence, nil
}
