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
// session's initial state, resulting state and reference package, the
// route up to and including the host, and an envelope digest of the
// rest of the agent (owner, entry procedure and every other mechanism's
// baggage). That one signature is the hop's only one: it authenticates
// the whole agent, as a whole-agent signature would, and commits the
// host to the session. A session's initial state is the previous
// session's resulting state, so two hosts have signed it — the
// producing host as its result, the checked host as its initial state.
// The checked host keeps the producer's signed commitment from arrival
// and hands it on beside its own, and the checker verifies both; the
// producer must be the route's host for the session before, over the
// route as it was then. A checking host can consequently neither forge
// the initial state a session started from, nor can the checked host
// later repudiate it or sign that state's production itself. Only the
// agent's first session has no producer: the launching host's own
// signature covers it. Sessions on trusted hosts are not checked
// ("trusted hosts will not attack by definition"), only their session
// signature is verified; whether a host is trusted is the checker's own
// registry lookup (sigcrypto.Registry.Trusted), never the checked
// host's claim. Unlike Vigna's hash-only commitments, the package
// carries the complete states, so the owner "is able to prove his/her
// damage in case of a fraud".
//
// New builds a node's protocol as two mechanisms over shared state: a
// seal, first in the node's list, and the checker, last. On arrival the
// seal verifies the session signature before anything else reads the
// agent, and the checker, after the mechanisms between them, verifies
// the package and the handoff and re-executes. On departure the checker
// packages the session first and the seal signs last, over everything
// the mechanisms between them attached.
//
// Sealed builds the seal alone, the whole-agent signature of the
// paper's "plain" agents ("signed and verified as a whole", §5.2).
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

// SealName names the seal, the half of the protocol that goes first in
// a node's mechanism list. It carries no baggage of its own: the
// signature travels in MechanismName's payload, and its verdicts are
// labelled MechanismName.
const SealName = "refproto.seal"

// Config tunes the mechanism.
type Config struct {
	// Timer, when non-nil, accumulates signing/verification time under
	// stopwatch.PhaseSignVerify, one span per signature or
	// verification.
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
}

// shared is one node's protocol state, common to its seal and checker.
type shared struct {
	cfg Config
	// paired is set when a checker shares this state; a seal built
	// alone packages its own sessions.
	paired bool

	mu sync.Mutex
	// stays holds, per agent currently on this host, what the two
	// halves hand each other between its arrival and its departure.
	stays map[string]stay
}

// stay is one agent's protocol state on this host.
type stay struct {
	// in is the arrived payload, its session signature verified by the
	// seal, for the checker. Its byte slices alias the agent's baggage;
	// the checker clears it once read.
	in     payload
	sealed bool
	// producer is the arrived session once the checker vouched for it:
	// the producer of the session this host runs.
	producer session
	relayed  bool
	// out is this host's session, packaged by the checker for the seal
	// to sign.
	out      payload
	packaged bool
}

// Seal is the outer half of a node's protocol: it verifies the session
// signature as the node's first arrival check and signs the session as
// its last departure step. Built alone (Sealed) it is the whole
// protocol: a signature per hop and no reference-state check.
type Seal struct {
	core.BaseMechanism
	*shared
}

// Mechanism is the inner half, the checker: it verifies the sealed
// session's package and handoff, re-executes it, and packages this
// host's own session at departure.
type Mechanism struct {
	core.BaseMechanism
	*shared
}

var (
	_ core.Mechanism               = (*Seal)(nil)
	_ core.Mechanism               = (*Mechanism)(nil)
	_ core.InitialStateRequester   = (*Mechanism)(nil)
	_ core.ResultingStateRequester = (*Mechanism)(nil)
	_ core.InputRequester          = (*Mechanism)(nil)
	_ core.StayEnder               = (*Mechanism)(nil)
)

// New builds one node's protocol around inner: the seal, then inner,
// then the checker. The seal's signature covers inner's baggage, and
// the checker's re-execution gate sees what inner's arrival checks
// recorded.
func New(cfg Config, inner ...core.Mechanism) []core.Mechanism {
	seal, check := newPair(cfg)
	return append(append([]core.Mechanism{seal}, inner...), check)
}

func newPair(cfg Config) (*Seal, *Mechanism) {
	sh := &shared{cfg: cfg, paired: true, stays: make(map[string]stay)}
	return &Seal{shared: sh}, &Mechanism{shared: sh}
}

// Sealed builds a node's seal without a checker, in front of inner:
// the seal signs each session over everything inner attached, and
// verifies the signature before inner's arrival checks run. Only
// cfg.Timer applies; nothing is re-executed.
func Sealed(cfg Config, inner ...core.Mechanism) []core.Mechanism {
	return append([]core.Mechanism{&Seal{shared: &shared{cfg: cfg}}}, inner...)
}

// Name implements core.Mechanism.
func (s *Seal) Name() string { return SealName }

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
// none), the envelope digest of the agent it departed as, and the
// executing host's one signature over all four and the route.
type session struct {
	Initial, Result, Package, Envelope canon.Digest
	Sig                                sigcrypto.Signature
}

// Domain labels of the digests a session signature covers.
const (
	sessionLabel  = "refproto-session"
	envelopeLabel = "refproto-envelope"
)

// binding appends the message a session signature covers: the agent's
// session binding, role "session", at the session's hop, over digest.
func (s *session) binding(dst []byte, ag *agent.Agent, hop int, route []string) []byte {
	return ag.AppendSessionBinding(dst, "session", hop, s.digest(route))
}

// digest binds the session's digests to its route, the hosts up to and
// including the one that ran it.
func (s *session) digest(route []string) canon.Digest {
	return canon.HashAppend(func(dst []byte) []byte {
		dst = canon.AppendTupleHeader(dst, 5+len(route))
		dst = canon.AppendField(dst, sessionLabel)
		dst = canon.AppendField(dst, s.Initial[:])
		dst = canon.AppendField(dst, s.Result[:])
		dst = canon.AppendField(dst, s.Package[:])
		dst = canon.AppendField(dst, s.Envelope[:])
		for _, h := range route {
			dst = canon.AppendField(dst, h)
		}
		return dst
	})
}

// envelope digests what a session signature covers of the agent beyond
// its identity, code, hop, state and route: its owner, its entry
// procedure and every baggage slot but the protocol's own, which
// carries the signature.
func envelope(ag *agent.Agent) canon.Digest {
	keys := ag.BaggageKeys()
	n := 3 + 2*len(keys)
	if _, ok := ag.Baggage[MechanismName]; ok {
		n -= 2
	}
	return canon.HashAppend(func(dst []byte) []byte {
		dst = canon.AppendTupleHeader(dst, n)
		dst = canon.AppendField(dst, envelopeLabel)
		dst = canon.AppendField(dst, ag.Owner)
		dst = canon.AppendField(dst, ag.Entry)
		for _, k := range keys {
			if k != MechanismName {
				dst = canon.AppendField(dst, k)
				dst = canon.AppendField(dst, ag.Baggage[k])
			}
		}
		return dst
	})
}

// sign signs s as the session at hop over route, in a pooled buffer
// that never outlives the call.
func (sh *shared) sign(keys *sigcrypto.KeyPair, ag *agent.Agent, hop int, route []string, s *session) {
	defer sh.timeCrypto()()
	buf := canon.GetBuf()
	msg := s.binding((*buf)[:0], ag, hop, route)
	s.Sig = keys.Sign(msg)
	*buf = msg
	canon.PutBuf(buf)
}

// verify verifies s's signature as the session at hop over route.
func (sh *shared) verify(reg *sigcrypto.Registry, ag *agent.Agent, hop int, route []string, s *session) error {
	defer sh.timeCrypto()()
	buf := canon.GetBuf()
	msg := s.binding((*buf)[:0], ag, hop, route)
	err := reg.Verify(msg, s.Sig)
	*buf = msg
	canon.PutBuf(buf)
	return err
}

func (sh *shared) timeCrypto() func() {
	if sh.cfg.Timer == nil {
		return func() {}
	}
	return sh.cfg.Timer.Time(stopwatch.PhaseSignVerify)
}

// lastHost is the route's last host, the one the agent arrived from;
// "" for an empty route.
func lastHost(route []string) string {
	if len(route) == 0 {
		return ""
	}
	return route[len(route)-1]
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
	// that ran it. Its envelope does not travel: the checker recomputes
	// it from the agent that arrived.
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
//	0  format label ("refproto-sealed-payload")
//	1  hop, 8-byte big-endian
//	2  package encoding (empty for a session on a trusted host)
//	3  session: initial-state digest
//	4  session: resulting-state digest
//	5  session: package digest
//	6  session signature: signer
//	7  session signature: bytes
//	8  producer: initial-state digest
//	9  producer: package digest
//	10 producer: envelope digest
//	11 producer signature: signer
//	12 producer signature: bytes
const (
	payloadLabel  = "refproto-sealed-payload"
	originFields  = 8
	relayedFields = 13
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
		pr.Initial[:], pr.Package[:], pr.Envelope[:],
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
			Initial:  s.Digest(),
			Package:  s.Digest(),
			Envelope: s.Digest(),
			Sig:      sigcrypto.Signature{Signer: string(s.Field(bound)), Sig: s.Field(bound)},
		}
	}
	if err := s.End(); err != nil {
		return payload{}, err
	}
	return p, nil
}

// PrepareDeparture packages the session for checking by the next host;
// the seal signs it last.
func (m *Mechanism) PrepareDeparture(_ context.Context, hc *core.HostContext, ag *agent.Agent, rec *host.SessionRecord) error {
	// The producer kept at arrival; none if this host launched the
	// agent.
	m.mu.Lock()
	st := m.stays[ag.ID]
	m.mu.Unlock()
	if !st.relayed && rec.Hop > 0 {
		// The arrival check failed before it could vouch for a producer,
		// and a lenient policy let the agent run on. Presenting this
		// session as the agent's first would be false, and the next
		// checker would blame this host for it, so the journey stops
		// here.
		return fmt.Errorf("refproto: session %d has no verified producer to hand on", rec.Hop)
	}
	p := payload{Hop: rec.Hop, Producer: st.producer, Origin: !st.relayed}

	// Optimization (§5.1): trusted sessions are not checked, so they
	// carry no package. The checker decides that from its own registry.
	// An untrusted session's digests are read from its package's bytes.
	if hc.Host.Registry().Trusted(hc.Host.Name()) {
		p.Session = session{Initial: rec.InitialDigest(), Result: rec.ResultingDigest()}
	} else {
		enc, sums, err := core.PackageSession(m, rec, nil)
		if err != nil {
			return fmt.Errorf("refproto: %w", err)
		}
		p.PkgEnc = enc
		p.Session = session{Initial: sums.Initial, Result: sums.Resulting, Package: sums.Digest}
	}
	m.mu.Lock()
	m.stays[ag.ID] = stay{out: p, packaged: true}
	m.mu.Unlock()
	return nil
}

// PrepareDeparture signs the packaged session — the host's one
// signature for the hop — over everything the agent departs with. A
// seal without a checker packages the session itself: its digests and
// nothing else, in the origin form.
func (s *Seal) PrepareDeparture(_ context.Context, hc *core.HostContext, ag *agent.Agent, rec *host.SessionRecord) error {
	var st stay
	if s.paired {
		s.mu.Lock()
		st = s.stays[ag.ID]
		delete(s.stays, ag.ID)
		s.mu.Unlock()
		if !st.packaged {
			return errors.New("refproto: no packaged session to seal (the checker must follow the seal in the stack)")
		}
	} else {
		st.out = payload{
			Hop:     rec.Hop,
			Session: session{Initial: rec.InitialDigest(), Result: rec.ResultingDigest()},
			Origin:  true,
		}
	}
	p := &st.out
	p.Session.Envelope = envelope(ag)
	s.sign(hc.Host.Keys(), ag, p.Hop, ag.Route, &p.Session)

	// Encode into a pooled buffer; SetBaggage copies, so the scratch
	// goes straight back to the pool.
	buf := canon.GetBuf()
	enc := appendPayload((*buf)[:0], p)
	ag.SetBaggage(MechanismName, enc)
	*buf = enc
	canon.PutBuf(buf)
	return nil
}

// EndStay implements core.StayEnder. What the halves hold for an agent
// is consumed when it departs; where its stay ends instead — the
// journey completed here, the agent was quarantined, its session
// failed — it is dropped, or stays would keep it for good.
func (m *Mechanism) EndStay(_ *core.HostContext, ag *agent.Agent) {
	m.mu.Lock()
	delete(m.stays, ag.ID)
	m.mu.Unlock()
}

// newVerdict is the verdict on the session ag arrived from.
func newVerdict(hc *core.HostContext, ag *agent.Agent) *core.Verdict {
	prev := lastHost(ag.Route)
	return &core.Verdict{
		Mechanism:   MechanismName,
		Moment:      core.AfterSession,
		CheckedHost: prev,
		CheckedHop:  ag.Hop - 1,
		Checker:     hc.Host.Name(),
		Suspect:     prev,
	}
}

// failed marks v failed for reason.
func failed(v *core.Verdict, reason string, evidence ...string) (*core.Verdict, error) {
	v.OK = false
	v.Reason = reason
	v.Evidence = evidence
	return v, nil
}

// CheckAfterSession verifies the previous host's session signature as
// the node's first arrival check (Fig. 4), and holds the verified
// session for the checker, if there is one. It reports only a failure:
// the checker's verdict is the session's record.
func (s *Seal) CheckAfterSession(_ context.Context, hc *core.HostContext, ag *agent.Agent) (*core.Verdict, error) {
	if ag.Hop == 0 {
		// Freshly launched on this host; nothing to check yet.
		return nil, nil
	}
	v := newVerdict(hc, ag)
	data, ok := ag.GetBaggage(MechanismName)
	if !ok {
		return failed(v, "agent arrived without protocol baggage (stripped or never attached)")
	}
	p, err := parsePayload(data)
	if err != nil {
		return failed(v, fmt.Sprintf("malformed protocol baggage: %v", err))
	}
	// Without a checker nothing would verify a package or a producer
	// against its digests, so bytes riding in either would pass under
	// an intact signature.
	if !s.paired && (p.PkgEnc != nil || !p.Origin) {
		return failed(v, "protocol baggage carries a reference package or producer no checker here reads")
	}
	p.Session.Envelope = envelope(ag)
	if p.Hop != ag.Hop-1 {
		return failed(v, fmt.Sprintf("baggage is for session %d, expected %d (replayed?)", p.Hop, ag.Hop-1))
	}
	// The session's resulting state must be the state that actually
	// arrived, and the previous host must have signed the session over
	// the agent as it arrived. The arrival digest was seeded from the
	// wire bytes during unmarshalling, so this is a cache read, not a
	// rehash.
	if ag.StateDigest() != p.Session.Result {
		return failed(v, "arrived state does not match the previous host's signed resulting state")
	}
	if err := s.verifySession(hc.Host.Registry(), ag, &p); err != nil {
		return failed(v, err.Error())
	}
	if s.paired {
		s.mu.Lock()
		s.stays[ag.ID] = stay{in: p, sealed: true}
		s.mu.Unlock()
	}
	return nil, nil
}

// verifySession checks the checked host's signature over its session
// and the agent as it arrived; p.Session.Envelope must be the arrived
// agent's.
func (sh *shared) verifySession(reg *sigcrypto.Registry, ag *agent.Agent, p *payload) error {
	if err := sh.verify(reg, ag, p.Hop, ag.Route, &p.Session); err != nil {
		return fmt.Errorf("session signature invalid: %v", err)
	}
	if ran := lastHost(ag.Route); p.Session.Sig.Signer != ran {
		return fmt.Errorf("session signed by %q, but session ran on %q", p.Session.Sig.Signer, ran)
	}
	return nil
}

// keep records s as the producer of the session this host runs next.
func (m *shared) keep(ag *agent.Agent, s session) {
	m.mu.Lock()
	m.stays[ag.ID] = stay{producer: s, relayed: true}
	m.mu.Unlock()
}

// CheckAfterSession checks the session the seal verified (Fig. 4).
func (m *Mechanism) CheckAfterSession(ctx context.Context, hc *core.HostContext, ag *agent.Agent) (*core.Verdict, error) {
	if ag.Hop == 0 {
		// Freshly launched on this host; nothing to check yet.
		return nil, nil
	}
	m.mu.Lock()
	st := m.stays[ag.ID]
	m.mu.Unlock()
	if !st.sealed {
		// The seal refused the session and reported why; there is
		// nothing verified to check or to hand on.
		return nil, nil
	}
	p := st.in
	// Keep the checked session before any early return: it produced the
	// initial state of this host's own session. This also clears the
	// arrived payload, which aliases the agent's baggage.
	m.keep(ag, p.Session)

	v := newVerdict(hc, ag)
	prev := v.CheckedHost
	reg := hc.Host.Registry()

	// 1. Sessions on hosts the registry trusts are not re-executed.
	if reg.Trusted(prev) {
		v.OK = true
		v.Reason = "trusted host; session not checked"
		return v, nil
	}

	// 2. Verify the package against the signed session, and the
	// producer's handoff of its initial state. The package is read from
	// its bytes: it is decoded only to re-execute.
	if p.PkgEnc == nil {
		return failed(v, "untrusted session carries no reference package")
	}
	sums, err := core.ScanReferencePackage(p.PkgEnc)
	if err != nil {
		return failed(v, fmt.Sprintf("malformed reference package: %v", err))
	}
	if sums.Hop != p.Hop || string(sums.HostName) != prev {
		return failed(v, fmt.Sprintf("package identifies session %d@%s, expected %d@%s",
			sums.Hop, sums.HostName, p.Hop, prev))
	}
	if sums.Digest != p.Session.Package {
		return failed(v, "package differs from the signed session commitment")
	}
	if sums.Resulting != p.Session.Result {
		return failed(v, "package resulting state differs from the signed commitment")
	}
	if sums.Initial != p.Session.Initial {
		return failed(v, "package initial state differs from the signed commitment")
	}
	if err := m.verifyHandoff(reg, ag, &p); err != nil {
		return failed(v, fmt.Sprintf("initial-state handoff invalid: %v", err))
	}

	// 3. Re-execute the session against the packaged reference data —
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
	pkg, err := core.UnmarshalReferencePackage(p.PkgEnc)
	if err != nil {
		return failed(v, fmt.Sprintf("malformed reference package: %v", err))
	}
	if evidence, err := m.reexecute(ag, pkg, p.Session.Result); err != nil {
		return nil, fmt.Errorf("refproto: re-execution check: %w", err)
	} else if evidence != nil {
		// Full states are available: attach the complete divergence as
		// evidence, so the owner can prove the damage (§5.1).
		return failed(v, "re-execution does not reproduce the claimed resulting state", evidence...)
	}
	v.OK = true
	return v, nil
}

// verifyHandoff checks the producer's side of the checked session's
// initial state: the route's host for the session before it signed
// that session, at its own hop and over the route up to itself, as
// resulting in exactly that state. The agent's first session, and only
// that one, has no producer; the checked host's own session signature
// covers it.
func (m *Mechanism) verifyHandoff(reg *sigcrypto.Registry, ag *agent.Agent, p *payload) error {
	switch {
	case p.Origin && p.Hop != 0:
		return fmt.Errorf("origin handoff for session %d", p.Hop)
	case p.Origin:
		return nil
	case p.Hop == 0:
		return errors.New("producer handoff for session 0")
	case len(ag.Route) < 2:
		return fmt.Errorf("route names no host for session %d", p.Hop-1)
	}
	producer := p.Producer
	producer.Result = p.Session.Initial
	route := ag.Route[:len(ag.Route)-1]
	if err := m.verify(reg, ag, p.Hop-1, route, &producer); err != nil {
		return fmt.Errorf("producer signature by %q: %v", producer.Sig.Signer, err)
	}
	if ran := lastHost(route); producer.Sig.Signer != ran {
		return fmt.Errorf("producer signed by %q, but session %d ran on %q", producer.Sig.Signer, p.Hop-1, ran)
	}
	return nil
}

// reexecute replays the packaged session (host.Replay) and compares
// the outcome with what the package reports: the replayed state with
// result, the signed resulting-state digest the package's state was
// checked against. It returns nil evidence when the replay reproduces
// the reported session, and an error when the package lacks the data a
// replay needs. Comparison is strict: the interpreter is
// single-threaded and byte-deterministic, so an honest session replays
// to exactly the state it reported.
func (m *Mechanism) reexecute(ag *agent.Agent, pkg *core.ReferencePackage, result canon.Digest) ([]string, error) {
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
	if canon.HashState(replayed) != result {
		// The packaged state is read only to show the divergence.
		for _, d := range replayed.Diff(pkg.ResultingState) {
			evidence = append(evidence, "state mismatch: "+d)
		}
	}
	return evidence, nil
}
