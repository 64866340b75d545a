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
// checking host and the checked host". Each session's initial state is
// therefore covered by a dual-signature handoff: the producing host
// signs the state it hands over, and the receiving (checked) host
// countersigns on arrival. A checking host can consequently neither
// forge the initial state a session started from, nor can the checked
// host later repudiate it. Sessions on trusted hosts are not checked
// ("trusted hosts will not attack by definition"), only their result
// signature is verified. Unlike Vigna's hash-only commitments, the
// package carries the complete states, so the owner "is able to prove
// his/her damage in case of a fraud".
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
	// commitment signatures, state digests, the dual-signed handoff —
	// and the session is accepted on that evidence alone; only the
	// input-replay re-execution is skipped. Nil re-executes every
	// untrusted session (the paper's full protocol).
	ReExecGate func(checkedHost string) bool
	// Colluding makes this node's checker accept every session without
	// examining it, while still participating in the protocol (handoff
	// countersignatures, departure packages). It models the paper's
	// documented limitation: "collaboration attacks of two and more
	// consecutive hosts cannot be detected" (§5.1). For attack
	// simulation only.
	Colluding bool
}

// Mechanism is the per-node instance of the example protocol.
type Mechanism struct {
	core.BaseMechanism
	cfg Config

	mu sync.Mutex
	// pending holds, per agent currently on this host, the dual-signed
	// handoff of the state the agent arrived with — the initial state
	// of the session this host is about to run.
	pending map[string]handoff
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
	return &Mechanism{cfg: cfg, pending: make(map[string]handoff)}
}

// Name implements core.Mechanism.
func (m *Mechanism) Name() string { return MechanismName }

// RequestsInitialState declares reference data (Fig. 4).
func (m *Mechanism) RequestsInitialState() {}

// RequestsResultingState declares reference data (Fig. 4).
func (m *Mechanism) RequestsResultingState() {}

// RequestsInput declares reference data (Fig. 4).
func (m *Mechanism) RequestsInput() {}

// handoff is the dual-signed commitment to a session's initial state.
type handoff struct {
	Digest canon.Digest
	// Sigs holds the producer's and the receiver's signatures over the
	// session binding of the digest. At the origin (the launching
	// host's own first session) there is a single origin signature.
	Sigs   []sigcrypto.Signature
	Origin bool
}

// payload is the wire baggage: everything the next host needs to check
// the previous session. It travels in the canonical tuple encoding
// (see appendPayload), not gob: the hot sign→handoff→verify path runs
// once per hop, and gob's per-encoder type negotiation dominated its
// allocation profile.
type payload struct {
	// Hop is the checked session's index.
	Hop int
	// TrustedSkip marks sessions on trusted hosts: no package attached,
	// result signature only.
	TrustedSkip bool
	// PkgEnc is the encoded reference package (initial state, input,
	// resulting state); nil if TrustedSkip.
	PkgEnc []byte
	// PkgSig is the executing host's signature over the package digest.
	PkgSig sigcrypto.Signature
	// ResultDigest commits the resulting state (= the next session's
	// initial state); ResultSig is the executing host's signature over
	// its session binding.
	ResultDigest canon.Digest
	ResultSig    sigcrypto.Signature
	// Handoff dual-signs the *checked* session's initial state.
	Handoff handoff
}

func (m *Mechanism) timeCrypto() func() {
	if m.cfg.Timer == nil {
		return func() {}
	}
	return m.cfg.Timer.Time(stopwatch.PhaseSignVerify)
}

// signBinding signs a session binding assembled in a pooled buffer; the
// binding bytes never outlive the call.
func signBinding(keys *sigcrypto.KeyPair, ag *agent.Agent, role string, hop int, d canon.Digest) sigcrypto.Signature {
	buf := canon.GetBuf()
	msg := ag.AppendSessionBinding((*buf)[:0], role, hop, d)
	sig := keys.Sign(msg)
	*buf = msg
	canon.PutBuf(buf)
	return sig
}

// verifyBinding verifies a signature over a session binding assembled
// in a pooled buffer.
func verifyBinding(reg *sigcrypto.Registry, ag *agent.Agent, role string, hop int, d canon.Digest, sig sigcrypto.Signature) error {
	buf := canon.GetBuf()
	msg := ag.AppendSessionBinding((*buf)[:0], role, hop, d)
	err := reg.Verify(msg, sig)
	*buf = msg
	canon.PutBuf(buf)
	return err
}

// Payload wire layout: one canonical tuple whose field count varies
// with the number of handoff signatures.
//
//	0  format label ("refproto-payload")
//	1  hop, 8-byte big-endian
//	2  flags, 1 byte (bit0 TrustedSkip, bit1 handoff origin)
//	3  package encoding (empty when TrustedSkip)
//	4  package signature: signer
//	5  package signature: bytes
//	6  resulting-state digest
//	7  resulting-state signature: signer
//	8  resulting-state signature: bytes
//	9  handoff digest
//	10+ one (signer, bytes) field pair per handoff signature
const (
	payloadLabel     = "refproto-payload"
	payloadMinFields = 10
	flagTrustedSkip  = 1 << 0
	flagOrigin       = 1 << 1
)

// appendPayload appends p's canonical encoding to dst.
func appendPayload(dst []byte, p *payload) []byte {
	var hopBuf [8]byte
	binary.BigEndian.PutUint64(hopBuf[:], uint64(p.Hop))
	var flags byte
	if p.TrustedSkip {
		flags |= flagTrustedSkip
	}
	if p.Handoff.Origin {
		flags |= flagOrigin
	}
	fields := make([][]byte, 0, payloadMinFields+2*len(p.Handoff.Sigs))
	fields = append(fields,
		[]byte(payloadLabel),
		hopBuf[:],
		[]byte{flags},
		p.PkgEnc,
		[]byte(p.PkgSig.Signer),
		p.PkgSig.Sig,
		p.ResultDigest[:],
		[]byte(p.ResultSig.Signer),
		p.ResultSig.Sig,
		p.Handoff.Digest[:],
	)
	for _, s := range p.Handoff.Sigs {
		fields = append(fields, []byte(s.Signer), s.Sig)
	}
	return canon.AppendTuple(dst, fields...)
}

// parsePayload decodes a payload produced by appendPayload. The
// returned payload's byte slices alias data.
func parsePayload(data []byte) (payload, error) {
	var p payload
	fields, err := canon.ParseTuple(data)
	if err != nil {
		return p, err
	}
	if len(fields) < payloadMinFields || (len(fields)-payloadMinFields)%2 != 0 {
		return p, fmt.Errorf("%w: payload has %d fields", canon.ErrMalformed, len(fields))
	}
	if string(fields[0]) != payloadLabel {
		return p, fmt.Errorf("%w: payload label %q", canon.ErrMalformed, fields[0])
	}
	if len(fields[1]) != 8 || len(fields[2]) != 1 {
		return p, fmt.Errorf("%w: payload header", canon.ErrMalformed)
	}
	if len(fields[6]) != len(canon.Digest{}) || len(fields[9]) != len(canon.Digest{}) {
		return p, fmt.Errorf("%w: payload digest length", canon.ErrMalformed)
	}
	p.Hop = int(binary.BigEndian.Uint64(fields[1]))
	flags := fields[2][0]
	p.TrustedSkip = flags&flagTrustedSkip != 0
	p.Handoff.Origin = flags&flagOrigin != 0
	if len(fields[3]) > 0 {
		p.PkgEnc = fields[3]
	}
	p.PkgSig = sigcrypto.Signature{Signer: string(fields[4]), Sig: fields[5]}
	p.ResultDigest = canon.Digest(fields[6])
	p.ResultSig = sigcrypto.Signature{Signer: string(fields[7]), Sig: fields[8]}
	p.Handoff.Digest = canon.Digest(fields[9])
	for i := payloadMinFields; i < len(fields); i += 2 {
		p.Handoff.Sigs = append(p.Handoff.Sigs, sigcrypto.Signature{
			Signer: string(fields[i]),
			Sig:    fields[i+1],
		})
	}
	return p, nil
}

// PrepareDeparture packages the just-executed session for checking by
// the next host.
func (m *Mechanism) PrepareDeparture(_ context.Context, hc *core.HostContext, ag *agent.Agent, rec *host.SessionRecord) error {
	keys := hc.Host.Keys()
	p := payload{Hop: rec.Hop}

	// Resulting-state commitment: always present; it authenticates the
	// next session's initial state. The record's memoized digest means
	// the resulting state is hashed once per session no matter how many
	// mechanisms commit to it.
	p.ResultDigest = rec.ResultingDigest()
	func() {
		defer m.timeCrypto()()
		p.ResultSig = signBinding(keys, ag, "resulting", rec.Hop, p.ResultDigest)
	}()

	// Handoff for the session just executed: retrieve the pending
	// dual-signed initial state recorded at arrival, or self-sign as
	// origin if this host launched the agent.
	m.mu.Lock()
	h, ok := m.pending[ag.ID]
	delete(m.pending, ag.ID)
	m.mu.Unlock()
	if !ok {
		h = handoff{Digest: rec.InitialDigest(), Origin: true}
		func() {
			defer m.timeCrypto()()
			h.Sigs = []sigcrypto.Signature{signBinding(keys, ag, "initial", rec.Hop, h.Digest)}
		}()
	}
	p.Handoff = h

	if hc.Host.Trusted() {
		// Optimization (§5.1): trusted sessions are not checked.
		p.TrustedSkip = true
	} else {
		pkg := core.BuildReferencePackage(m, rec, nil)
		enc, err := pkg.Marshal()
		if err != nil {
			return fmt.Errorf("refproto: %w", err)
		}
		p.PkgEnc = enc
		d := pkg.Digest()
		func() {
			defer m.timeCrypto()()
			p.PkgSig = signBinding(keys, ag, "package", rec.Hop, d)
		}()
	}

	// Encode into a pooled buffer; SetBaggage copies, so the scratch
	// goes straight back to the pool.
	buf := canon.GetBuf()
	enc := appendPayload((*buf)[:0], &p)
	ag.SetBaggage(MechanismName, enc)
	*buf = enc
	canon.PutBuf(buf)
	return nil
}

// EndStay implements core.StayEnder. The handoff recorded at arrival is
// consumed when the agent departs; where its stay ends instead — the
// journey completed here, the agent was quarantined, its session
// failed — it is dropped, or pending would keep it for good.
func (m *Mechanism) EndStay(_ *core.HostContext, ag *agent.Agent) {
	m.mu.Lock()
	delete(m.pending, ag.ID)
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
		// A colluding checker vouches for whatever it received: it
		// countersigns the arrived state and reports nothing, so its own
		// departure package looks perfectly regular to the host after it.
		arrived := ag.StateDigest()
		var mySig sigcrypto.Signature
		func() {
			defer m.timeCrypto()()
			mySig = signBinding(hc.Host.Keys(), ag, "initial", ag.Hop, arrived)
		}()
		m.mu.Lock()
		m.pending[ag.ID] = handoff{Digest: arrived, Sigs: []sigcrypto.Signature{p.ResultSig, mySig}}
		m.mu.Unlock()
		return nil, nil
	}
	if p.Hop != ag.Hop-1 {
		return fail(fmt.Sprintf("baggage is for session %d, expected %d (replayed?)", p.Hop, ag.Hop-1))
	}

	reg := hc.Host.Registry()

	// 1. The resulting-state commitment must match the state that
	// actually arrived, and be signed by the previous host. The arrival
	// digest was seeded from the wire bytes during unmarshalling, so
	// this is a cache read, not a rehash.
	arrived := ag.StateDigest()
	if arrived != p.ResultDigest {
		return fail("arrived state does not match the previous host's signed resulting state")
	}
	var sigErr error
	func() {
		defer m.timeCrypto()()
		sigErr = verifyBinding(reg, ag, "resulting", p.Hop, p.ResultDigest, p.ResultSig)
	}()
	if sigErr != nil {
		return fail(fmt.Sprintf("resulting-state signature invalid: %v", sigErr))
	}
	if p.ResultSig.Signer != prev {
		return fail(fmt.Sprintf("resulting state signed by %q, but session ran on %q", p.ResultSig.Signer, prev))
	}

	// Record the dual-signed handoff for this host's own session before
	// any early return: the arrived state is this session's initial
	// state, signed by the producer (prev) and countersigned by us.
	var mySig sigcrypto.Signature
	func() {
		defer m.timeCrypto()()
		mySig = signBinding(hc.Host.Keys(), ag, "initial", ag.Hop, arrived)
	}()
	m.mu.Lock()
	m.pending[ag.ID] = handoff{
		Digest: arrived,
		Sigs:   []sigcrypto.Signature{p.ResultSig, mySig},
	}
	m.mu.Unlock()

	// 2. Trusted sessions are not re-executed.
	if p.TrustedSkip {
		// The claim "I am trusted" must hold in the checker's own
		// deployment: fail if the route says otherwise is not possible
		// here (trust is configured per host); we accept the skip only
		// for hosts the checker's platform also considers trusted. In
		// this reproduction trust is a deployment-wide host attribute,
		// so the signature check above suffices.
		v.OK = true
		v.Reason = "trusted host; session not checked"
		return v, nil
	}

	// 3. Verify the package: signature, internal consistency, and the
	// dual-signed initial state.
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
	pkgDigest := pkg.Digest()
	func() {
		defer m.timeCrypto()()
		sigErr = verifyBinding(reg, ag, "package", p.Hop, pkgDigest, p.PkgSig)
	}()
	if sigErr != nil {
		return fail(fmt.Sprintf("package signature invalid: %v", sigErr))
	}
	if p.PkgSig.Signer != prev {
		return fail(fmt.Sprintf("package signed by %q, not by executing host %q", p.PkgSig.Signer, prev))
	}

	// The package's resulting state must be the one committed to us.
	if canon.HashState(pkg.ResultingState) != p.ResultDigest {
		return fail("package resulting state differs from the signed commitment")
	}

	// The package's initial state must carry the dual-signed handoff:
	// producer + checked host (or a single origin signature).
	if canon.HashState(pkg.InitialState) != p.Handoff.Digest {
		return fail("package initial state differs from the dual-signed handoff")
	}
	if err := m.verifyHandoff(hc, ag, p.Hop, prev, p.Handoff); err != nil {
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

// verifyHandoff checks the dual signature on the checked session's
// initial state.
func (m *Mechanism) verifyHandoff(hc *core.HostContext, ag *agent.Agent, hop int, checkedHost string, h handoff) error {
	reg := hc.Host.Registry()
	defer m.timeCrypto()()
	if h.Origin {
		if len(h.Sigs) != 1 {
			return fmt.Errorf("origin handoff carries %d signatures, want 1", len(h.Sigs))
		}
		if h.Sigs[0].Signer != checkedHost {
			return fmt.Errorf("origin handoff signed by %q, want launching host %q", h.Sigs[0].Signer, checkedHost)
		}
		return verifyBinding(reg, ag, "initial", hop, h.Digest, h.Sigs[0])
	}
	if len(h.Sigs) < 2 {
		return fmt.Errorf("handoff carries %d signatures, want producer and receiver", len(h.Sigs))
	}
	receiverSigned := false
	for _, sig := range h.Sigs {
		// The checked host countersigned the digest as its "initial"
		// state; the producer signed the same digest as the *previous*
		// hop's "resulting" state. Each signature is tried under its
		// signer's binding first and the other one second, so the
		// accepted set is that of trying both in either order.
		receiver := sig.Signer == checkedHost
		first, second := "resulting", "initial"
		if receiver {
			first, second = second, first
		}
		if err := verifyRole(reg, ag, first, hop, h.Digest, sig); err != nil {
			if verifyRole(reg, ag, second, hop, h.Digest, sig) != nil {
				return fmt.Errorf("signature by %q invalid under both bindings: %v", sig.Signer, err)
			}
		}
		receiverSigned = receiverSigned || receiver
	}
	if !receiverSigned {
		return fmt.Errorf("checked host %q did not countersign its initial state", checkedHost)
	}
	return nil
}

// verifyRole verifies a handoff signature over the checked session's
// initial-state digest under one of its two bindings: "initial" at the
// checked hop, or "resulting" at the hop before it.
func verifyRole(reg *sigcrypto.Registry, ag *agent.Agent, role string, hop int, d canon.Digest, sig sigcrypto.Signature) error {
	if role == "resulting" {
		hop--
	}
	return verifyBinding(reg, ag, role, hop, d, sig)
}
