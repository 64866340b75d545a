// Package vigna implements the execution-traces protocol of Vigna's
// "Cryptographic Traces for Mobile Agents" as analysed by the paper
// (§3.3). Its place in the framework's attribute space: moment = after
// the task, and only when the owner suspects fraud; reference data =
// execution log (trace) + input, retained at each host, with signed
// hash commitments travelling in the agent; algorithm = re-execution.
//
// Per session, the executing host records a trace and the input log,
// stores both locally ("the trace itself has to be stored by the
// host"), and appends a signed commitment — hash of (trace, input) and
// hash of the resulting state — to the agent. When the agent returns
// and the owner suspects fraud, the owner audits: fetch each host's
// trace over the network, verify it against the committed hash,
// re-execute session by session from the launch state (host.Replay, the
// re-execution refproto's check runs too), and compare
// each resulting state hash with the commitment. The first host whose
// committed hash cannot be reproduced is the cheater.
//
// Two properties the paper highlights are visible in the API: the
// owner "can only determine which host played wrong, but not the
// difference in the agent state as only hashes of the final states
// exist" (Report carries digests, not states — contrast with refproto),
// and the approach "detects all attacks that result in a different
// state as long as the host does not lie about the input to the
// agent".
package vigna

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/agent"
	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/shardstore"
	"repro/internal/sigcrypto"
	"repro/internal/transport"
	"repro/internal/value"
)

// MechanismName is the baggage key, call namespace, and verdict label.
const MechanismName = "vigna"

// Commitment is one session's signed record in the travelling chain.
type Commitment struct {
	Host        string
	Hop         int
	Entry       string
	ResultEntry string
	// PkgHash commits the retained (trace, input) package.
	PkgHash canon.Digest
	// StateHash commits the resulting agent state.
	StateHash canon.Digest
	Sig       sigcrypto.Signature
}

// bindingBytes is what the commitment signature covers.
func (c *Commitment) bindingBytes(agentID string) []byte {
	return canon.Tuple(
		[]byte("vigna-commitment"),
		[]byte(agentID),
		[]byte(c.Host),
		[]byte(fmt.Sprintf("%d", c.Hop)),
		[]byte(c.Entry),
		[]byte(c.ResultEntry),
		c.PkgHash[:],
		c.StateHash[:],
	)
}

// Mechanism is the per-node protocol instance. Hosts running it must
// set host.Config.RecordTrace.
type Mechanism struct {
	core.BaseMechanism

	// store retains the encoded reference package (trace+input) per
	// (agent, hop), sharded so concurrent departures of distinct agents
	// never serialize on one mutex.
	store *shardstore.Store[[]byte]
}

// storeKey composes the (agent, hop) retention key.
func storeKey(agentID string, hop int) string {
	return shardstore.Key(agentID, strconv.Itoa(hop))
}

var (
	_ core.Mechanism             = (*Mechanism)(nil)
	_ core.ExecutionLogRequester = (*Mechanism)(nil)
	_ core.InputRequester        = (*Mechanism)(nil)
	_ core.CallHandler           = (*Mechanism)(nil)
)

// New builds the mechanism with in-memory retention.
func New() *Mechanism {
	return &Mechanism{store: shardstore.New[[]byte](shardstore.Config[[]byte]{})}
}

// NewDurable builds the mechanism with its retained (trace, input)
// packages persisted to the backend, replaying any prior retention
// first. The protocol's deterrent is only as strong as the host's
// ability to answer an audit fetch — "the trace itself has to be
// stored by the host" — so a restart must not amnesty past sessions.
// The mechanism owns the backend; Close releases it. onError receives
// the backend's first write failure (shardstore.PersistConfig.OnError)
// and may be nil.
func NewDurable(backend shardstore.Backend, onError func(error)) (*Mechanism, error) {
	store, err := shardstore.NewPersistent(shardstore.Config[[]byte]{}, shardstore.PersistConfig[[]byte]{
		Backend: backend,
		Codec:   shardstore.BytesCodec(),
		OnError: onError,
	})
	if err != nil {
		return nil, fmt.Errorf("vigna: recovering retained packages: %w", err)
	}
	return &Mechanism{store: store}, nil
}

// Close flushes and closes the retention backend; a no-op (and nil)
// for in-memory mechanisms.
func (m *Mechanism) Close() error { return m.store.Close() }

// Name implements core.Mechanism.
func (m *Mechanism) Name() string { return MechanismName }

// RequestsExecutionLog declares reference data (Fig. 4).
func (m *Mechanism) RequestsExecutionLog() {}

// RequestsInput declares reference data (Fig. 4).
func (m *Mechanism) RequestsInput() {}

// PrepareDeparture retains (trace, input) locally and appends a signed
// commitment to the agent's chain.
func (m *Mechanism) PrepareDeparture(_ context.Context, hc *core.HostContext, ag *agent.Agent, rec *host.SessionRecord) error {
	if rec.Trace.Len() == 0 && rec.Outcome.Steps > 0 {
		return fmt.Errorf("vigna: host %s does not record traces (set host.Config.RecordTrace)", rec.HostName)
	}
	enc, sums, err := core.PackageSession(m, rec, nil)
	if err != nil {
		return fmt.Errorf("vigna: %w", err)
	}
	m.store.Put(storeKey(ag.ID, rec.Hop), enc)

	c := Commitment{
		Host:        rec.HostName,
		Hop:         rec.Hop,
		Entry:       rec.Entry,
		ResultEntry: rec.ResultEntry,
		PkgHash:     sums.Digest,
		StateHash:   rec.ResultingDigest(),
	}
	c.Sig = hc.Host.Keys().Sign(c.bindingBytes(ag.ID))

	chain, err := ChainFromAgent(ag)
	if err != nil {
		return fmt.Errorf("vigna: reading chain: %w", err)
	}
	return AttachChain(ag, append(chain, c))
}

// CheckAfterSession verifies that the arrived state matches the chain
// head — the receipt exchange that "prevents the following host from
// pretending to have received a different initial agent state".
func (m *Mechanism) CheckAfterSession(_ context.Context, hc *core.HostContext, ag *agent.Agent) (*core.Verdict, error) {
	if ag.Hop == 0 {
		return nil, nil
	}
	chain, err := ChainFromAgent(ag)
	if err != nil || len(chain) == 0 {
		prev := ""
		if len(ag.Route) > 0 {
			prev = ag.Route[len(ag.Route)-1]
		}
		return &core.Verdict{
			Mechanism: MechanismName, Moment: core.AfterSession,
			CheckedHost: prev, CheckedHop: ag.Hop - 1, Checker: hc.Host.Name(),
			OK: false, Suspect: prev,
			Reason: "commitment chain missing or malformed",
		}, nil
	}
	head := chain[len(chain)-1]
	if head.StateHash != ag.StateDigest() {
		return &core.Verdict{
			Mechanism: MechanismName, Moment: core.AfterSession,
			CheckedHost: head.Host, CheckedHop: head.Hop, Checker: hc.Host.Name(),
			OK: false, Suspect: head.Host,
			Reason: "arrived state does not match the committed resulting state",
		}, nil
	}
	return nil, nil // silent unless something is off: checks happen on suspicion
}

// HandleCall serves audit fetches: method "fetch" with an encoded
// FetchRequest returns the retained (trace, input) package.
func (m *Mechanism) HandleCall(_ context.Context, hc *core.HostContext, method string, body []byte) ([]byte, error) {
	if method != "fetch" {
		return nil, fmt.Errorf("%w: vigna/%s", transport.ErrUnknownMethod, method)
	}
	req, err := decodeFetch(body)
	if err != nil {
		return nil, fmt.Errorf("vigna: malformed fetch request: %w", err)
	}
	enc, ok := m.store.Get(storeKey(req.AgentID, req.Hop))
	if !ok {
		return nil, fmt.Errorf("vigna: no retained trace for agent %q hop %d", req.AgentID, req.Hop)
	}
	return enc, nil
}

// FetchRequest asks a host for its retained session package.
type FetchRequest struct {
	AgentID string
	Hop     int
}

// Wire layouts (canon.Tuple framing). Every host on the route writes
// the chain and any peer can send a fetch, so both decoders check the
// total size and the record count before parsing and every field
// against its bound; the encoders refuse whatever the decoders reject.
//
//	chain      := Tuple(chainLabel, commitment, commitment, ...)
//	commitment := Tuple(host, hop8, entry, resultEntry, pkgHash32,
//	                    stateHash32, sigSigner, sigBytes)
//	fetch      := Tuple(fetchLabel, agentID, hop8)
const (
	chainLabel = "vigna-chain"
	fetchLabel = "vigna-fetch"

	maxChainBytes = 4 << 20
	maxChainLen   = 4096
	// maxFetchBytes is the largest fetch the field bounds allow.
	maxFetchBytes = 6 + 3*4 + len(fetchLabel) + canon.MaxNameLen + 8
)

// commitmentFields is a commitment's arity on the wire.
const commitmentFields = 8

// encodeChain renders a commitment chain in its baggage form, refusing
// what decodeChain would reject.
func encodeChain(chain []Commitment) ([]byte, error) {
	if len(chain) > maxChainLen {
		return nil, fmt.Errorf("vigna: %d commitments over %d: %w", len(chain), maxChainLen, canon.ErrMalformed)
	}
	recs := make([][]byte, len(chain))
	for i := range chain {
		c := &chain[i]
		if len(c.Host) > canon.MaxNameLen || len(c.Entry) > canon.MaxNameLen || len(c.ResultEntry) > canon.MaxNameLen {
			return nil, fmt.Errorf("vigna: commitment %d name over bound: %w", i, canon.ErrMalformed)
		}
		fields, err := c.Sig.AppendWire([][]byte{
			[]byte(c.Host),
			canon.Uint64Field(uint64(c.Hop)),
			[]byte(c.Entry),
			[]byte(c.ResultEntry),
			c.PkgHash[:],
			c.StateHash[:],
		})
		if err != nil {
			return nil, fmt.Errorf("vigna: commitment %d: %w", i, err)
		}
		recs[i] = canon.Tuple(fields...)
	}
	out, err := canon.List(chainLabel, maxChainBytes, maxChainLen, recs)
	if err != nil {
		return nil, fmt.Errorf("vigna: chain: %w", err)
	}
	return out, nil
}

// decodeChain parses a commitment chain; every rejection wraps
// canon.ErrMalformed.
func decodeChain(data []byte) ([]Commitment, error) {
	s, err := canon.ScanList(data, chainLabel, maxChainBytes, maxChainLen)
	if err != nil {
		return nil, err
	}
	var chain []Commitment
	if s.Len() > 0 {
		chain = make([]Commitment, 0, s.Len())
	}
	for s.Len() > 0 {
		r, err := canon.ScanTuple(s.Field(maxChainBytes))
		if err != nil {
			return nil, err
		}
		if r.Len() != commitmentFields {
			return nil, fmt.Errorf("%w: commitment has %d fields", canon.ErrMalformed, r.Len())
		}
		c := Commitment{
			Host:        string(r.Field(canon.MaxNameLen)),
			Hop:         int(r.Uint64()),
			Entry:       string(r.Field(canon.MaxNameLen)),
			ResultEntry: string(r.Field(canon.MaxNameLen)),
			PkgHash:     r.Digest(),
			StateHash:   r.Digest(),
		}
		sigcrypto.ScanSignature(&r, &c.Sig)
		if err := r.End(); err != nil {
			return nil, err
		}
		chain = append(chain, c)
	}
	if err := s.End(); err != nil {
		return nil, err
	}
	return chain, nil
}

// encodeFetch renders a fetch request, refusing what decodeFetch would
// reject.
func encodeFetch(req FetchRequest) ([]byte, error) {
	if len(req.AgentID) > canon.MaxNameLen {
		return nil, fmt.Errorf("vigna: agent ID over %d bytes: %w", canon.MaxNameLen, canon.ErrMalformed)
	}
	return canon.Tuple([]byte(fetchLabel), []byte(req.AgentID), canon.Uint64Field(uint64(req.Hop))), nil
}

// decodeFetch parses a fetch request; every rejection wraps
// canon.ErrMalformed.
func decodeFetch(data []byte) (FetchRequest, error) {
	s, err := canon.ScanList(data, fetchLabel, maxFetchBytes, 2)
	if err != nil {
		return FetchRequest{}, err
	}
	req := FetchRequest{AgentID: string(s.Field(canon.MaxNameLen)), Hop: int(s.Uint64())}
	if err := s.End(); err != nil {
		return FetchRequest{}, err
	}
	return req, nil
}

// AttachChain encodes a commitment chain into the agent's baggage,
// replacing any existing one.
func AttachChain(ag *agent.Agent, chain []Commitment) error {
	enc, err := encodeChain(chain)
	if err != nil {
		return err
	}
	ag.SetBaggage(MechanismName, enc)
	return nil
}

// ChainFromAgent decodes the commitment chain from agent baggage.
func ChainFromAgent(ag *agent.Agent) ([]Commitment, error) {
	data, ok := ag.GetBaggage(MechanismName)
	if !ok {
		return nil, nil
	}
	chain, err := decodeChain(data)
	if err != nil {
		return nil, fmt.Errorf("vigna: decoding chain: %w", err)
	}
	return chain, nil
}

// Report is the audit outcome. It carries digests, not full states:
// "only hashes of the final states exist".
type Report struct {
	OK bool
	// Cheater and CheatHop identify the first inconsistent session.
	Cheater  string
	CheatHop int
	Reason   string
	// SessionsChecked is the number of sessions successfully verified
	// (before the cheater, if any).
	SessionsChecked int
	// TotalTraceEntries counts trace entries fetched and re-executed —
	// the audit's cost, linear in the agent's running time.
	TotalTraceEntries int
	Details           []string
}

// ErrNoChain is returned when the agent carries no commitments.
var ErrNoChain = errors.New("vigna: agent carries no commitment chain")

// AuditConfig parameterizes an audit.
type AuditConfig struct {
	Net      transport.Network
	Registry *sigcrypto.Registry
	// LaunchState and LaunchEntry are the agent's state and entry as
	// launched by the owner — the root of the re-execution chain.
	LaunchState value.State
	LaunchEntry string
}

// Audit re-checks an agent's whole journey from its commitment chain,
// fetching retained traces from the visited hosts and re-executing
// session by session. It is invoked by the owner "when a fraud is
// suspected". ctx bounds the network fetches; cancellation between
// sessions aborts the audit.
func Audit(ctx context.Context, cfg AuditConfig, ag *agent.Agent) (*Report, error) {
	chain, err := ChainFromAgent(ag)
	if err != nil {
		return nil, err
	}
	if len(chain) == 0 {
		return nil, ErrNoChain
	}
	prog, err := ag.Program()
	if err != nil {
		return nil, fmt.Errorf("vigna: audit: %w", err)
	}

	rep := &Report{}
	blame := func(c Commitment, reason string) *Report {
		rep.OK = false
		rep.Cheater = c.Host
		rep.CheatHop = c.Hop
		rep.Reason = reason
		return rep
	}

	state := cfg.LaunchState.Clone()
	entry := cfg.LaunchEntry
	for i, c := range chain {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("vigna: audit: %w", err)
		}
		// Chain continuity.
		if c.Hop != i {
			return blame(c, fmt.Sprintf("commitment claims hop %d at position %d", c.Hop, i)), nil
		}
		if c.Entry != entry {
			return blame(c, fmt.Sprintf("session entry %q does not continue previous session (%q expected)", c.Entry, entry)), nil
		}
		// Signature.
		if err := cfg.Registry.Verify(c.bindingBytes(ag.ID), c.Sig); err != nil {
			return blame(c, fmt.Sprintf("commitment signature invalid: %v", err)), nil
		}
		if c.Sig.Signer != c.Host {
			return blame(c, fmt.Sprintf("commitment signed by %q, not by %q", c.Sig.Signer, c.Host)), nil
		}
		// Fetch the retained trace+input and verify against the
		// commitment ("computes a hash of the received trace and
		// compares").
		req, err := encodeFetch(FetchRequest{AgentID: ag.ID, Hop: c.Hop})
		if err != nil {
			return nil, err
		}
		resp, err := cfg.Net.Call(ctx, c.Host, MechanismName+"/fetch", req)
		if err != nil {
			return blame(c, fmt.Sprintf("host refused audit fetch: %v", err)), nil
		}
		// A full node wraps mechanism replies in the urgent envelope;
		// tolerant unwrap so an honest host is never blamed for the
		// baggage its node attached.
		resp, _ = transport.OpenReply(resp)
		sums, err := core.ScanReferencePackage(resp)
		if err != nil {
			return blame(c, fmt.Sprintf("returned package malformed: %v", err)), nil
		}
		if sums.Digest != c.PkgHash {
			return blame(c, "returned trace does not match the committed hash"), nil
		}
		// The scan accepted it, so it decodes: the replay needs values.
		pkg, err := core.UnmarshalReferencePackage(resp)
		if err != nil {
			return nil, err
		}
		if pkg.Trace != nil {
			rep.TotalTraceEntries += pkg.Trace.Len()
		}
		// Re-execute from the chained state with the recorded input.
		replayed, nextEntry, unconsumed, err := host.Replay(prog, entry, state, pkg.Input, nil)
		if err != nil {
			return blame(c, fmt.Sprintf("re-execution with recorded input fails: %v", err)), nil
		}
		if unconsumed != 0 {
			return blame(c, fmt.Sprintf("recorded input has %d unconsumed records", unconsumed)), nil
		}
		if canon.HashState(replayed) != c.StateHash {
			return blame(c, "re-executed state hash differs from committed resulting state"), nil
		}
		if nextEntry != c.ResultEntry {
			return blame(c, fmt.Sprintf("re-execution continues at %q, commitment claims %q", nextEntry, c.ResultEntry)), nil
		}
		state, entry = replayed, nextEntry
		rep.SessionsChecked++
		rep.Details = append(rep.Details, fmt.Sprintf("session %d@%s verified (state %s)", c.Hop, c.Host, c.StateHash))
	}
	rep.OK = true
	return rep, nil
}
