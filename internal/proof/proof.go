// Package proof implements the proof-verification mechanism the paper
// analyses in §3.4: "proofs ... consist of some execution information
// and the final result. The idea now is that there exists a more
// efficient way to check the computation by checking the proof than by
// recomputing the execution", checking "only constantly many bits of
// the proof".
//
// SUBSTITUTION (see DESIGN.md §2). The literature's holographic/PCP
// proofs are set aside by the paper itself because "currently, only
// NP-hard algorithms are known to construct holographic proofs". This
// reproduction therefore substitutes a Merkle-committed trace with
// random spot-checking, which preserves the mechanism's *interface and
// cost profile* — commit once, verify by opening O(k·log n) bytes
// instead of re-executing O(n) statements, with any post-commitment
// tampering of an opened entry detected — but NOT the completeness of
// real PCPs: a prover who commits to an internally consistent but
// wrong trace passes spot checks. The benchmark series D quantifies
// the verification-cost asymmetry, which is the property the paper's
// analysis turns on.
//
// In the framework's attribute space: moment = after the task (proofs
// are "sent to the agent originator, which checks the proofs after the
// agent finishes", per Biehl/Meyer/Wetzel); reference data = none at
// check time ("proofs do not need reference data as parameters, as
// they include all relevant data"); algorithm = proofs.
package proof

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"math/big"
	"sync"

	"repro/internal/agent"
	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/sigcrypto"
	"repro/internal/trace"
	"repro/internal/transport"
)

// MechanismName is the baggage key and call namespace.
const MechanismName = "proof"

// Commitment is a host's signed proof commitment for one session.
type Commitment struct {
	Host      string
	Hop       int
	Entry     string
	Root      canon.Digest // Merkle root over trace entries
	N         int          // number of trace entries
	StateHash canon.Digest // resulting state
	Sig       sigcrypto.Signature
}

func (c *Commitment) bindingBytes(agentID string) []byte {
	return canon.Tuple(
		[]byte("proof-commitment"),
		[]byte(agentID),
		[]byte(c.Host),
		[]byte(fmt.Sprintf("%d", c.Hop)),
		[]byte(c.Entry),
		c.Root[:],
		[]byte(fmt.Sprintf("%d", c.N)),
		c.StateHash[:],
	)
}

// Opening is a prover's answer to one spot-check query.
type Opening struct {
	Index int
	Entry trace.Entry
	Path  []PathElem
}

// OpenRequest asks a prover to open trace positions.
type OpenRequest struct {
	AgentID string
	Hop     int
	Indices []int
}

// Mechanism is the per-node protocol instance: it commits to a Merkle
// tree over the session trace at departure and answers open requests.
// Hosts running it must set host.Config.RecordTrace.
type Mechanism struct {
	core.BaseMechanism

	mu    sync.Mutex
	store map[storeKey]storedProof
}

type storeKey struct {
	agentID string
	hop     int
}

type storedProof struct {
	trace trace.Trace
	tree  *Tree
}

var (
	_ core.Mechanism             = (*Mechanism)(nil)
	_ core.ExecutionLogRequester = (*Mechanism)(nil)
	_ core.CallHandler           = (*Mechanism)(nil)
)

// New builds the mechanism.
func New() *Mechanism {
	return &Mechanism{store: make(map[storeKey]storedProof)}
}

// Name implements core.Mechanism.
func (m *Mechanism) Name() string { return MechanismName }

// RequestsExecutionLog declares reference data (Fig. 4).
func (m *Mechanism) RequestsExecutionLog() {}

// PrepareDeparture builds and signs the proof commitment.
func (m *Mechanism) PrepareDeparture(_ context.Context, hc *core.HostContext, ag *agent.Agent, rec *host.SessionRecord) error {
	if rec.Trace.Len() == 0 {
		return fmt.Errorf("proof: host %s records no trace (set host.Config.RecordTrace)", rec.HostName)
	}
	leaves := make([]canon.Digest, rec.Trace.Len())
	for i, e := range rec.Trace.Entries {
		leaves[i] = trace.EntryDigest(e)
	}
	tree, err := BuildTree(leaves)
	if err != nil {
		return fmt.Errorf("proof: %w", err)
	}
	m.mu.Lock()
	m.store[storeKey{ag.ID, rec.Hop}] = storedProof{trace: rec.Trace, tree: tree}
	m.mu.Unlock()

	c := Commitment{
		Host:      rec.HostName,
		Hop:       rec.Hop,
		Entry:     rec.Entry,
		Root:      tree.Root(),
		N:         tree.N(),
		StateHash: rec.ResultingDigest(),
	}
	c.Sig = hc.Host.Keys().Sign(c.bindingBytes(ag.ID))

	chain, err := ChainFromAgent(ag)
	if err != nil {
		return fmt.Errorf("proof: reading chain: %w", err)
	}
	return AttachChain(ag, append(chain, c))
}

// HandleCall answers "open" requests with Merkle openings.
func (m *Mechanism) HandleCall(_ context.Context, hc *core.HostContext, method string, body []byte) ([]byte, error) {
	if method != "open" {
		return nil, fmt.Errorf("%w: proof/%s", transport.ErrUnknownMethod, method)
	}
	req, err := decodeOpen(body)
	if err != nil {
		return nil, fmt.Errorf("proof: malformed open request: %w", err)
	}
	m.mu.Lock()
	sp, ok := m.store[storeKey{req.AgentID, req.Hop}]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("proof: no stored proof for agent %q hop %d", req.AgentID, req.Hop)
	}
	openings := make([]Opening, 0, len(req.Indices))
	for _, i := range req.Indices {
		if i < 0 || i >= sp.trace.Len() {
			return nil, fmt.Errorf("proof: index %d out of range", i)
		}
		path, err := sp.tree.Open(i)
		if err != nil {
			return nil, err
		}
		openings = append(openings, Opening{Index: i, Entry: sp.trace.Entries[i], Path: path})
	}
	return encodeOpenings(openings)
}

// Wire layouts (canon.Tuple framing). Every host on the route writes
// the chain, and open requests and their replies cross the network, so
// each decoder checks the total size and the record count before
// parsing and every field against its bound; the encoders refuse
// whatever the decoders reject. Index lists and opening paths travel
// packed: 8-byte big-endian indices, 32-byte siblings.
//
//	chain      := Tuple(chainLabel, commitment, commitment, ...)
//	commitment := Tuple(host, hop8, entry, root32, n8, stateHash32,
//	                    sigSigner, sigBytes)
//	open       := Tuple(openLabel, agentID, hop8, indices)
//	openings   := Tuple(openingsLabel, opening, opening, ...)
//	opening    := Tuple(index8, entry, siblings)
//
// entry is the opened trace entry's wire form (trace.AppendEntry),
// which is also its Merkle leaf preimage.
const (
	chainLabel    = "proof-chain"
	openLabel     = "proof-open"
	openingsLabel = "proof-openings"

	maxChainBytes = 4 << 20
	maxChainLen   = 4096
	// maxOpenings bounds the positions one request may open; a full
	// recheck opens every entry of a session's trace.
	maxOpenings = 1 << 20
	// maxOpenBytes is the largest request the field bounds allow.
	maxOpenBytes     = 6 + 4*4 + len(openLabel) + canon.MaxNameLen + 8 + 8*maxOpenings
	maxOpeningsBytes = 128 << 20
	maxEntryEncLen   = 4 << 20
	// maxPathLen bounds an opening path: a tree over 2^64 leaves.
	maxPathLen = 64
)

// commitmentFields and openingFields are the records' wire arities.
const (
	commitmentFields = 8
	openingFields    = 3
)

// encodeChain renders a commitment chain, refusing what decodeChain
// would reject.
func encodeChain(chain []Commitment) ([]byte, error) {
	if len(chain) > maxChainLen {
		return nil, fmt.Errorf("proof: %d commitments over %d: %w", len(chain), maxChainLen, canon.ErrMalformed)
	}
	recs := make([][]byte, len(chain))
	for i := range chain {
		c := &chain[i]
		if len(c.Host) > canon.MaxNameLen || len(c.Entry) > canon.MaxNameLen {
			return nil, fmt.Errorf("proof: commitment %d name over bound: %w", i, canon.ErrMalformed)
		}
		fields, err := c.Sig.AppendWire([][]byte{
			[]byte(c.Host),
			canon.Uint64Field(uint64(c.Hop)),
			[]byte(c.Entry),
			c.Root[:],
			canon.Uint64Field(uint64(c.N)),
			c.StateHash[:],
		})
		if err != nil {
			return nil, fmt.Errorf("proof: commitment %d: %w", i, err)
		}
		recs[i] = canon.Tuple(fields...)
	}
	out, err := canon.List(chainLabel, maxChainBytes, maxChainLen, recs)
	if err != nil {
		return nil, fmt.Errorf("proof: chain: %w", err)
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
			Host:      string(r.Field(canon.MaxNameLen)),
			Hop:       int(r.Uint64()),
			Entry:     string(r.Field(canon.MaxNameLen)),
			Root:      r.Digest(),
			N:         int(r.Uint64()),
			StateHash: r.Digest(),
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

// encodeOpen renders an open request, refusing what decodeOpen would
// reject.
func encodeOpen(req OpenRequest) ([]byte, error) {
	if len(req.AgentID) > canon.MaxNameLen || len(req.Indices) > maxOpenings {
		return nil, fmt.Errorf("proof: open request over bound: %w", canon.ErrMalformed)
	}
	indices := make([]byte, 0, 8*len(req.Indices))
	for _, i := range req.Indices {
		indices = binary.BigEndian.AppendUint64(indices, uint64(i))
	}
	return canon.Tuple([]byte(openLabel), []byte(req.AgentID), canon.Uint64Field(uint64(req.Hop)), indices), nil
}

// decodeOpen parses an open request; every rejection wraps
// canon.ErrMalformed.
func decodeOpen(data []byte) (OpenRequest, error) {
	s, err := canon.ScanList(data, openLabel, maxOpenBytes, 3)
	if err != nil {
		return OpenRequest{}, err
	}
	req := OpenRequest{AgentID: string(s.Field(canon.MaxNameLen)), Hop: int(s.Uint64())}
	packed := s.Field(8 * maxOpenings)
	if err := s.End(); err != nil {
		return OpenRequest{}, err
	}
	if len(packed)%8 != 0 {
		return OpenRequest{}, fmt.Errorf("%w: %d-byte index list", canon.ErrMalformed, len(packed))
	}
	if len(packed) > 0 {
		req.Indices = make([]int, len(packed)/8)
		for i := range req.Indices {
			req.Indices[i] = int(binary.BigEndian.Uint64(packed[8*i:]))
		}
	}
	return req, nil
}

// encodeOpenings renders a reply to an open request, refusing what
// decodeOpenings would reject.
func encodeOpenings(openings []Opening) ([]byte, error) {
	if len(openings) > maxOpenings {
		return nil, fmt.Errorf("proof: %d openings over %d: %w", len(openings), maxOpenings, canon.ErrMalformed)
	}
	recs := make([][]byte, 0, len(openings))
	for _, o := range openings {
		entry, err := trace.AppendEntry(nil, o.Entry)
		if err != nil {
			return nil, fmt.Errorf("proof: encoding opened entry %d: %w", o.Index, err)
		}
		if len(entry) > maxEntryEncLen || len(o.Path) > maxPathLen {
			return nil, fmt.Errorf("proof: opening %d over bound: %w", o.Index, canon.ErrMalformed)
		}
		path := make([]byte, 0, len(o.Path)*len(canon.Digest{}))
		for _, el := range o.Path {
			path = append(path, el.Sibling[:]...)
		}
		recs = append(recs, canon.Tuple(canon.Uint64Field(uint64(o.Index)), entry, path))
	}
	out, err := canon.List(openingsLabel, maxOpeningsBytes, maxOpenings, recs)
	if err != nil {
		return nil, fmt.Errorf("proof: openings: %w", err)
	}
	return out, nil
}

// decodeOpenings parses a reply to an open request; every rejection,
// an opened entry trace.UnmarshalEntry refuses included, wraps
// canon.ErrMalformed.
func decodeOpenings(data []byte) ([]Opening, error) {
	s, err := canon.ScanList(data, openingsLabel, maxOpeningsBytes, maxOpenings)
	if err != nil {
		return nil, err
	}
	var openings []Opening
	if s.Len() > 0 {
		openings = make([]Opening, 0, s.Len())
	}
	for i := 0; s.Len() > 0; i++ {
		r, err := canon.ScanTuple(s.Field(maxOpeningsBytes))
		if err != nil {
			return nil, err
		}
		if r.Len() != openingFields {
			return nil, fmt.Errorf("%w: opening has %d fields", canon.ErrMalformed, r.Len())
		}
		index := int(r.Uint64())
		entry := r.Field(maxEntryEncLen)
		path := r.Field(maxPathLen * len(canon.Digest{}))
		if err := r.End(); err != nil {
			return nil, err
		}
		if len(path)%len(canon.Digest{}) != 0 {
			return nil, fmt.Errorf("%w: %d-byte opening path", canon.ErrMalformed, len(path))
		}
		o := Opening{Index: index}
		if o.Entry, err = trace.UnmarshalEntry(entry); err != nil {
			return nil, fmt.Errorf("opening %d: %w", i, err)
		}
		if len(path) > 0 {
			o.Path = make([]PathElem, len(path)/len(canon.Digest{}))
			for j := range o.Path {
				o.Path[j].Sibling = canon.Digest(path[j*len(canon.Digest{}):])
			}
		}
		openings = append(openings, o)
	}
	if err := s.End(); err != nil {
		return nil, err
	}
	return openings, nil
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
		return nil, fmt.Errorf("proof: decoding chain: %w", err)
	}
	return chain, nil
}

// VerifyConfig parameterizes spot-check verification.
type VerifyConfig struct {
	Net      transport.Network
	Registry *sigcrypto.Registry
	// K is the number of random positions opened per session; 0 means 8.
	K int
}

// Report is the verification outcome.
type Report struct {
	OK bool
	// Suspect and SuspectHop identify the first failing session.
	Suspect    string
	SuspectHop int
	Reason     string
	// EntriesOpened counts trace entries actually transferred and
	// checked — the verifier's cost, sublinear in total trace length.
	EntriesOpened int
	TotalTraceLen int
}

// Verify spot-checks every committed session of a returned agent. For
// each session it verifies the commitment signature, then opens K
// random trace positions and authenticates them against the committed
// root, also checking that each opened entry's statement identifier
// exists in the agent's program. ctx bounds the open calls.
func Verify(ctx context.Context, cfg VerifyConfig, ag *agent.Agent) (*Report, error) {
	chain, err := ChainFromAgent(ag)
	if err != nil {
		return nil, err
	}
	if len(chain) == 0 {
		return nil, fmt.Errorf("proof: agent carries no commitments")
	}
	prog, err := ag.Program()
	if err != nil {
		return nil, err
	}
	k := cfg.K
	if k <= 0 {
		k = 8
	}
	rep := &Report{}
	blame := func(c Commitment, reason string) *Report {
		rep.OK = false
		rep.Suspect = c.Host
		rep.SuspectHop = c.Hop
		rep.Reason = reason
		return rep
	}
	for _, c := range chain {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("proof: verify: %w", err)
		}
		rep.TotalTraceLen += c.N
		if err := cfg.Registry.Verify(c.bindingBytes(ag.ID), c.Sig); err != nil {
			return blame(c, fmt.Sprintf("commitment signature invalid: %v", err)), nil
		}
		if c.Sig.Signer != c.Host {
			return blame(c, fmt.Sprintf("commitment signed by %q, not %q", c.Sig.Signer, c.Host)), nil
		}
		if c.N <= 0 {
			return blame(c, "commitment claims an empty trace"), nil
		}
		// Draw K distinct-ish indices (duplicates allowed; they cost a
		// little coverage, not soundness).
		indices := make([]int, 0, k)
		for j := 0; j < k && j < c.N; j++ {
			idx, err := rand.Int(rand.Reader, big.NewInt(int64(c.N)))
			if err != nil {
				return nil, fmt.Errorf("proof: drawing index: %w", err)
			}
			indices = append(indices, int(idx.Int64()))
		}
		req, err := encodeOpen(OpenRequest{AgentID: ag.ID, Hop: c.Hop, Indices: indices})
		if err != nil {
			return nil, fmt.Errorf("proof: encoding request: %w", err)
		}
		resp, err := cfg.Net.Call(ctx, c.Host, MechanismName+"/open", req)
		if err != nil {
			return blame(c, fmt.Sprintf("host refused to open proof: %v", err)), nil
		}
		// A full node wraps mechanism replies in the urgent envelope;
		// tolerant unwrap so a bare reply passes through unchanged and an
		// honest host is never blamed for carrying baggage.
		resp, _ = transport.OpenReply(resp)
		openings, err := decodeOpenings(resp)
		if err != nil {
			return blame(c, fmt.Sprintf("malformed openings: %v", err)), nil
		}
		if len(openings) != len(indices) {
			return blame(c, fmt.Sprintf("asked for %d openings, got %d", len(indices), len(openings))), nil
		}
		for j, o := range openings {
			if o.Index != indices[j] {
				return blame(c, fmt.Sprintf("opening %d answers index %d, asked %d", j, o.Index, indices[j])), nil
			}
			if !VerifyPath(trace.EntryDigest(o.Entry), o.Index, c.N, o.Path, c.Root) {
				return blame(c, fmt.Sprintf("opening at index %d fails Merkle authentication", o.Index)), nil
			}
			// Local well-formedness: the statement must exist in the code.
			if prog.StatementText(o.Entry.StmtID) == "" {
				return blame(c, fmt.Sprintf("trace entry %d names unknown statement %d", o.Index, o.Entry.StmtID)), nil
			}
			rep.EntriesOpened++
		}
	}
	rep.OK = true
	return rep, nil
}

// FullRecheck is the baseline the proof mechanism is measured against:
// fetch nothing, re-execute nothing — instead, it re-executes the whole
// journey like a Vigna audit would, for cost comparison in Series D.
// It requires the full traces, so it asks each host to open *every*
// index.
func FullRecheck(ctx context.Context, cfg VerifyConfig, ag *agent.Agent) (*Report, error) {
	chain, err := ChainFromAgent(ag)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	for _, c := range chain {
		rep.TotalTraceLen += c.N
		indices := make([]int, c.N)
		for i := range indices {
			indices[i] = i
		}
		req, err := encodeOpen(OpenRequest{AgentID: ag.ID, Hop: c.Hop, Indices: indices})
		if err != nil {
			return nil, err
		}
		resp, err := cfg.Net.Call(ctx, c.Host, MechanismName+"/open", req)
		if err != nil {
			rep.OK = false
			rep.Suspect = c.Host
			rep.SuspectHop = c.Hop
			rep.Reason = err.Error()
			return rep, nil
		}
		resp, _ = transport.OpenReply(resp)
		openings, err := decodeOpenings(resp)
		if err != nil {
			return nil, err
		}
		for _, o := range openings {
			if !VerifyPath(trace.EntryDigest(o.Entry), o.Index, c.N, o.Path, c.Root) {
				rep.OK = false
				rep.Suspect = c.Host
				rep.SuspectHop = c.Hop
				rep.Reason = fmt.Sprintf("entry %d fails authentication", o.Index)
				return rep, nil
			}
			rep.EntriesOpened++
		}
	}
	rep.OK = true
	return rep, nil
}
