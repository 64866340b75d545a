// Package agent defines the mobile agent construct of the paper's
// execution model (§2.1): "a construct consisting of code, data state,
// and execution state", migrating along a sequence of hosts.
//
// The code part is agentlang source (shipped verbatim and identified by
// its digest). The data state is a value.State. The execution state —
// this platform uses weak migration like Mole (§5) — is the name of the
// entry procedure the next host must start, plus the hop counter.
//
// Agents additionally carry "baggage": opaque per-mechanism payloads
// (signed reference states, input logs, trace commitments) that
// protection mechanisms attach and consume. Baggage travels inside the
// data part of the agent "as this part is transported automatically"
// (§5).
package agent

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"

	"repro/internal/agentlang"
	"repro/internal/canon"
	"repro/internal/value"
)

// Common validation errors.
var (
	ErrNoCode  = errors.New("agent: empty code")
	ErrNoEntry = errors.New("agent: empty entry procedure")
)

// Agent is a mobile agent between (or during) execution sessions.
type Agent struct {
	// ID uniquely names this agent instance.
	ID string
	// Owner is the principal the agent acts for; the owner's home host
	// is usually the first and last stop of the itinerary.
	Owner string
	// Code is the agentlang source. It is immutable for the lifetime of
	// the agent; CodeDigest pins it.
	Code string
	// CodeDigest is the digest of Code, fixed at creation. A host that
	// receives an agent whose code does not match the digest rejects it.
	CodeDigest canon.Digest
	// State is the agent's data state — the "variable parts" that
	// reference states are defined over.
	State value.State
	// Entry is the execution state under weak migration: the procedure
	// the next execution session starts with.
	Entry string
	// Hop counts completed execution sessions, starting at 0 before the
	// first session. It parameterizes signatures so protocol messages
	// from different sessions can never be confused.
	Hop int
	// Route records the hosts visited so far, in order. Mechanisms that
	// check after the task use it to identify whom to blame (§3.5:
	// "the route, i.e. the list of visited hosts has to be stored").
	Route []string
	// Baggage holds per-mechanism opaque payloads, keyed by mechanism
	// name.
	Baggage map[string][]byte

	// prog caches the parsed program; not serialized.
	prog *agentlang.Program

	// digest memoizes the canonical state digest between mutations.
	// Several mechanisms compare the arrived state with a signed digest
	// of it (refproto's seal and checker, vigna, each once per hop), so
	// StateDigest is O(1) while the state is unchanged. The platform
	// write paths (RunSession, SetVar, SetState, MutateState) invalidate
	// it; direct Go-level writes to State must be followed by
	// InvalidateStateDigest.
	digMu    sync.Mutex
	dig      canon.Digest
	digValid bool
}

// New creates an agent with the given identity and code, validating
// that the code parses and the entry procedure exists.
func New(id, owner, code, entry string) (*Agent, error) {
	if code == "" {
		return nil, ErrNoCode
	}
	if entry == "" {
		return nil, ErrNoEntry
	}
	a := &Agent{
		ID:         id,
		Owner:      owner,
		Code:       code,
		CodeDigest: canon.HashBytes([]byte(code)),
		State:      value.State{},
		Entry:      entry,
		Baggage:    make(map[string][]byte),
	}
	if err := a.checkNames(); err != nil {
		return nil, err
	}
	prog, err := agentlang.Parse(code)
	if err != nil {
		return nil, fmt.Errorf("agent: parsing code: %w", err)
	}
	if !prog.HasProc(entry) {
		return nil, fmt.Errorf("agent: entry procedure %q not in code", entry)
	}
	a.prog = prog
	return a, nil
}

// Program returns the parsed code, parsing and caching on first use.
func (a *Agent) Program() (*agentlang.Program, error) {
	if a.prog != nil {
		return a.prog, nil
	}
	prog, err := agentlang.Parse(a.Code)
	if err != nil {
		return nil, fmt.Errorf("agent: parsing code: %w", err)
	}
	a.prog = prog
	return prog, nil
}

// Validate checks internal consistency: name bounds, code digest,
// parsability, and entry existence. Hosts call it on every arriving
// agent.
func (a *Agent) Validate() error {
	if a.Code == "" {
		return ErrNoCode
	}
	if a.Entry == "" {
		return ErrNoEntry
	}
	if err := a.checkNames(); err != nil {
		return err
	}
	if canon.HashBytes([]byte(a.Code)) != a.CodeDigest {
		return errors.New("agent: code does not match code digest")
	}
	prog, err := a.Program()
	if err != nil {
		return err
	}
	if !prog.HasProc(a.Entry) {
		return fmt.Errorf("agent: entry procedure %q not in code", a.Entry)
	}
	return nil
}

// checkNames refuses an ID, owner, entry, route host or baggage key
// over canon.MaxNameLen, the bound Decode reads each of them with.
// Every journal key, event and receipt about an agent holds its names,
// so a peer must not choose their size.
func (a *Agent) checkNames() error {
	over := func(s string) bool { return len(s) > canon.MaxNameLen }
	name := ""
	switch {
	case over(a.ID):
		name = "ID"
	case over(a.Owner):
		name = "owner"
	case over(a.Entry):
		name = "entry"
	case slices.ContainsFunc(a.Route, over):
		name = "route host"
	}
	for k := range a.Baggage {
		if over(k) {
			name = "baggage key"
		}
	}
	if name == "" {
		return nil
	}
	return fmt.Errorf("agent: %w: %s over %d bytes", canon.ErrMalformed, name, canon.MaxNameLen)
}

// StateDigest returns the canonical digest of the data state. The
// digest is memoized: repeated calls between mutations cost a mutex
// acquisition, not a rehash of the whole state.
func (a *Agent) StateDigest() canon.Digest {
	a.digMu.Lock()
	defer a.digMu.Unlock()
	if !a.digValid {
		a.dig = canon.HashState(a.State)
		a.digValid = true
	}
	return a.dig
}

// InvalidateStateDigest drops the memoized state digest. Call it after
// mutating State directly; the SetVar/SetState/MutateState write paths
// call it themselves.
func (a *Agent) InvalidateStateDigest() {
	a.digMu.Lock()
	a.digValid = false
	a.digMu.Unlock()
}

// seedStateDigest installs a digest computed from the wire encoding.
func (a *Agent) seedStateDigest(d canon.Digest) {
	a.digMu.Lock()
	a.dig = d
	a.digValid = true
	a.digMu.Unlock()
}

// SetVar binds one state variable and invalidates the digest cache.
func (a *Agent) SetVar(name string, v value.Value) {
	if a.State == nil {
		a.State = value.State{}
	}
	a.State[name] = v
	a.InvalidateStateDigest()
}

// SetState replaces the whole data state and invalidates the digest
// cache.
func (a *Agent) SetState(st value.State) {
	a.State = st
	a.InvalidateStateDigest()
}

// MutateState exposes the state for in-place mutation and invalidates
// the digest cache afterwards, keeping cache coherence in one place for
// callers that need multi-variable updates.
func (a *Agent) MutateState(fn func(value.State)) {
	if a.State == nil {
		a.State = value.State{}
	}
	fn(a.State)
	a.InvalidateStateDigest()
}

// Clone returns a deep copy of the agent (sharing only the immutable
// parsed program).
func (a *Agent) Clone() *Agent {
	out := &Agent{
		ID:         a.ID,
		Owner:      a.Owner,
		Code:       a.Code,
		CodeDigest: a.CodeDigest,
		State:      a.State.Clone(),
		Entry:      a.Entry,
		Hop:        a.Hop,
		Route:      append([]string(nil), a.Route...),
		Baggage:    make(map[string][]byte, len(a.Baggage)),
		prog:       a.prog,
	}
	for k, v := range a.Baggage {
		out.Baggage[k] = append([]byte(nil), v...)
	}
	a.digMu.Lock()
	out.dig, out.digValid = a.dig, a.digValid
	a.digMu.Unlock()
	return out
}

// SetBaggage stores a mechanism payload, replacing any previous value.
func (a *Agent) SetBaggage(mechanism string, payload []byte) {
	if a.Baggage == nil {
		a.Baggage = make(map[string][]byte)
	}
	a.Baggage[mechanism] = append([]byte(nil), payload...)
}

// GetBaggage retrieves a mechanism payload; ok is false if absent.
func (a *Agent) GetBaggage(mechanism string) (payload []byte, ok bool) {
	p, ok := a.Baggage[mechanism]
	return p, ok
}

// ClearBaggage removes a mechanism payload.
func (a *Agent) ClearBaggage(mechanism string) { delete(a.Baggage, mechanism) }

// BaggageKeys returns the mechanism names with attached baggage, sorted.
func (a *Agent) BaggageKeys() []string {
	keys := make([]string, 0, len(a.Baggage))
	for k := range a.Baggage {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Wire layout: one canonical tuple. The agent used to travel as gob;
// migration happens once per hop per agent, and gob's encoder setup
// plus type negotiation dominated the marshalling profile, so the wire
// is now the same length-framed tuple format everything else uses.
//
//	0  format label ("agent-wire")
//	1  ID
//	2  Owner
//	3  Code
//	4  CodeDigest
//	5  canonical state encoding
//	6  Entry
//	7  Hop, 8-byte big-endian
//	8  route length, 8-byte big-endian
//	9  baggage count, 8-byte big-endian
//	10+ route hosts, then (mechanism, payload) baggage pairs in sorted
//	    mechanism order
const agentWireLabel = "agent-wire"

// Marshal serializes the agent for migration: Validate, then Encode.
// The data state travels in canonical encoding so that the bytes a host
// signs are exactly the bytes the next host digests.
func (a *Agent) Marshal() ([]byte, error) {
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("agent: refusing to marshal invalid agent: %w", err)
	}
	return a.Encode(), nil
}

// Encode returns the agent's canonical encoding — the wire layout
// above — without Marshal's migration-time Validate. A node keeps an
// agent whose stay ended (completed, quarantined, failed) as these
// bytes: a finished agent has an empty Entry, which Validate refuses.
func (a *Agent) Encode() []byte {
	var hopBuf, routeBuf, bagBuf [8]byte
	binary.BigEndian.PutUint64(hopBuf[:], uint64(a.Hop))
	binary.BigEndian.PutUint64(routeBuf[:], uint64(len(a.Route)))
	binary.BigEndian.PutUint64(bagBuf[:], uint64(len(a.Baggage)))
	fields := make([][]byte, 0, 10+len(a.Route)+2*len(a.Baggage))
	fields = append(fields,
		[]byte(agentWireLabel),
		[]byte(a.ID),
		[]byte(a.Owner),
		[]byte(a.Code),
		a.CodeDigest[:],
		canon.EncodeState(a.State),
		[]byte(a.Entry),
		hopBuf[:],
		routeBuf[:],
		bagBuf[:],
	)
	for _, h := range a.Route {
		fields = append(fields, []byte(h))
	}
	for _, k := range a.BaggageKeys() {
		fields = append(fields, []byte(k), a.Baggage[k])
	}
	return canon.Tuple(fields...)
}

// Unmarshal deserializes an agent received from the network and
// validates it: Decode, then Validate.
func Unmarshal(data []byte) (*Agent, error) {
	a, err := Decode(data)
	if err != nil {
		return nil, err
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// Decode parses an encoding produced by Encode into an agent that
// shares no memory with data. It checks the layout only: it neither
// validates the agent nor parses its code (Program stays lazy), so it
// reads back a finished agent's record as well as a migrating agent.
func Decode(data []byte) (*Agent, error) {
	bound := len(data)
	s, err := canon.ScanList(data, agentWireLabel, bound, bound)
	if err != nil {
		return nil, fmt.Errorf("agent: decoding: %w", err)
	}
	a := &Agent{
		ID:         string(s.Field(canon.MaxNameLen)),
		Owner:      string(s.Field(canon.MaxNameLen)),
		Code:       string(s.Field(bound)),
		CodeDigest: s.Digest(),
	}
	stateEnc := s.Field(bound)
	a.Entry = string(s.Field(canon.MaxNameLen))
	a.Hop = int(s.Uint64())
	nRoute, nBag := s.Uint64(), s.Uint64()
	// Bound each count individually before the arithmetic: the counts
	// are attacker controlled, and an unchecked sum could wrap uint64
	// and admit an encoding whose trailing fields are silently dropped.
	left := uint64(s.Len())
	if nRoute > left || nBag > left || left != nRoute+2*nBag {
		return nil, fmt.Errorf("agent: decoding: %w: field count", canon.ErrMalformed)
	}
	for range nRoute {
		a.Route = append(a.Route, string(s.Field(canon.MaxNameLen)))
	}
	a.Baggage = make(map[string][]byte, nBag)
	prev := ""
	for i := range nBag {
		k := string(s.Field(canon.MaxNameLen))
		if err := s.Err(); err != nil {
			return nil, fmt.Errorf("agent: decoding: %w", err)
		}
		if i > 0 && k <= prev {
			return nil, fmt.Errorf("agent: decoding: %w: baggage key %d does not follow the key before it", canon.ErrMalformed, i)
		}
		// Copy the payload: baggage outlives the wire buffer.
		a.Baggage[k] = append([]byte(nil), s.Field(bound)...)
		prev = k
	}
	if err := s.End(); err != nil {
		return nil, fmt.Errorf("agent: decoding: %w", err)
	}
	if a.State, err = canon.DecodeState(stateEnc); err != nil {
		return nil, fmt.Errorf("agent: decoding state: %w", err)
	}
	// The wire encoding IS the canonical state encoding, so the arrival
	// digest comes from one pass over bytes already in hand — the first
	// StateDigest call on a freshly arrived agent (every mechanism's
	// CheckAfterSession makes one) costs nothing extra.
	a.seedStateDigest(canon.HashBytes(stateEnc))
	return a, nil
}

// AppendSessionBinding appends the session binding to dst and returns
// the extended slice. Hot signing paths pass a pooled buffer
// (canon.GetBuf) so per-signature allocation stays flat.
func (a *Agent) AppendSessionBinding(dst []byte, role string, hop int, stateDigest canon.Digest) []byte {
	var hopBuf [20]byte
	return canon.AppendTuple(dst,
		[]byte("session"),
		[]byte(a.ID),
		a.CodeDigest[:],
		strconv.AppendInt(hopBuf[:0], int64(hop), 10),
		[]byte(role),
		stateDigest[:],
	)
}
