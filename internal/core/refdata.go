package core

import (
	"fmt"

	"repro/internal/agentlang"
	"repro/internal/canon"
	"repro/internal/host"
	"repro/internal/trace"
	"repro/internal/value"
)

// The requester marker interfaces of Fig. 4. A mechanism implements the
// interfaces for the reference data its checking algorithm needs; the
// framework packs exactly the declared data into the agent
// (BuildReferencePackage). This mirrors the paper's "similar to the
// usage of Clonable in Java".

// InitialStateRequester declares need for the initial state.
type InitialStateRequester interface{ RequestsInitialState() }

// ResultingStateRequester declares need for the resulting state.
type ResultingStateRequester interface{ RequestsResultingState() }

// InputRequester declares need for the session input.
type InputRequester interface{ RequestsInput() }

// ExecutionLogRequester declares need for the execution log (trace).
type ExecutionLogRequester interface{ RequestsExecutionLog() }

// ResourceRequester declares need for the host resources.
type ResourceRequester interface{ RequestsResource() }

// ReferencePackage is the reference data of one execution session, in
// the combination the mechanism declared (§3.5, "used reference data").
// It travels in the agent's data part ("all we have to do is to include
// the data in the data part of the agent as this part is transported
// automatically", §5).
type ReferencePackage struct {
	// Session identification.
	HostName    string
	Hop         int
	Entry       string
	ResultEntry string
	// The five reference-data kinds; nil/empty when not requested.
	InitialState   value.State
	ResultingState value.State
	Input          []agentlang.InputRecord
	Trace          *trace.Trace
	Resources      map[string]value.Value
}

// BuildReferencePackage assembles a package from a session record,
// including only the data kinds the mechanism declares via requester
// interfaces. States are copy-on-write snapshots of the (finalized)
// record; resources are deep copies because the host's resource store
// is shared across concurrent sessions and must not carry flags.
func BuildReferencePackage(m Mechanism, rec *host.SessionRecord, resources map[string]value.Value) *ReferencePackage {
	pkg := &ReferencePackage{
		HostName:    rec.HostName,
		Hop:         rec.Hop,
		Entry:       rec.Entry,
		ResultEntry: rec.ResultEntry,
	}
	if _, ok := m.(InitialStateRequester); ok {
		pkg.InitialState = rec.Initial.Snapshot()
	}
	if _, ok := m.(ResultingStateRequester); ok {
		pkg.ResultingState = rec.Resulting.Snapshot()
	}
	if _, ok := m.(InputRequester); ok {
		pkg.Input = rec.CloneInput()
	}
	if _, ok := m.(ExecutionLogRequester); ok {
		tr := rec.Trace
		pkg.Trace = &tr
	}
	if _, ok := m.(ResourceRequester); ok {
		pkg.Resources = make(map[string]value.Value, len(resources))
		for k, v := range resources {
			pkg.Resources[k] = v.Clone()
		}
	}
	return pkg
}

// Wire layout: one canonical tuple with a presence bitmap. Reference
// packages are built and parsed once per hop per mechanism; the gob
// form this replaces paid encoder setup and type negotiation every
// time.
//
//	0  format label ("refpkg-wire")
//	1  HostName
//	2  Hop, 8-byte big-endian
//	3  Entry
//	4  ResultEntry
//	5  presence flags, 1 byte
//	6  initial state encoding (empty unless flagged)
//	7  resulting state encoding (empty unless flagged)
//	8  trace encoding (empty unless flagged)
//	9  input record count, 8-byte big-endian
//	10 resource count, 8-byte big-endian
//	11+ per input record: call, arg count (8-byte), args..., result;
//	    then per resource (sorted): key, value encoding
const refPkgWireLabel = "refpkg-wire"

const (
	refPkgHasInitial = 1 << iota
	refPkgHasResulting
	refPkgHasInput
	refPkgHasTrace
	refPkgHasResources
	refPkgFlags = 1<<iota - 1 // every flag above
)

// Marshal serializes the package for agent baggage. It passes up the
// trace's refusal of a trace too large to carry (canon.ErrTooLarge).
func (p *ReferencePackage) Marshal() ([]byte, error) {
	var flags byte
	var initialEnc, resultingEnc, traceEnc []byte
	if p.Trace != nil {
		flags |= refPkgHasTrace
		var err error
		if traceEnc, err = p.Trace.Marshal(); err != nil {
			return nil, err
		}
	}
	if p.InitialState != nil {
		flags |= refPkgHasInitial
		initialEnc = canon.EncodeState(p.InitialState)
	}
	if p.ResultingState != nil {
		flags |= refPkgHasResulting
		resultingEnc = canon.EncodeState(p.ResultingState)
	}
	if p.Input != nil {
		flags |= refPkgHasInput
	}
	if p.Resources != nil {
		flags |= refPkgHasResources
	}
	nfields := 11 + 2*len(p.Resources)
	for _, rec := range p.Input {
		nfields += 3 + len(rec.Args)
	}

	fields := make([][]byte, 0, nfields)
	fields = append(fields,
		[]byte(refPkgWireLabel),
		[]byte(p.HostName),
		canon.Uint64Field(uint64(p.Hop)),
		[]byte(p.Entry),
		[]byte(p.ResultEntry),
		[]byte{flags},
		initialEnc,
		resultingEnc,
		traceEnc,
		canon.Uint64Field(uint64(len(p.Input))),
		canon.Uint64Field(uint64(len(p.Resources))),
	)
	for _, rec := range p.Input {
		fields = append(fields, []byte(rec.Call), canon.Uint64Field(uint64(len(rec.Args))))
		for _, a := range rec.Args {
			fields = append(fields, canon.EncodeValue(a))
		}
		fields = append(fields, canon.EncodeValue(rec.Result))
	}
	for _, k := range value.SortedKeys(p.Resources) {
		fields = append(fields, []byte(k), canon.EncodeValue(p.Resources[k]))
	}
	return canon.Tuple(fields...), nil
}

// UnmarshalReferencePackage parses a package from agent baggage. Every
// rejection wraps canon.ErrMalformed. No field can be longer than the
// input, and each count is bounded by the fields left to read before it
// sizes an allocation: the counts are attacker controlled.
func UnmarshalReferencePackage(data []byte) (_ *ReferencePackage, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("core: decoding reference package: %w", err)
		}
	}()
	bound := len(data)
	s, err := canon.ScanTuple(data)
	if err != nil {
		return nil, err
	}
	if s.Len() < 11 || string(s.Field(len(refPkgWireLabel))) != refPkgWireLabel {
		return nil, fmt.Errorf("%w: header", canon.ErrMalformed)
	}
	p := &ReferencePackage{HostName: string(s.Field(bound)), Hop: int(s.Uint64())}
	p.Entry, p.ResultEntry = string(s.Field(bound)), string(s.Field(bound))
	flags, initial, resulting, tr := s.Field(1), s.Field(bound), s.Field(bound), s.Field(bound)
	nInput, nRes := s.Uint64(), s.Uint64()
	switch {
	case s.Err() != nil:
		return nil, s.Err()
	case len(flags) != 1:
		return nil, fmt.Errorf("%w: presence flags", canon.ErrMalformed)
	case nInput > uint64(s.Len()) || nRes > uint64(s.Len()):
		return nil, fmt.Errorf("%w: counts exceed field count", canon.ErrMalformed)
	case flags[0]&^refPkgFlags != 0:
		return nil, fmt.Errorf("%w: unknown presence flags 0x%02x", canon.ErrMalformed, flags[0])
	case flags[0]&refPkgHasInitial == 0 && len(initial) > 0, flags[0]&refPkgHasResulting == 0 && len(resulting) > 0,
		flags[0]&refPkgHasTrace == 0 && len(tr) > 0, flags[0]&refPkgHasInput == 0 && nInput > 0,
		flags[0]&refPkgHasResources == 0 && nRes > 0:
		// Marshal leaves empty what a clear flag leaves out.
		return nil, fmt.Errorf("%w: data under a clear presence flag", canon.ErrMalformed)
	}
	if flags[0]&refPkgHasInitial != 0 {
		if p.InitialState, err = canon.DecodeState(initial); err != nil {
			return nil, fmt.Errorf("initial state: %w", err)
		}
	}
	if flags[0]&refPkgHasResulting != 0 {
		if p.ResultingState, err = canon.DecodeState(resulting); err != nil {
			return nil, fmt.Errorf("resulting state: %w", err)
		}
	}
	if flags[0]&refPkgHasTrace != 0 {
		t, err := trace.Unmarshal(tr)
		if err != nil {
			return nil, err
		}
		p.Trace = &t
	}
	if flags[0]&refPkgHasInput != 0 {
		p.Input = make([]agentlang.InputRecord, 0, nInput)
		for i := range int(nInput) {
			rec := agentlang.InputRecord{Seq: i, Call: string(s.Field(bound))}
			nArgs := s.Uint64()
			if nArgs > uint64(s.Len()) {
				return nil, fmt.Errorf("%w: input record args", canon.ErrMalformed)
			}
			for range nArgs {
				v, err := canon.DecodeValue(s.Field(bound))
				if err != nil {
					return nil, fmt.Errorf("input arg: %w", err)
				}
				rec.Args = append(rec.Args, v)
			}
			if rec.Result, err = canon.DecodeValue(s.Field(bound)); err != nil {
				return nil, fmt.Errorf("input result: %w", err)
			}
			p.Input = append(p.Input, rec)
		}
	}
	if flags[0]&refPkgHasResources != 0 {
		p.Resources = make(map[string]value.Value, nRes)
		prev := ""
		for i := range nRes {
			k := string(s.Field(bound))
			if i > 0 && k <= prev {
				return nil, fmt.Errorf("%w: resource %q does not follow the key before it", canon.ErrMalformed, k)
			}
			if p.Resources[k], err = canon.DecodeValue(s.Field(bound)); err != nil {
				return nil, fmt.Errorf("resource %q: %w", k, err)
			}
			prev = k
		}
	}
	if err := s.End(); err != nil {
		return nil, err
	}
	return p, nil
}

// Digest returns a canonical digest of the package contents, used by
// mechanisms that sign reference data. The encoding is streamed into a
// pooled SHA-256 state; the bytes hashed are identical to the
// materialized tuple framing this digest always used (each input
// record framed in its own nested tuple, so record boundaries are
// unambiguous).
func (p *ReferencePackage) Digest() canon.Digest {
	nfields := 5
	if p.InitialState != nil {
		nfields += 2
	}
	if p.ResultingState != nil {
		nfields += 2
	}
	if p.Input != nil {
		nfields += 1 + len(p.Input)
	}
	if p.Trace != nil {
		nfields += 2
	}
	if p.Resources != nil {
		nfields += 1 + 2*len(p.Resources)
	}

	x := canon.AcquireHasher()
	defer canon.ReleaseHasher(x)
	x.TupleHeader(nfields)
	x.StringField("refpkg")
	x.StringField(p.HostName)
	x.IntField(int64(p.Hop))
	x.StringField(p.Entry)
	x.StringField(p.ResultEntry)
	if p.InitialState != nil {
		x.StringField("initial")
		x.StateField(p.InitialState)
	}
	if p.ResultingState != nil {
		x.StringField("resulting")
		x.StateField(p.ResultingState)
	}
	if p.Input != nil {
		x.StringField("input")
		for _, rec := range p.Input {
			// Nested per-record tuple: header + call + args + result.
			size := 2 + 4 + 4 + len(rec.Call)
			for _, a := range rec.Args {
				size += 4 + 1 + canon.SizeValue(a)
			}
			size += 4 + 1 + canon.SizeValue(rec.Result)
			x.BeginField(size)
			x.TupleHeader(2 + len(rec.Args))
			x.StringField(rec.Call)
			for _, a := range rec.Args {
				x.ValueField(a)
			}
			x.ValueField(rec.Result)
		}
	}
	if p.Trace != nil {
		d := p.Trace.Digest()
		x.StringField("trace")
		x.Field(d[:])
	}
	if p.Resources != nil {
		x.StringField("resources")
		for _, k := range value.SortedKeys(p.Resources) {
			x.StringField(k)
			x.ValueField(p.Resources[k])
		}
	}
	return x.Sum()
}
