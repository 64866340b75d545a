package core

import (
	"encoding/binary"
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
)

// Marshal serializes the package for agent baggage.
func (p *ReferencePackage) Marshal() ([]byte, error) {
	var flags byte
	nfields := 11
	if p.InitialState != nil {
		flags |= refPkgHasInitial
	}
	if p.ResultingState != nil {
		flags |= refPkgHasResulting
	}
	if p.Input != nil {
		flags |= refPkgHasInput
		nfields += 3 * len(p.Input)
		for _, rec := range p.Input {
			nfields += len(rec.Args)
		}
	}
	if p.Trace != nil {
		flags |= refPkgHasTrace
	}
	if p.Resources != nil {
		flags |= refPkgHasResources
		nfields += 2 * len(p.Resources)
	}

	var hopBuf, nInBuf, nResBuf [8]byte
	binary.BigEndian.PutUint64(hopBuf[:], uint64(p.Hop))
	binary.BigEndian.PutUint64(nInBuf[:], uint64(len(p.Input)))
	binary.BigEndian.PutUint64(nResBuf[:], uint64(len(p.Resources)))

	var initialEnc, resultingEnc, traceEnc []byte
	if p.InitialState != nil {
		initialEnc = canon.EncodeState(p.InitialState)
	}
	if p.ResultingState != nil {
		resultingEnc = canon.EncodeState(p.ResultingState)
	}
	if p.Trace != nil {
		enc, err := p.Trace.Marshal()
		if err != nil {
			return nil, err
		}
		traceEnc = enc
	}

	fields := make([][]byte, 0, nfields)
	fields = append(fields,
		[]byte(refPkgWireLabel),
		[]byte(p.HostName),
		hopBuf[:],
		[]byte(p.Entry),
		[]byte(p.ResultEntry),
		[]byte{flags},
		initialEnc,
		resultingEnc,
		traceEnc,
		nInBuf[:],
		nResBuf[:],
	)
	for _, rec := range p.Input {
		var nArgBuf [8]byte
		binary.BigEndian.PutUint64(nArgBuf[:], uint64(len(rec.Args)))
		fields = append(fields, []byte(rec.Call), nArgBuf[:])
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

// UnmarshalReferencePackage parses a package from agent baggage.
func UnmarshalReferencePackage(data []byte) (*ReferencePackage, error) {
	malformed := func(what string) error {
		return fmt.Errorf("core: decoding reference package: %w: %s", canon.ErrMalformed, what)
	}
	fields, err := canon.ParseTuple(data)
	if err != nil {
		return nil, fmt.Errorf("core: decoding reference package: %w", err)
	}
	if len(fields) < 11 || string(fields[0]) != refPkgWireLabel {
		return nil, malformed("header")
	}
	if len(fields[2]) != 8 || len(fields[5]) != 1 || len(fields[9]) != 8 || len(fields[10]) != 8 {
		return nil, malformed("fixed fields")
	}
	flags := fields[5][0]
	p := &ReferencePackage{
		HostName:    string(fields[1]),
		Hop:         int(binary.BigEndian.Uint64(fields[2])),
		Entry:       string(fields[3]),
		ResultEntry: string(fields[4]),
	}
	if flags&refPkgHasInitial != 0 {
		st, err := canon.DecodeState(fields[6])
		if err != nil {
			return nil, fmt.Errorf("core: initial state: %w", err)
		}
		p.InitialState = st
	}
	if flags&refPkgHasResulting != 0 {
		st, err := canon.DecodeState(fields[7])
		if err != nil {
			return nil, fmt.Errorf("core: resulting state: %w", err)
		}
		p.ResultingState = st
	}
	if flags&refPkgHasTrace != 0 {
		tr, err := trace.Unmarshal(fields[8])
		if err != nil {
			return nil, err
		}
		p.Trace = &tr
	}
	nInput := binary.BigEndian.Uint64(fields[9])
	nRes := binary.BigEndian.Uint64(fields[10])
	// Bound the claimed counts by the fields actually present before
	// any of them sizes an allocation: the counts are attacker
	// controlled and must not be able to panic make() or reserve
	// gigabytes from a short message.
	if nInput > uint64(len(fields)) || nRes > uint64(len(fields)) {
		return nil, malformed("counts exceed field count")
	}
	off := 11
	if flags&refPkgHasInput != 0 {
		p.Input = make([]agentlang.InputRecord, 0, nInput)
		for i := 0; i < int(nInput); i++ {
			if off+2 > len(fields) || len(fields[off+1]) != 8 {
				return nil, malformed("input record header")
			}
			rec := agentlang.InputRecord{Seq: i, Call: string(fields[off])}
			nArgs64 := binary.BigEndian.Uint64(fields[off+1])
			if nArgs64 > uint64(len(fields)) {
				return nil, malformed("input record args")
			}
			nArgs := int(nArgs64)
			off += 2
			if off+nArgs+1 > len(fields) {
				return nil, malformed("input record args")
			}
			for j := 0; j < nArgs; j++ {
				v, err := canon.DecodeValue(fields[off])
				if err != nil {
					return nil, fmt.Errorf("core: input arg: %w", err)
				}
				rec.Args = append(rec.Args, v)
				off++
			}
			res, err := canon.DecodeValue(fields[off])
			if err != nil {
				return nil, fmt.Errorf("core: input result: %w", err)
			}
			rec.Result = res
			off++
			p.Input = append(p.Input, rec)
		}
	}
	if flags&refPkgHasResources != 0 {
		if off+2*int(nRes) > len(fields) {
			return nil, malformed("resources")
		}
		p.Resources = make(map[string]value.Value, nRes)
		for i := 0; i < int(nRes); i++ {
			v, err := canon.DecodeValue(fields[off+1])
			if err != nil {
				return nil, fmt.Errorf("core: resource %q: %w", fields[off], err)
			}
			p.Resources[string(fields[off])] = v
			off += 2
		}
	}
	if off != len(fields) {
		return nil, malformed("trailing fields")
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
