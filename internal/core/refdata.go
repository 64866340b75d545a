package core

import (
	"bytes"
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
// (PackageSession). This mirrors the paper's "similar to the
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

// PackageSession encodes the reference data m declares of the
// finalized session rec (the requester interfaces of Fig. 4) in one
// pass over the record, and returns the encoding with its sums, read
// back from the encoded fields. The encoding is the package's only
// copy, so the record's states, input and trace are read in place:
// nothing is snapshotted or cloned. resources is read the same way.
func PackageSession(m Mechanism, rec *host.SessionRecord, resources map[string]value.Value) ([]byte, PackageSums, error) {
	p := ReferencePackage{
		HostName:    rec.HostName,
		Hop:         rec.Hop,
		Entry:       rec.Entry,
		ResultEntry: rec.ResultEntry,
	}
	// A declared kind is present even when empty: nil means absent.
	if _, ok := m.(InitialStateRequester); ok {
		p.InitialState = rec.Initial
		if p.InitialState == nil {
			p.InitialState = value.State{}
		}
	}
	if _, ok := m.(ResultingStateRequester); ok {
		p.ResultingState = rec.Resulting
		if p.ResultingState == nil {
			p.ResultingState = value.State{}
		}
	}
	if _, ok := m.(InputRequester); ok {
		p.Input = rec.Input
		if p.Input == nil {
			p.Input = []agentlang.InputRecord{}
		}
	}
	if _, ok := m.(ExecutionLogRequester); ok {
		p.Trace = &rec.Trace
	}
	if _, ok := m.(ResourceRequester); ok {
		p.Resources = resources
		if p.Resources == nil {
			p.Resources = map[string]value.Value{}
		}
	}
	enc, err := p.Marshal()
	if err != nil {
		return nil, PackageSums{}, err
	}
	sums, err := scanPackage(enc, false)
	return enc, sums, err
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

// Marshal serializes the package for agent baggage, appending every
// field in place into pooled scratch and copying the result out once.
// It passes up the trace's refusal of a trace too large to carry
// (canon.ErrTooLarge).
func (p *ReferencePackage) Marshal() ([]byte, error) {
	var flags byte
	var traceEnc []byte
	if p.Trace != nil {
		flags |= refPkgHasTrace
		var err error
		if traceEnc, err = p.Trace.Marshal(); err != nil {
			return nil, err
		}
	}
	if p.InitialState != nil {
		flags |= refPkgHasInitial
	}
	if p.ResultingState != nil {
		flags |= refPkgHasResulting
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

	buf := canon.GetBuf()
	dst := canon.AppendTupleHeader((*buf)[:0], nfields)
	dst = appendStringField(dst, refPkgWireLabel)
	dst = appendStringField(dst, p.HostName)
	dst = appendUint64Field(dst, uint64(p.Hop))
	dst = appendStringField(dst, p.Entry)
	dst = appendStringField(dst, p.ResultEntry)
	dst = append(canon.AppendFieldHeader(dst, 1), flags)
	dst = appendStateField(dst, p.InitialState)
	dst = appendStateField(dst, p.ResultingState)
	dst = append(canon.AppendFieldHeader(dst, len(traceEnc)), traceEnc...)
	dst = appendUint64Field(dst, uint64(len(p.Input)))
	dst = appendUint64Field(dst, uint64(len(p.Resources)))
	for _, rec := range p.Input {
		dst = appendStringField(dst, rec.Call)
		dst = appendUint64Field(dst, uint64(len(rec.Args)))
		for _, a := range rec.Args {
			dst = canon.AppendValueField(dst, a)
		}
		dst = canon.AppendValueField(dst, rec.Result)
	}
	for _, k := range value.SortedKeys(p.Resources) {
		dst = appendStringField(dst, k)
		dst = canon.AppendValueField(dst, p.Resources[k])
	}
	out := bytes.Clone(dst)
	*buf = dst
	canon.PutBuf(buf)
	return out, nil
}

func appendStringField(dst []byte, s string) []byte {
	return append(canon.AppendFieldHeader(dst, len(s)), s...)
}

func appendUint64Field(dst []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(canon.AppendFieldHeader(dst, 8), v)
}

// appendStateField appends s's encoding as a field, or an empty field
// for an absent state.
func appendStateField(dst []byte, s value.State) []byte {
	if s == nil {
		return canon.AppendFieldHeader(dst, 0)
	}
	return canon.AppendStateField(dst, s)
}

// pkgHeader is the fixed part of a package encoding, fields 1 to 10,
// as readPackageHeader checks it; its slices alias the encoding.
type pkgHeader struct {
	host, entry, resultEntry  []byte
	hop                       int
	flags                     byte
	initial, resulting, trace []byte
	nInput, nRes              uint64
}

func (h *pkgHeader) has(flag byte) bool { return h.flags&flag != 0 }

// readPackageHeader opens a package encoding and reads its fixed
// fields, leaving the scanner at the first input record. No field can
// be longer than the input, and each count is bounded by the fields
// left to read before it sizes an allocation: the counts are attacker
// controlled.
func readPackageHeader(data []byte) (canon.TupleScanner, pkgHeader, error) {
	var h pkgHeader
	bound := len(data)
	s, err := canon.ScanTuple(data)
	if err != nil {
		return s, h, err
	}
	if s.Len() < 11 || string(s.Field(len(refPkgWireLabel))) != refPkgWireLabel {
		return s, h, fmt.Errorf("%w: header", canon.ErrMalformed)
	}
	h.host, h.hop = s.Field(bound), int(s.Uint64())
	h.entry, h.resultEntry = s.Field(bound), s.Field(bound)
	flags := s.Field(1)
	h.initial, h.resulting, h.trace = s.Field(bound), s.Field(bound), s.Field(bound)
	h.nInput, h.nRes = s.Uint64(), s.Uint64()
	switch {
	case s.Err() != nil:
		return s, h, s.Err()
	case len(flags) != 1:
		return s, h, fmt.Errorf("%w: presence flags", canon.ErrMalformed)
	case h.nInput > uint64(s.Len()) || h.nRes > uint64(s.Len()):
		return s, h, fmt.Errorf("%w: counts exceed field count", canon.ErrMalformed)
	}
	h.flags = flags[0]
	switch {
	case h.flags&^refPkgFlags != 0:
		return s, h, fmt.Errorf("%w: unknown presence flags 0x%02x", canon.ErrMalformed, h.flags)
	case !h.has(refPkgHasInitial) && len(h.initial) > 0, !h.has(refPkgHasResulting) && len(h.resulting) > 0,
		!h.has(refPkgHasTrace) && len(h.trace) > 0, !h.has(refPkgHasInput) && h.nInput > 0,
		!h.has(refPkgHasResources) && h.nRes > 0:
		// Marshal leaves empty what a clear flag leaves out.
		return s, h, fmt.Errorf("%w: data under a clear presence flag", canon.ErrMalformed)
	}
	return s, h, nil
}

// UnmarshalReferencePackage parses a package from agent baggage. Every
// rejection wraps canon.ErrMalformed.
func UnmarshalReferencePackage(data []byte) (_ *ReferencePackage, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("core: decoding reference package: %w", err)
		}
	}()
	bound := len(data)
	s, h, err := readPackageHeader(data)
	if err != nil {
		return nil, err
	}
	p := &ReferencePackage{HostName: string(h.host), Hop: h.hop, Entry: string(h.entry), ResultEntry: string(h.resultEntry)}
	if h.has(refPkgHasInitial) {
		if p.InitialState, err = canon.DecodeState(h.initial); err != nil {
			return nil, fmt.Errorf("initial state: %w", err)
		}
	}
	if h.has(refPkgHasResulting) {
		if p.ResultingState, err = canon.DecodeState(h.resulting); err != nil {
			return nil, fmt.Errorf("resulting state: %w", err)
		}
	}
	if h.has(refPkgHasTrace) {
		t, err := trace.Unmarshal(h.trace)
		if err != nil {
			return nil, err
		}
		p.Trace = &t
	}
	if h.has(refPkgHasInput) {
		p.Input = make([]agentlang.InputRecord, 0, h.nInput)
		for i := range int(h.nInput) {
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
	if h.has(refPkgHasResources) {
		p.Resources = make(map[string]value.Value, h.nRes)
		prev := ""
		for i := range h.nRes {
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

// PackageSums is what a checker compares of a reference package with
// the session signed over it, read from the package's encoding.
type PackageSums struct {
	// HostName and Hop name the session; HostName aliases the encoding.
	HostName []byte
	Hop      int
	// Digest is the package digest mechanisms sign (scanPackage
	// defines it); Initial and Resulting are canon.HashState of its
	// states, of an empty state where absent.
	Digest, Initial, Resulting canon.Digest
}

// emptyState is canon.HashState of an absent (nil) state.
var emptyState = canon.HashState(nil)

// ScanReferencePackage accepts exactly the encodings
// UnmarshalReferencePackage accepts and returns their sums, decoding
// nothing: the decoders accept only canonical bytes, so each digest is
// taken straight from the encoded fields. It allocates only for a
// trace, which the checker's packages do not carry, and to word a
// refusal: verdicts quote it, so it is the decoder's error.
func ScanReferencePackage(data []byte) (PackageSums, error) {
	sums, err := scanPackage(data, true)
	if err != nil {
		if _, derr := UnmarshalReferencePackage(data); derr != nil {
			err = derr
		}
	}
	return sums, err
}

// scanPackage reads a package encoding's sums. checked validates every
// state, value and trace field as the decoders would, which a package
// Marshal just wrote needs not.
//
// The package digest is the hash of one tuple: "refpkg", host, hop
// (decimal), entry, result entry, then for each kind present, in this
// order, its label and data: "initial" and "resulting" with the state
// encoding, "input" with one nested tuple (call, args..., result) per
// record, "trace" with the hash of the trace's encoding, "resources"
// with each key and value encoding, keys in order.
func scanPackage(data []byte, checked bool) (PackageSums, error) {
	checkState, checkValue, checkTrace := canon.CheckState, canon.CheckValue, checkTraceField
	if !checked {
		checkState, checkValue, checkTrace = accept, accept, accept
	}
	bound := len(data)
	s, h, err := readPackageHeader(data)
	if err != nil {
		return PackageSums{}, err
	}
	sums := PackageSums{HostName: h.host, Hop: h.hop, Initial: emptyState, Resulting: emptyState}
	nfields := 5
	if h.has(refPkgHasInitial) {
		if err := checkState(h.initial); err != nil {
			return PackageSums{}, fmt.Errorf("initial state: %w", err)
		}
		sums.Initial = canon.HashBytes(h.initial)
		nfields += 2
	}
	if h.has(refPkgHasResulting) {
		if err := checkState(h.resulting); err != nil {
			return PackageSums{}, fmt.Errorf("resulting state: %w", err)
		}
		sums.Resulting = canon.HashBytes(h.resulting)
		nfields += 2
	}
	if h.has(refPkgHasTrace) {
		if err := checkTrace(h.trace); err != nil {
			return PackageSums{}, err
		}
		nfields += 2
	}
	if h.has(refPkgHasInput) {
		nfields += 1 + int(h.nInput)
	}
	if h.has(refPkgHasResources) {
		nfields += 1 + 2*int(h.nRes)
	}

	// The digest's fields, streamed from the encoded ones.
	x := canon.AcquireHasher()
	defer canon.ReleaseHasher(x)
	x.TupleHeader(nfields)
	x.StringField("refpkg")
	x.Field(h.host)
	x.IntField(int64(h.hop))
	x.Field(h.entry)
	x.Field(h.resultEntry)
	if h.has(refPkgHasInitial) {
		x.StringField("initial")
		x.Field(h.initial)
	}
	if h.has(refPkgHasResulting) {
		x.StringField("resulting")
		x.Field(h.resulting)
	}
	if h.has(refPkgHasInput) {
		x.StringField("input")
		for range h.nInput {
			call := s.Field(bound)
			nArgs := s.Uint64()
			if nArgs > uint64(s.Len()) {
				return PackageSums{}, fmt.Errorf("%w: input record args", canon.ErrMalformed)
			}
			// Each record is a nested tuple (call, args, result); a copy
			// of the scanner measures it first.
			size, ahead := 2+4+4+len(call), s
			for range nArgs + 1 {
				size += 4 + len(ahead.Field(bound))
			}
			x.BeginField(size)
			x.TupleHeader(2 + int(nArgs))
			x.Field(call)
			for range nArgs + 1 {
				f := s.Field(bound)
				if err := checkValue(f); err != nil {
					return PackageSums{}, fmt.Errorf("input value: %w", err)
				}
				x.Field(f)
			}
		}
	}
	if h.has(refPkgHasTrace) {
		d := canon.HashBytes(h.trace)
		x.StringField("trace")
		x.Field(d[:])
	}
	if h.has(refPkgHasResources) {
		x.StringField("resources")
		var prev []byte
		for i := range h.nRes {
			k, f := s.Field(bound), s.Field(bound)
			if i > 0 && bytes.Compare(k, prev) <= 0 {
				return PackageSums{}, fmt.Errorf("%w: resource %q does not follow the key before it", canon.ErrMalformed, k)
			}
			if err := checkValue(f); err != nil {
				return PackageSums{}, fmt.Errorf("resource %q: %w", k, err)
			}
			x.Field(k)
			x.Field(f)
			prev = k
		}
	}
	if err := s.End(); err != nil {
		return PackageSums{}, err
	}
	sums.Digest = x.Sum()
	return sums, nil
}

// checkTraceField refuses what trace.Unmarshal refuses.
func checkTraceField(b []byte) error {
	_, err := trace.Unmarshal(b)
	return err
}

// accept stands in for a check scanPackage does not make.
func accept([]byte) error { return nil }
