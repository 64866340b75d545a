package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strconv"

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
// It refuses, with an error wrapping canon.ErrTooLarge, a trace too
// large to carry and an input record too large for the package digest
// (recordFits).
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
	dst = canon.AppendField(dst, refPkgWireLabel)
	dst = canon.AppendField(dst, p.HostName)
	dst = appendUint64Field(dst, uint64(p.Hop))
	dst = canon.AppendField(dst, p.Entry)
	dst = canon.AppendField(dst, p.ResultEntry)
	dst = append(canon.AppendFieldHeader(dst, 1), flags)
	dst = appendStateField(dst, p.InitialState)
	dst = appendStateField(dst, p.ResultingState)
	dst = canon.AppendField(dst, traceEnc)
	dst = appendUint64Field(dst, uint64(len(p.Input)))
	dst = appendUint64Field(dst, uint64(len(p.Resources)))
	for i, rec := range p.Input {
		at := len(dst)
		dst = canon.AppendField(dst, rec.Call)
		dst = appendUint64Field(dst, uint64(len(rec.Args)))
		for _, a := range rec.Args {
			dst = canon.AppendValueField(dst, a)
		}
		dst = canon.AppendValueField(dst, rec.Result)
		if err := recordFits(i, len(dst)-at, canon.ErrTooLarge); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	for _, k := range value.SortedKeys(p.Resources) {
		dst = canon.AppendField(dst, k)
		dst = canon.AppendValueField(dst, p.Resources[k])
	}
	out := bytes.Clone(dst)
	*buf = dst
	canon.PutBuf(buf)
	return out, nil
}

// recordFits refuses, with an error wrapping why, input record i whose
// wire fields (call, arg count, args, result) span wire bytes, if the
// package digest cannot hold it. The digest frames a record as one
// nested tuple (appendPackageDigest), which drops the 12-byte count field and
// opens a 6-byte tuple header, and a canon tuple field holds at most
// canon.MaxLen bytes: a record can exceed that though each of its
// fields fits. Marshal, the decoder and the scan all refuse it here.
func recordFits(i, wire int, why error) error {
	if n := wire - 12 + 6; n > canon.MaxLen {
		return fmt.Errorf("%w: input record %d frames to %d bytes in the package digest, over %d", why, i, n, canon.MaxLen)
	}
	return nil
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
			at := s.Offset()
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
			if err := recordFits(i, s.Offset()-at, canon.ErrMalformed); err != nil {
				return nil, err
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
	// Digest is the package digest mechanisms sign
	// (appendPackageDigest defines it); Initial and Resulting are canon.HashState of its
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
func scanPackage(data []byte, checked bool) (PackageSums, error) {
	checkState, checkValue, checkTrace := canon.CheckState, canon.CheckValue, checkTraceField
	if !checked {
		checkState, checkValue, checkTrace = accept, accept, accept
	}
	s, h, err := readPackageHeader(data)
	if err != nil {
		return PackageSums{}, err
	}
	sums := PackageSums{HostName: h.host, Hop: h.hop, Initial: emptyState, Resulting: emptyState}
	if h.has(refPkgHasInitial) {
		if err := checkState(h.initial); err != nil {
			return PackageSums{}, fmt.Errorf("initial state: %w", err)
		}
		sums.Initial = canon.HashBytes(h.initial)
	}
	if h.has(refPkgHasResulting) {
		if err := checkState(h.resulting); err != nil {
			return PackageSums{}, fmt.Errorf("resulting state: %w", err)
		}
		sums.Resulting = canon.HashBytes(h.resulting)
	}
	if h.has(refPkgHasTrace) {
		if err := checkTrace(h.trace); err != nil {
			return PackageSums{}, err
		}
	}
	sums.Digest = canon.HashAppend(func(dst []byte) []byte {
		dst, err = appendPackageDigest(dst, &s, &h, len(data), checkValue)
		return dst
	})
	if err == nil {
		err = s.End()
	}
	if err != nil {
		return PackageSums{}, err
	}
	return sums, nil
}

// appendPackageDigest appends the tuple the package digest hashes,
// reading the input records and resources from s, which holds them
// after the header h, and checking their values with checkValue.
//
// The tuple is: "refpkg", host, hop (decimal), entry, result entry,
// then for each kind present, in this order, its label and data:
// "initial" and "resulting" with the state encoding, "input" with one
// nested tuple (call, args..., result) per record, "trace" with the
// hash of the trace's encoding, "resources" with each key and value
// encoding, keys in order.
func appendPackageDigest(dst []byte, s *canon.TupleScanner, h *pkgHeader, bound int, checkValue func([]byte) error) ([]byte, error) {
	nfields := 5
	for _, flag := range []byte{refPkgHasInitial, refPkgHasResulting, refPkgHasTrace} {
		if h.has(flag) {
			nfields += 2
		}
	}
	if h.has(refPkgHasInput) {
		nfields += 1 + int(h.nInput)
	}
	if h.has(refPkgHasResources) {
		nfields += 1 + 2*int(h.nRes)
	}
	var hop [20]byte
	dst = canon.AppendTupleHeader(dst, nfields)
	dst = canon.AppendField(dst, "refpkg")
	dst = canon.AppendField(dst, h.host)
	dst = canon.AppendField(dst, strconv.AppendInt(hop[:0], int64(h.hop), 10))
	dst = canon.AppendField(dst, h.entry)
	dst = canon.AppendField(dst, h.resultEntry)
	if h.has(refPkgHasInitial) {
		dst = canon.AppendField(canon.AppendField(dst, "initial"), h.initial)
	}
	if h.has(refPkgHasResulting) {
		dst = canon.AppendField(canon.AppendField(dst, "resulting"), h.resulting)
	}
	if h.has(refPkgHasInput) {
		dst = canon.AppendField(dst, "input")
		for i := range int(h.nInput) {
			at, from := len(dst), s.Offset()
			call := s.Field(bound)
			nArgs := s.Uint64()
			if nArgs > uint64(s.Len()) {
				return dst, fmt.Errorf("%w: input record args", canon.ErrMalformed)
			}
			// The record's nested tuple, framed once it is written.
			dst = canon.AppendTupleHeader(canon.AppendFieldHeader(dst, 0), 2+int(nArgs))
			dst = canon.AppendField(dst, call)
			for range nArgs + 1 {
				f := s.Field(bound)
				if err := checkValue(f); err != nil {
					return dst, fmt.Errorf("input value: %w", err)
				}
				dst = canon.AppendField(dst, f)
			}
			if err := recordFits(i, s.Offset()-from, canon.ErrMalformed); err != nil {
				return dst, err
			}
			dst = canon.CloseField(dst, at)
		}
	}
	if h.has(refPkgHasTrace) {
		d := canon.HashBytes(h.trace)
		dst = canon.AppendField(canon.AppendField(dst, "trace"), d[:])
	}
	if h.has(refPkgHasResources) {
		dst = canon.AppendField(dst, "resources")
		var prev []byte
		for i := range h.nRes {
			k, f := s.Field(bound), s.Field(bound)
			if i > 0 && bytes.Compare(k, prev) <= 0 {
				return dst, fmt.Errorf("%w: resource %q does not follow the key before it", canon.ErrMalformed, k)
			}
			if err := checkValue(f); err != nil {
				return dst, fmt.Errorf("resource %q: %w", k, err)
			}
			dst = canon.AppendField(canon.AppendField(dst, k), f)
			prev = k
		}
	}
	return dst, nil
}

// checkTraceField refuses what trace.Unmarshal refuses.
func checkTraceField(b []byte) error {
	_, err := trace.Unmarshal(b)
	return err
}

// accept stands in for a check scanPackage does not make.
func accept([]byte) error { return nil }
