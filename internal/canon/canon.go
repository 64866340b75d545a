// Package canon provides the canonical, deterministic binary encoding
// of agent values and states.
//
// Reference-state mechanisms compare states produced on different hosts
// by comparing cryptographic digests. That only works if the encoding of
// a state is a pure function of its logical content: map iteration
// order, struct field padding, or gob type negotiation must not leak
// into the bytes. canon therefore defines its own minimal tag-length-
// value format with sorted map keys and fixed-width big-endian integers.
//
// The format is versioned by a leading magic byte so that future
// revisions cannot be confused with the current one.
package canon

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/value"
)

// Format tags. Every encoded value starts with one tag byte.
const (
	tagNull   byte = 0x01
	tagInt    byte = 0x02
	tagString byte = 0x03
	tagBool   byte = 0x04
	tagList   byte = 0x05
	tagMap    byte = 0x06
	tagState  byte = 0x07
	tagTuple  byte = 0x09
)

// version is the leading byte of every top-level encoding.
const version byte = 0x01

// ErrMalformed is returned when decoding input that is not a valid
// canonical encoding.
var ErrMalformed = errors.New("canon: malformed encoding")

// ErrTooLarge is the sentinel wrapped by the *SizeError panic raised
// when encoding a value whose length exceeds the format's maximum. It
// exists so callers can errors.Is a recovered panic value.
var ErrTooLarge = errors.New("canon: length exceeds encodable maximum")

// SizeError is the typed panic value raised by the encoding paths when
// a string, list, map, state, or tuple is too long for the format's
// 32-bit length prefixes. Emitting a truncated prefix instead would
// produce bytes the decoder misparses — a silent digest mismatch — so
// oversized input is treated as a programming error, not a value.
type SizeError struct {
	What string
	N    int
}

// Error names the oversized element and the format's maximum.
func (e *SizeError) Error() string {
	return fmt.Sprintf("canon: %s length %d exceeds maximum %d", e.What, e.N, MaxLen)
}

// Unwrap lets errors.Is(err, ErrTooLarge) match a recovered SizeError.
func (e *SizeError) Unwrap() error { return ErrTooLarge }

// guardLen validates a length against MaxLen before it is narrowed to
// the wire's uint32 prefix.
func guardLen(what string, n int) uint32 {
	if n > MaxLen {
		panic(&SizeError{What: what, N: n})
	}
	return uint32(n)
}

// MaxLen, 64 MiB, bounds every length the format carries: a string,
// list, map or state, a tuple's field count and one tuple field. It
// bounds them during decoding so a hostile peer cannot force huge
// allocations from a short message, and during encoding so a length can
// never be silently truncated to its 32-bit prefix.
const MaxLen = 1 << 26

// writer is the walk of AppendValue and AppendState, canon's one
// writer: every encoding, and so every digest, is the bytes it appends
// to dst. keys, taken from keysPool at the first map or state, sorts
// each nesting depth's keys into that depth's own slice, so an inner
// map never clobbers the keys an outer one is walking and steady-state
// encoding allocates nothing beyond dst's growth.
type writer struct {
	dst  []byte
	keys *[][]string
}

var keysPool = sync.Pool{New: func() any { return new([][]string) }}

// done returns the key scratch to its pool and the encoding to the
// caller.
func (w *writer) done() []byte {
	if w.keys != nil {
		keysPool.Put(w.keys)
	}
	return w.dst
}

// sortedKeys returns m's keys in ascending order in depth's scratch.
func (w *writer) sortedKeys(depth int, m map[string]value.Value) []string {
	if w.keys == nil {
		w.keys = keysPool.Get().(*[][]string)
	}
	for len(*w.keys) <= depth {
		*w.keys = append(*w.keys, nil)
	}
	ks := (*w.keys)[depth][:0]
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	(*w.keys)[depth] = ks
	return ks
}

// AppendValue appends the canonical encoding of v to dst and returns
// the extended slice.
func AppendValue(dst []byte, v value.Value) []byte {
	w := writer{dst: dst}
	w.value(v, 0)
	return w.done()
}

// AppendState appends the canonical encoding of a state (sorted by
// variable name) to dst.
func AppendState(dst []byte, s value.State) []byte {
	w := writer{dst: dst}
	w.state(s)
	return w.done()
}

// value appends v, whose maps sort their keys in depth's scratch and
// deeper.
func (w *writer) value(v value.Value, depth int) {
	switch v.Kind {
	case value.KindInt:
		w.dst = append(w.dst, tagInt)
		w.dst = binary.BigEndian.AppendUint64(w.dst, uint64(v.Int))
	case value.KindString:
		w.dst = append(w.dst, tagString)
		w.dst = binary.BigEndian.AppendUint32(w.dst, guardLen("string", len(v.Str)))
		w.dst = append(w.dst, v.Str...)
	case value.KindBool:
		w.dst = append(w.dst, tagBool)
		if v.Bool {
			w.dst = append(w.dst, 1)
		} else {
			w.dst = append(w.dst, 0)
		}
	case value.KindList:
		w.dst = append(w.dst, tagList)
		w.dst = binary.BigEndian.AppendUint32(w.dst, guardLen("list", len(v.List)))
		for _, e := range v.List {
			w.value(e, depth)
		}
	case value.KindMap:
		w.dst = append(w.dst, tagMap)
		w.keyed(v.Map, depth)
	default:
		w.dst = append(w.dst, tagNull)
	}
}

// state appends s: its names sort at depth 0, its values at depth 1.
func (w *writer) state(s value.State) {
	w.dst = append(w.dst, tagState)
	w.keyed(s, 0)
}

// keyed appends m's length and its pairs in key order.
func (w *writer) keyed(m map[string]value.Value, depth int) {
	keys := w.sortedKeys(depth, m)
	w.dst = binary.BigEndian.AppendUint32(w.dst, guardLen("map", len(keys)))
	for _, k := range keys {
		w.dst = binary.BigEndian.AppendUint32(w.dst, guardLen("map key", len(k)))
		w.dst = append(w.dst, k...)
		w.value(m[k], depth+1)
	}
}

// EncodeState returns the canonical encoding of an agent state,
// including the version prefix.
func EncodeState(s value.State) []byte {
	dst := make([]byte, 0, 256)
	dst = append(dst, version)
	return AppendState(dst, s)
}

// Tuple encodes a heterogeneous sequence of already-encoded byte fields
// with length framing. It is used to bind several digests together
// (e.g. agent ID + hop + state digest) before signing, preventing
// ambiguity attacks that concatenation without framing would allow.
func Tuple(fields ...[]byte) []byte {
	n := 2 + 4
	for _, f := range fields {
		n += 4 + len(f)
	}
	return AppendTuple(make([]byte, 0, n), fields...)
}

// AppendTuple appends the framed tuple encoding of fields to dst and
// returns the extended slice. Combined with GetBuf/PutBuf it lets hot
// signing paths assemble bindings without a per-message allocation.
func AppendTuple(dst []byte, fields ...[]byte) []byte {
	dst = AppendTupleHeader(dst, len(fields))
	for _, f := range fields {
		dst = AppendField(dst, f)
	}
	return dst
}

// AppendTupleHeader opens a tuple of n fields, version prefix included,
// for codecs that write a record in place (the twin of TupleHeader).
func AppendTupleHeader(dst []byte, n int) []byte {
	dst = append(dst, version, tagTuple)
	return binary.BigEndian.AppendUint32(dst, guardLen("tuple", n))
}

// AppendFieldHeader frames a field of size bytes the caller appends next.
func AppendFieldHeader(dst []byte, size int) []byte {
	return binary.BigEndian.AppendUint32(dst, guardLen("tuple field", size))
}

// AppendField appends f as one framed field.
func AppendField[F string | []byte](dst []byte, f F) []byte {
	return append(AppendFieldHeader(dst, len(f)), f...)
}

// AppendValueField appends a framed field holding v's canonical
// encoding, version byte first, as DecodeValue reads it. The frame is
// written once the bytes are, so v is walked once.
func AppendValueField(dst []byte, v value.Value) []byte {
	at := len(dst)
	return CloseField(AppendValue(append(dst, 0, 0, 0, 0, version), v), at)
}

// AppendStateField appends a framed field holding EncodeState(s),
// walking s once.
func AppendStateField(dst []byte, s value.State) []byte {
	at := len(dst)
	return CloseField(AppendState(append(dst, 0, 0, 0, 0, version), s), at)
}

// CloseField writes the frame reserved at dst[at:at+4] (by
// AppendFieldHeader(dst, 0)) for the bytes appended after it, so a
// field is framed without measuring it first. Like every frame it
// panics with a *SizeError over MaxLen.
func CloseField(dst []byte, at int) []byte {
	binary.BigEndian.PutUint32(dst[at:], guardLen("tuple field", len(dst)-at-4))
	return dst
}

// ExtendTuple appends to dst a copy of tuple — a framed tuple that
// ScanTuple accepts — with fields added at its end and its field count
// raised to match. It lets a codec append a record to an encoded list
// without re-encoding (or decoding) the records already there.
func ExtendTuple(dst, tuple []byte, fields ...[]byte) []byte {
	at := len(dst)
	dst = append(dst, tuple...)
	n := binary.BigEndian.Uint32(dst[at+2:])
	binary.BigEndian.PutUint32(dst[at+2:], guardLen("tuple", int(n)+len(fields)))
	for _, f := range fields {
		dst = AppendField(dst, f)
	}
	return dst
}

// tupleHeaderLen is the framing before a tuple's first field: version,
// tag, and the 4-byte field count.
const tupleHeaderLen = 1 + 1 + 4

// TupleScanner reads a framed tuple's fields in order, in place: every
// field aliases the input and nothing is allocated, so a codec can
// validate a record — or step over it — without materialising it.
// Errors are sticky: after the first bad field every read returns the
// zero value, and End reports the error.
type TupleScanner struct {
	d    decoder
	left int
	err  error
}

// ScanTuple checks b's tuple header and returns a scanner over its
// fields. A declared field count the remaining bytes cannot hold (each
// field costs at least its 4-byte length prefix) is refused here, so
// Len bounds what a caller may allocate by the input's own length.
// Every rejection wraps ErrMalformed.
func ScanTuple(b []byte) (TupleScanner, error) {
	if len(b) < tupleHeaderLen {
		return TupleScanner{}, fmt.Errorf("%w: truncated tuple header", ErrMalformed)
	}
	if b[0] != version {
		return TupleScanner{}, fmt.Errorf("%w: unsupported version 0x%02x", ErrMalformed, b[0])
	}
	if b[1] != tagTuple {
		return TupleScanner{}, fmt.Errorf("%w: expected tuple tag, got 0x%02x", ErrMalformed, b[1])
	}
	n := binary.BigEndian.Uint32(b[2:])
	if n > MaxLen || int(n) > (len(b)-tupleHeaderLen)/4 {
		return TupleScanner{}, fmt.Errorf("%w: %d fields declared in %d bytes", ErrMalformed, n, len(b))
	}
	return TupleScanner{d: decoder{buf: b, off: tupleHeaderLen}, left: int(n)}, nil
}

// MaxNameLen bounds a name field in the record codecs built on
// ScanList: an agent ID, a host or signer, a mechanism or procedure.
// Real names are tens of bytes.
const MaxNameLen = 1024

// List encodes a bounded record list, the form ScanList reads: label,
// then one field per record. It refuses what ScanList with the same
// bounds would: more than maxRecords records, or over maxBytes bytes.
func List(label string, maxBytes, maxRecords int, records [][]byte) ([]byte, error) {
	if len(records) > maxRecords {
		return nil, fmt.Errorf("%w: %d records over %d", ErrMalformed, len(records), maxRecords)
	}
	fields := make([][]byte, 0, 1+len(records))
	fields = append(fields, []byte(label))
	out := Tuple(append(fields, records...)...)
	if len(out) > maxBytes {
		return nil, fmt.Errorf("%w: %d bytes over %d", ErrMalformed, len(out), maxBytes)
	}
	return out, nil
}

// ScanList opens a bounded record list: a tuple of at most maxBytes
// bytes whose first field is label, followed by at most maxRecords
// fields. The byte bound is checked before anything is parsed. The
// scanner returned is positioned after the label; its Len is the record
// count.
func ScanList(data []byte, label string, maxBytes, maxRecords int) (TupleScanner, error) {
	if len(data) > maxBytes {
		return TupleScanner{}, fmt.Errorf("%w: %d bytes over %d", ErrMalformed, len(data), maxBytes)
	}
	s, err := ScanTuple(data)
	if err != nil {
		return s, err
	}
	if s.Len() == 0 || string(s.Field(len(label))) != label {
		return TupleScanner{}, fmt.Errorf("%w: missing %q label", ErrMalformed, label)
	}
	if s.Len() > maxRecords {
		return TupleScanner{}, fmt.Errorf("%w: %d records over %d", ErrMalformed, s.Len(), maxRecords)
	}
	return s, nil
}

// Len returns the number of fields not yet read.
func (s *TupleScanner) Len() int { return s.left }

// Offset returns how many bytes of the tuple the scanner has read, so a
// codec can measure a run of fields by the difference of two offsets.
func (s *TupleScanner) Offset() int { return s.d.off }

// Err returns the scanner's first error, if a read has failed.
func (s *TupleScanner) Err() error { return s.err }

// fail records the scanner's first error.
func (s *TupleScanner) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	s.left = 0
}

// Field returns the next field, which must hold at most max bytes.
func (s *TupleScanner) Field(max int) []byte {
	if s.err != nil {
		return nil
	}
	if s.left == 0 {
		s.fail(fmt.Errorf("%w: tuple has fewer fields than read", ErrMalformed))
		return nil
	}
	n, err := s.d.uint32()
	if err != nil {
		s.fail(fmt.Errorf("%w: %w", ErrMalformed, err))
		return nil
	}
	if int64(n) > int64(max) {
		s.fail(fmt.Errorf("%w: %d-byte field over its bound of %d", ErrMalformed, n, max))
		return nil
	}
	f, err := s.d.bytes(int(n))
	if err != nil {
		s.fail(fmt.Errorf("%w: %w", ErrMalformed, err))
		return nil
	}
	s.left--
	return f
}

// fixed returns the next field, which must hold exactly n bytes.
func (s *TupleScanner) fixed(n int) []byte {
	f := s.Field(n)
	if s.err == nil && len(f) != n {
		s.fail(fmt.Errorf("%w: %d-byte field, want %d", ErrMalformed, len(f), n))
		return nil
	}
	return f
}

// Uint64 reads an 8-byte big-endian integer field.
func (s *TupleScanner) Uint64() uint64 {
	if f := s.fixed(8); f != nil {
		return binary.BigEndian.Uint64(f)
	}
	return 0
}

// Digest reads a digest-length field.
func (s *TupleScanner) Digest() Digest {
	if f := s.fixed(len(Digest{})); f != nil {
		return Digest(f)
	}
	return Digest{}
}

// End returns the scanner's first error, or an error unless every
// field has been read and nothing trails the tuple.
func (s *TupleScanner) End() error {
	switch {
	case s.err != nil:
		return s.err
	case s.left != 0:
		return fmt.Errorf("%w: %d fields left unread", ErrMalformed, s.left)
	case s.d.off != len(s.d.buf):
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(s.d.buf)-s.d.off)
	}
	return nil
}

// Uint64Field returns v as the 8-byte big-endian field the tuple codecs
// carry integers in (TupleScanner.Uint64 reads it back).
func Uint64Field(v uint64) []byte {
	return binary.BigEndian.AppendUint64(make([]byte, 0, 8), v)
}

// decoder walks an encoded buffer.
type decoder struct {
	buf   []byte
	off   int
	depth int // lists and maps open around off
}

// maxDepth bounds how deep decoded lists and maps may nest. value
// recurses once per level, and five bytes buy a level: without a bound
// a peer overflows the stack, which Go cannot recover from, with a
// message far below MaxLen. Encoding has no such bound: what a running
// agent nests deeper than this (x = list(x) in a loop) still encodes,
// and is refused by the next host.
const maxDepth = 256

// enter opens one list or map; the caller closes it with d.depth--.
func (d *decoder) enter() error {
	if d.depth++; d.depth > maxDepth {
		return fmt.Errorf("%w: nesting deeper than %d levels", ErrMalformed, maxDepth)
	}
	return nil
}

func (d *decoder) byte() (byte, error) {
	if d.off >= len(d.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

func (d *decoder) uint32() (uint32, error) {
	if d.off+4 > len(d.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, nil
}

func (d *decoder) uint64() (uint64, error) {
	if d.off+8 > len(d.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

func (d *decoder) bytes(n int) ([]byte, error) {
	if n < 0 || n > MaxLen || d.off+n > len(d.buf) {
		return nil, io.ErrUnexpectedEOF
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

// count reads a string, list, map or state length.
func (d *decoder) count() (int, error) {
	n, err := d.uint32()
	if err == nil && n > MaxLen {
		err = fmt.Errorf("%w: length %d over %d", ErrMalformed, n, MaxLen)
	}
	return int(n), err
}

func (d *decoder) value() (value.Value, error) {
	tag, err := d.byte()
	if err != nil {
		return value.Null(), err
	}
	switch tag {
	case tagNull:
		return value.Null(), nil
	case tagInt:
		u, err := d.uint64()
		return value.Int(int64(u)), err
	case tagString:
		n, err := d.count()
		if err != nil {
			return value.Null(), err
		}
		b, err := d.bytes(n)
		return value.Str(string(b)), err
	case tagBool:
		b, err := d.byte()
		if err == nil && b > 1 {
			err = fmt.Errorf("%w: bool byte 0x%02x", ErrMalformed, b)
		}
		return value.Bool(b == 1), err
	case tagList:
		n, err := d.count()
		if err == nil {
			err = d.enter()
		}
		if err != nil {
			return value.Null(), err
		}
		elems := make([]value.Value, 0, min(n, 1024))
		for i := 0; i < n; i++ {
			e, err := d.value()
			if err != nil {
				return value.Null(), err
			}
			elems = append(elems, e)
		}
		d.depth--
		return value.List(elems...), nil
	case tagMap:
		n, err := d.count()
		if err == nil {
			err = d.enter()
		}
		if err != nil {
			return value.Null(), err
		}
		m := make(map[string]value.Value, min(n, 1024))
		if err := d.keyed(n, m); err != nil {
			return value.Null(), err
		}
		d.depth--
		return value.Map(m), nil
	default:
		return value.Null(), fmt.Errorf("%w: unknown tag 0x%02x", ErrMalformed, tag)
	}
}

// keyed reads n key/value pairs into m. The keys must strictly
// increase, as AppendValue and AppendState write them: a key out of
// order or repeated would decode to a value whose encoding, and so its
// digest, differs from the bytes it came from.
func (d *decoder) keyed(n int, m map[string]value.Value) error {
	prev := ""
	for i := 0; i < n; i++ {
		kn, err := d.count()
		if err != nil {
			return err
		}
		kb, err := d.bytes(kn)
		if err != nil {
			return err
		}
		k := string(kb)
		if i > 0 && k <= prev {
			return fmt.Errorf("%w: key %d does not follow the key before it", ErrMalformed, i)
		}
		e, err := d.value()
		if err != nil {
			return err
		}
		m[k] = e
		prev = k
	}
	return nil
}

// decodeTop reads a top-level encoding: the version byte, then a state
// if state is set and a value otherwise, then nothing. Every rejection
// wraps ErrMalformed. A flag, not a callback, keeps d on the stack.
func decodeTop(b []byte, state bool) (value.Value, value.State, error) {
	d := &decoder{buf: b}
	var v value.Value
	var s value.State
	ver, err := d.byte()
	switch {
	case err != nil:
	case ver != version:
		err = fmt.Errorf("unsupported version 0x%02x", ver)
	case state:
		s, err = d.state()
	default:
		v, err = d.value()
	}
	if err == nil && d.off != len(b) {
		err = fmt.Errorf("%d trailing bytes", len(b)-d.off)
	}
	if err == nil {
		return v, s, nil
	}
	if !errors.Is(err, ErrMalformed) {
		err = fmt.Errorf("%w: %w", ErrMalformed, err)
	}
	return value.Null(), nil, err
}

// state reads a state's tag and its variables.
func (d *decoder) state() (value.State, error) {
	if tag, err := d.byte(); err != nil || tag != tagState {
		return nil, fmt.Errorf("%w: expected state tag", ErrMalformed)
	}
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	s := make(value.State, min(n, 1024))
	return s, d.keyed(n, s)
}

// DecodeValue parses a canonical value encoding: the version byte, then
// AppendValue's bytes (the field AppendValueField frames). It accepts
// only canonical bytes: a value it returns encodes back to exactly its
// input. Every rejection wraps ErrMalformed.
func DecodeValue(b []byte) (value.Value, error) {
	v, _, err := decodeTop(b, false)
	return v, err
}

// DecodeState parses a canonical state encoding produced by EncodeState.
// Like DecodeValue it accepts only canonical bytes.
func DecodeState(b []byte) (value.State, error) {
	_, s, err := decodeTop(b, true)
	return s, err
}

// CheckValue accepts exactly the bytes DecodeValue accepts, building
// nothing: an accepted b is canonical, so HashBytes(b) is the digest of
// the value it encodes. It allocates only to word a rejection, which
// wraps ErrMalformed.
func CheckValue(b []byte) error { return checkTop(b, false) }

// CheckState accepts exactly the bytes DecodeState accepts, building
// nothing: HashBytes of an accepted b is HashState of the state it
// encodes.
func CheckState(b []byte) error { return checkTop(b, true) }

// checkTop is decodeTop's twin for CheckValue and CheckState.
func checkTop(b []byte, state bool) error {
	d := decoder{buf: b}
	ver, err := d.byte()
	switch {
	case err != nil:
	case ver != version:
		err = fmt.Errorf("unsupported version 0x%02x", ver)
	case state:
		err = d.skipState()
	default:
		err = d.skip()
	}
	if err == nil && d.off != len(b) {
		err = fmt.Errorf("%d trailing bytes", len(b)-d.off)
	}
	if err != nil && !errors.Is(err, ErrMalformed) {
		err = fmt.Errorf("%w: %w", ErrMalformed, err)
	}
	return err
}

// skip steps over one value, refusing what value refuses.
func (d *decoder) skip() error {
	tag, err := d.byte()
	if err != nil {
		return err
	}
	switch tag {
	case tagNull:
		return nil
	case tagInt:
		_, err := d.uint64()
		return err
	case tagString:
		n, err := d.count()
		if err == nil {
			_, err = d.bytes(n)
		}
		return err
	case tagBool:
		b, err := d.byte()
		if err == nil && b > 1 {
			err = fmt.Errorf("%w: bool byte 0x%02x", ErrMalformed, b)
		}
		return err
	case tagList, tagMap:
		n, err := d.count()
		if err == nil {
			err = d.enter()
		}
		if err != nil {
			return err
		}
		if tag == tagMap {
			err = d.skipKeyed(n)
		} else {
			for i := 0; err == nil && i < n; i++ {
				err = d.skip()
			}
		}
		d.depth--
		return err
	default:
		return fmt.Errorf("%w: unknown tag 0x%02x", ErrMalformed, tag)
	}
}

// skipState steps over a state's tag and variables, refusing what state
// refuses.
func (d *decoder) skipState() error {
	if tag, err := d.byte(); err != nil || tag != tagState {
		return fmt.Errorf("%w: expected state tag", ErrMalformed)
	}
	n, err := d.count()
	if err != nil {
		return err
	}
	return d.skipKeyed(n)
}

// skipKeyed steps over n key/value pairs, refusing what keyed refuses.
func (d *decoder) skipKeyed(n int) error {
	var prev []byte
	for i := 0; i < n; i++ {
		kn, err := d.count()
		if err != nil {
			return err
		}
		k, err := d.bytes(kn)
		if err != nil {
			return err
		}
		if i > 0 && bytes.Compare(k, prev) <= 0 {
			return fmt.Errorf("%w: key %d does not follow the key before it", ErrMalformed, i)
		}
		if err := d.skip(); err != nil {
			return err
		}
		prev = k
	}
	return nil
}
