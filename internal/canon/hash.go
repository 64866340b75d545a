package canon

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"slices"
	"strconv"
	"sync"

	"repro/internal/value"
)

// Hasher streams the canonical encoding of values, states, and framed
// tuples directly into a running SHA-256 state. Digesting through a
// Hasher produces exactly the digest of the materialized encoding
// (sha256(EncodeState(s)) etc.) without ever building the intermediate
// byte slice, so the protection mechanisms' per-session digest tax is
// bounded by hashing throughput, not allocator churn.
//
// A Hasher is not safe for concurrent use. The package-level Hash*
// helpers manage a pooled instance; construct one explicitly with
// NewHasher only when composing custom framings.
type Hasher struct {
	h hash.Hash
	// buf batches the format's many 1-9 byte writes into few large
	// hash.Write calls; n is the fill level.
	buf [512]byte
	n   int
	// sum receives the finalized digest without allocating.
	sum [sha256.Size]byte
	// numBuf stages decimal renderings for IntField without escaping a
	// stack buffer into the hash's Write.
	numBuf [20]byte
	// keys is per-nesting-depth sorted-key scratch, reused across calls
	// so steady-state map hashing allocates nothing.
	keys [][]string
}

// NewHasher returns a Hasher with a fresh SHA-256 state.
func NewHasher() *Hasher { return &Hasher{h: sha256.New()} }

var hasherPool = sync.Pool{New: func() any { return NewHasher() }}

// Reset rewinds the hash state so the Hasher can digest a new encoding.
func (x *Hasher) Reset() {
	x.h.Reset()
	x.n = 0
}

// Sum finalizes and returns the digest of everything streamed since the
// last Reset.
func (x *Hasher) Sum() Digest {
	x.flush()
	x.h.Sum(x.sum[:0])
	return Digest(x.sum)
}

func (x *Hasher) flush() {
	if x.n > 0 {
		x.h.Write(x.buf[:x.n])
		x.n = 0
	}
}

func (x *Hasher) writeByte(b byte) {
	if x.n == len(x.buf) {
		x.flush()
	}
	x.buf[x.n] = b
	x.n++
}

func (x *Hasher) writeU32(v uint32) {
	if x.n+4 > len(x.buf) {
		x.flush()
	}
	binary.BigEndian.PutUint32(x.buf[x.n:], v)
	x.n += 4
}

func (x *Hasher) writeU64(v uint64) {
	if x.n+8 > len(x.buf) {
		x.flush()
	}
	binary.BigEndian.PutUint64(x.buf[x.n:], v)
	x.n += 8
}

func (x *Hasher) writeString(s string) {
	for len(s) > 0 {
		if x.n == len(x.buf) {
			x.flush()
		}
		c := copy(x.buf[x.n:], s)
		x.n += c
		s = s[c:]
	}
}

func (x *Hasher) writeBytes(b []byte) {
	if len(b) >= len(x.buf) {
		// Large payloads bypass the batching buffer.
		x.flush()
		x.h.Write(b)
		return
	}
	if x.n+len(b) > len(x.buf) {
		x.flush()
	}
	x.n += copy(x.buf[x.n:], b)
}

// sortedKeys returns m's keys in ascending order using the depth-local
// scratch slice, so recursion into nested maps never clobbers an outer
// level's keys.
func (x *Hasher) sortedKeys(depth int, m map[string]value.Value) []string {
	for len(x.keys) <= depth {
		x.keys = append(x.keys, nil)
	}
	ks := x.keys[depth][:0]
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	x.keys[depth] = ks
	return ks
}

// Version streams the leading version byte of a top-level encoding.
func (x *Hasher) Version() { x.writeByte(version) }

// Value streams the canonical encoding of v, byte-identical to
// AppendValue.
func (x *Hasher) Value(v value.Value) { x.value(v, 0) }

func (x *Hasher) value(v value.Value, depth int) {
	switch v.Kind {
	case value.KindInt:
		x.writeByte(tagInt)
		x.writeU64(uint64(v.Int))
	case value.KindString:
		x.writeByte(tagString)
		x.writeU32(guardLen("string", len(v.Str)))
		x.writeString(v.Str)
	case value.KindBool:
		x.writeByte(tagBool)
		if v.Bool {
			x.writeByte(1)
		} else {
			x.writeByte(0)
		}
	case value.KindList:
		x.writeByte(tagList)
		x.writeU32(guardLen("list", len(v.List)))
		for _, e := range v.List {
			x.value(e, depth)
		}
	case value.KindMap:
		x.writeByte(tagMap)
		keys := x.sortedKeys(depth, v.Map)
		x.writeU32(guardLen("map", len(keys)))
		for _, k := range keys {
			x.writeU32(guardLen("map key", len(k)))
			x.writeString(k)
			x.value(v.Map[k], depth+1)
		}
	default:
		x.writeByte(tagNull)
	}
}

// State streams the canonical encoding of s, byte-identical to
// AppendState.
func (x *Hasher) State(s value.State) {
	x.writeByte(tagState)
	names := x.sortedKeys(0, s)
	x.writeU32(guardLen("state", len(names)))
	for _, k := range names {
		x.writeU32(guardLen("state var", len(k)))
		x.writeString(k)
		x.value(s[k], 1)
	}
}

// TupleHeader begins a framed tuple of n fields, including the version
// prefix. It must be followed by exactly n Field/StringField/IntField/
// ValueField calls (or BeginField and its bytes) to produce a
// well-formed tuple encoding.
func (x *Hasher) TupleHeader(n int) {
	x.writeByte(version)
	x.writeByte(tagTuple)
	x.writeU32(guardLen("tuple", n))
}

// Field streams one length-framed byte field.
func (x *Hasher) Field(b []byte) {
	x.writeU32(guardLen("tuple field", len(b)))
	x.writeBytes(b)
}

// StringField streams one length-framed string field without a []byte
// conversion.
func (x *Hasher) StringField(s string) {
	x.writeU32(guardLen("tuple field", len(s)))
	x.writeString(s)
}

// IntField streams a framed field holding n's decimal rendering — the
// framing protocol bindings use for hop and statement counters.
func (x *Hasher) IntField(n int64) {
	b := strconv.AppendInt(x.numBuf[:0], n, 10)
	x.writeU32(uint32(len(b)))
	x.writeBytes(b)
}

// ValueField streams the field AppendValueField(nil, v) appends,
// without materializing it.
func (x *Hasher) ValueField(v value.Value) {
	x.writeU32(guardLen("tuple field", 1+SizeValue(v)))
	x.writeByte(version)
	x.value(v, 0)
}

// SizeValue returns the exact number of bytes AppendValue(nil, v) would
// emit, without encoding. It exists so streamed tuple framings can
// length-prefix a value field before its bytes are produced.
func SizeValue(v value.Value) int {
	switch v.Kind {
	case value.KindInt:
		return 1 + 8
	case value.KindString:
		return 1 + 4 + len(v.Str)
	case value.KindBool:
		return 1 + 1
	case value.KindList:
		n := 1 + 4
		for _, e := range v.List {
			n += SizeValue(e)
		}
		return n
	case value.KindMap:
		n := 1 + 4
		for k, e := range v.Map {
			n += 4 + len(k) + SizeValue(e)
		}
		return n
	default:
		return 1
	}
}

// AcquireHasher returns a pooled Hasher, reset and ready to stream.
// Pair with ReleaseHasher once the digest has been taken.
func AcquireHasher() *Hasher {
	x := hasherPool.Get().(*Hasher)
	x.Reset()
	return x
}

// ReleaseHasher recycles a Hasher obtained from AcquireHasher.
func ReleaseHasher(x *Hasher) { hasherPool.Put(x) }

// BeginField frames a tuple field of exactly size bytes that the
// caller streams next (e.g. a nested TupleHeader + fields). The caller
// is responsible for the size matching the streamed bytes; SizeValue
// provides the value-encoding sizes.
func (x *Hasher) BeginField(size int) {
	x.writeU32(guardLen("tuple field", size))
}

// bufPool recycles encode scratch for call sites that need canonical
// bytes only transiently — signature bindings, wire payload assembly —
// so the hot protocol paths stop allocating per message.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// GetBuf returns a pooled scratch buffer of length zero. Return it with
// PutBuf once no reference to its bytes survives (copy anything that
// must outlive the call).
func GetBuf() *[]byte {
	return bufPool.Get().(*[]byte)
}

// PutBuf recycles a buffer obtained from GetBuf. Oversized buffers are
// dropped so one huge state cannot pin memory in the pool forever.
func PutBuf(b *[]byte) {
	if cap(*b) > 1<<20 {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}
