package canon

import (
	"crypto/sha256"
	"fmt"
	"sync"

	"repro/internal/value"
)

// Digest is a SHA-256 digest of a canonical encoding.
type Digest [sha256.Size]byte

// String returns the first 12 hex digits, enough for log readability.
func (d Digest) String() string { return fmt.Sprintf("%x", d[:6]) }

// HashBytes digests an arbitrary byte string.
func HashBytes(b []byte) Digest { return sha256.Sum256(b) }

// HashAppend digests the bytes write appends to an empty pooled
// buffer. Every digest of a canonical encoding is taken this way: canon
// has one writer, AppendValue and AppendState with the tuple framing
// beside them, and a digest is the SHA-256 of its bytes.
func HashAppend(write func(dst []byte) []byte) Digest {
	buf := GetBuf()
	*buf = write((*buf)[:0])
	d := HashBytes(*buf)
	PutBuf(buf)
	return d
}

// HashValue digests the canonical encoding of a value.
func HashValue(v value.Value) Digest {
	return HashAppend(func(dst []byte) []byte { return AppendValue(append(dst, version), v) })
}

// HashState digests the canonical encoding of a state. Two states have
// equal digests iff they bind the same variables to equal values (up to
// hash collisions).
func HashState(s value.State) Digest {
	return HashAppend(func(dst []byte) []byte { return AppendState(append(dst, version), s) })
}

// HashTuple digests a framed tuple of byte fields.
func HashTuple(fields ...[]byte) Digest {
	return HashAppend(func(dst []byte) []byte { return AppendTuple(dst, fields...) })
}

// SizeValue returns the exact number of bytes AppendValue(nil, v) would
// emit, without encoding. trace.Marshal sizes a trace with it, to refuse
// one too large to carry before encoding it.
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

// bufPool recycles encode scratch for call sites that need canonical
// bytes only transiently — digests, signature bindings, wire payload
// assembly — so the hot protocol paths stop allocating per message.
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
