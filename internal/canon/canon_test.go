package canon

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/value"
)

// encodeValue is v's canonical encoding, version byte first: the bytes
// DecodeValue reads and AppendValueField frames.
func encodeValue(v value.Value) []byte { return AppendValue([]byte{version}, v) }

func randomValue(r *rand.Rand, depth int) value.Value {
	kinds := 4
	if depth > 0 {
		kinds = 6
	}
	switch r.Intn(kinds) {
	case 0:
		return value.Null()
	case 1:
		return value.Int(r.Int63() - r.Int63())
	case 2:
		buf := make([]byte, r.Intn(20))
		r.Read(buf)
		return value.Str(string(buf))
	case 3:
		return value.Bool(r.Intn(2) == 0)
	case 4:
		n := r.Intn(5)
		elems := make([]value.Value, n)
		for i := range elems {
			elems[i] = randomValue(r, depth-1)
		}
		return value.List(elems...)
	default:
		n := r.Intn(5)
		m := make(map[string]value.Value, n)
		for i := 0; i < n; i++ {
			m[string(rune('a'+r.Intn(26)))] = randomValue(r, depth-1)
		}
		return value.Map(m)
	}
}

func TestValueRoundTrip(t *testing.T) {
	fixed := []value.Value{
		value.Null(),
		value.Int(0),
		value.Int(-1),
		value.Int(1<<62 + 12345),
		value.Str(""),
		value.Str("hello \x00 world"),
		value.Bool(true),
		value.Bool(false),
		value.List(),
		value.List(value.Int(1), value.Str("x"), value.List(value.Bool(true))),
		value.Map(nil),
		value.Map(map[string]value.Value{"k": value.Map(map[string]value.Value{"n": value.Null()})}),
	}
	for _, v := range fixed {
		enc := encodeValue(v)
		got, err := DecodeValue(enc)
		if err != nil {
			t.Fatalf("DecodeValue(%s): %v", v, err)
		}
		if !got.Equal(v) {
			t.Errorf("round trip changed %s into %s", v, got)
		}
	}
}

func TestValueRoundTripRandom(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		v := randomValue(r, 3)
		got, err := DecodeValue(encodeValue(v))
		if err != nil {
			t.Fatalf("decode of %s: %v", v, err)
		}
		if !got.Equal(v) {
			t.Fatalf("round trip changed %s into %s", v, got)
		}
	}
}

func TestStateRoundTrip(t *testing.T) {
	s := value.State{
		"money":  value.Int(1000),
		"visits": value.List(value.Str("h1"), value.Str("h2")),
		"prices": value.Map(map[string]value.Value{"h1": value.Int(42)}),
	}
	got, err := DecodeState(EncodeState(s))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Diff(s)) > 0 {
		t.Errorf("state round trip mismatch: %v vs %v", got, s)
	}
}

func TestStateEncodingDeterministicAcrossMapOrder(t *testing.T) {
	// Build the same logical state many times; Go map iteration order is
	// randomized, so any order-dependence would show up as differing bytes.
	build := func() value.State {
		s := value.State{}
		for c := 'a'; c <= 'z'; c++ {
			s[string(c)] = value.Int(int64(c))
		}
		s["m"] = value.Map(map[string]value.Value{
			"x": value.Int(1), "y": value.Int(2), "z": value.Int(3),
		})
		return s
	}
	ref := EncodeState(build())
	for i := 0; i < 50; i++ {
		if !bytes.Equal(ref, EncodeState(build())) {
			t.Fatal("EncodeState depends on map iteration order")
		}
	}
}

func TestHashStateEqualIffStatesEqual(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		a := value.State{"v": randomValue(r, 2), "w": randomValue(r, 2)}
		b := value.State{"v": randomValue(r, 2), "w": randomValue(r, 2)}
		if (len(a.Diff(b)) == 0) != (HashState(a) == HashState(b)) {
			t.Fatalf("digest equality disagrees with state equality: %v vs %v", a, b)
		}
		if HashState(a) != HashState(a.Clone()) {
			t.Fatal("digest of clone differs")
		}
	}
}

func TestDistinctValuesDistinctEncodings(t *testing.T) {
	// Values that might collide under a sloppy encoding.
	vals := []value.Value{
		value.Int(0),
		value.Bool(false),
		value.Str("0"),
		value.Str(""),
		value.Null(),
		value.List(),
		value.List(value.Null()),
		value.Map(nil),
		value.Str("\x00"),
		value.List(value.Str("ab")),
		value.List(value.Str("a"), value.Str("b")),
		value.Map(map[string]value.Value{"ab": value.Null()}),
		value.Map(map[string]value.Value{"a": value.Str("b")}),
	}
	seen := map[string]value.Value{}
	for _, v := range vals {
		key := string(encodeValue(v))
		if prev, dup := seen[key]; dup {
			t.Errorf("values %s and %s share an encoding", prev, v)
		}
		seen[key] = v
	}
}

func TestTupleFraming(t *testing.T) {
	// Tuple must not be confusable across field boundaries.
	a := Tuple([]byte("ab"), []byte("c"))
	b := Tuple([]byte("a"), []byte("bc"))
	c := Tuple([]byte("abc"))
	if bytes.Equal(a, b) || bytes.Equal(a, c) || bytes.Equal(b, c) {
		t.Error("Tuple framing is ambiguous")
	}
	if HashTuple([]byte("x")) == HashTuple([]byte("x"), []byte{}) {
		t.Error("field count not bound into tuple hash")
	}
}

func TestDecodeErrors(t *testing.T) {
	valid := encodeValue(value.List(value.Int(1), value.Str("xy")))
	tests := []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"bad version", append([]byte{0xFF}, valid[1:]...)},
		{"truncated", valid[:len(valid)-1]},
		{"trailing garbage", append(append([]byte{}, valid...), 0x00)},
		{"unknown tag", []byte{0x01, 0x7F}},
		{"huge list", []byte{0x01, 0x05, 0xFF, 0xFF, 0xFF, 0xFF}},
	}
	for _, tt := range tests {
		if _, err := DecodeValue(tt.buf); err == nil {
			t.Errorf("%s: DecodeValue succeeded, want error", tt.name)
		}
	}
	if _, err := DecodeState([]byte{0x01, 0x02}); err == nil {
		t.Error("DecodeState of non-state tag succeeded")
	}
	if _, err := DecodeState(nil); err == nil {
		t.Error("DecodeState(nil) succeeded")
	}
}

// TestDecodeRefusesNonCanonical: every value and state has one byte
// string. A decoder that accepted another would hand back a value whose
// digest differs from the digest of the bytes it came from, and a check
// would then read whichever of the two it was given.
func TestDecodeRefusesNonCanonical(t *testing.T) {
	u32 := func(n uint32) []byte { return binary.BigEndian.AppendUint32(nil, n) }
	// keyed encodes a map or state body: count, then key/value pairs in
	// the order given.
	keyed := func(tag byte, pairs ...string) []byte {
		b := append([]byte{version, tag}, u32(uint32(len(pairs)))...)
		for _, k := range pairs {
			b = append(append(append(b, u32(uint32(len(k)))...), k...), tagNull)
		}
		return b
	}
	bools := func(tag byte, b byte) []byte {
		if tag == tagBool {
			return []byte{version, tagBool, b}
		}
		return append(append(append([]byte{version, tagState}, u32(1)...), u32(1)...), 'x', tagBool, b)
	}
	for _, tt := range []struct {
		name  string
		state bool
		buf   []byte
	}{
		{"value: bool byte 2", false, bools(tagBool, 2)},
		{"value: bool byte 0xff", false, bools(tagBool, 0xff)},
		{"value: map keys out of order", false, keyed(tagMap, "b", "a")},
		{"value: map key repeated", false, keyed(tagMap, "a", "a")},
		{"value: map in a list, keys out of order", false, append(append([]byte{version, tagList}, u32(1)...), keyed(tagMap, "b", "a")[1:]...)},
		{"state: bool byte 2", true, bools(tagState, 2)},
		{"state: keys out of order", true, keyed(tagState, "b", "a")},
		{"state: key repeated", true, keyed(tagState, "a", "a")},
		{"state: empty key repeated", true, keyed(tagState, "", "")},
	} {
		var err error
		if tt.state {
			_, err = DecodeState(tt.buf)
		} else {
			_, err = DecodeValue(tt.buf)
		}
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", tt.name, err)
		}
		check := CheckValue
		if tt.state {
			check = CheckState
		}
		if err := check(tt.buf); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: check err = %v, want ErrMalformed", tt.name, err)
		}
	}
	// The canonical twins decode.
	if _, err := DecodeValue(keyed(tagMap, "a", "b")); err != nil {
		t.Errorf("sorted map refused: %v", err)
	}
	if _, err := DecodeState(bools(tagState, 1)); err != nil {
		t.Errorf("state with true refused: %v", err)
	}
}

// nested returns the encoding of depth one-element lists (or one-key
// maps) around a null.
func nested(depth int, asMap bool) []byte {
	level := []byte{tagList, 0, 0, 0, 1}
	if asMap {
		level = []byte{tagMap, 0, 0, 0, 1, 0, 0, 0, 1, 'k'}
	}
	buf := make([]byte, 0, 1+depth*len(level)+1)
	buf = append(buf, version)
	buf = append(buf, bytes.Repeat(level, depth)...)
	return append(buf, tagNull)
}

// TestDecodeBoundsNesting: 8 M nested lists are 40 MB, under the field
// limit of every transport, and used to end the process with a stack
// overflow inside agent.Unmarshal. Decoding must refuse them instead.
func TestDecodeBoundsNesting(t *testing.T) {
	for _, asMap := range []bool{false, true} {
		if _, err := DecodeValue(nested(maxDepth, asMap)); err != nil {
			t.Errorf("map=%t: %d levels refused: %v", asMap, maxDepth, err)
		}
		if _, err := DecodeValue(nested(maxDepth+1, asMap)); !errors.Is(err, ErrMalformed) {
			t.Errorf("map=%t: %d levels: err = %v, want ErrMalformed", asMap, maxDepth+1, err)
		}
		if CheckValue(nested(maxDepth, asMap)) != nil || !errors.Is(CheckValue(nested(maxDepth+1, asMap)), ErrMalformed) {
			t.Errorf("map=%t: CheckValue does not bound nesting at %d levels", asMap, maxDepth)
		}
	}
	// Siblings do not add up: depth is what is open, not what was seen.
	wide := value.List(value.List(value.List()), value.List(value.List()), value.Map(nil))
	for i := 0; i < maxDepth-3; i++ {
		wide = value.List(wide, value.Map(map[string]value.Value{"k": value.List()}))
	}
	if got, err := DecodeValue(encodeValue(wide)); err != nil || !got.Equal(wide) {
		t.Errorf("a value %d levels deep with wide siblings did not survive the round trip: %v", maxDepth, err)
	}

	deep := nested(8<<20, false)
	if _, err := DecodeValue(deep); !errors.Is(err, ErrMalformed) {
		t.Errorf("DecodeValue of 8 M nested lists: err = %v, want ErrMalformed", err)
	}
	if err := CheckValue(deep); !errors.Is(err, ErrMalformed) {
		t.Errorf("CheckValue of 8 M nested lists: err = %v, want ErrMalformed", err)
	}
	state := append([]byte{version, tagState, 0, 0, 0, 1, 0, 0, 0, 1, 'x'}, deep[1:]...)
	if _, err := DecodeState(state); !errors.Is(err, ErrMalformed) {
		t.Errorf("DecodeState of 8 M nested lists: err = %v, want ErrMalformed", err)
	}
}

func TestDigestString(t *testing.T) {
	d := HashBytes([]byte("x"))
	if len(d.String()) != 12 {
		t.Errorf("Digest.String() = %q, want 12 hex chars", d.String())
	}
}

func TestHashValueDiffersFromHashState(t *testing.T) {
	// A map value and a state with the same content must not collide:
	// they use different tags.
	m := map[string]value.Value{"a": value.Int(1)}
	if HashValue(value.Map(m)) == HashState(value.State(m)) {
		t.Error("map value and state digests collide")
	}
}

func BenchmarkEncodeState(b *testing.B) {
	s := value.State{}
	for c := 0; c < 50; c++ {
		s[string(rune('a'+c%26))+string(rune('0'+c/26))] = value.List(
			value.Int(int64(c)), value.Str("0123456789"))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeState(s)
	}
}

func BenchmarkHashState(b *testing.B) {
	s := value.State{"sum": value.Int(123456), "log": value.List(value.Str("abcdefghij"))}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		HashState(s)
	}
}
