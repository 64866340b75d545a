package canon

import (
	"bytes"
	"testing"

	"repro/internal/value"
)

// fuzzSeeds are canonical encodings of every kind of value, plus the
// non-canonical forms TestDecodeRefusesNonCanonical refuses.
func fuzzSeeds() [][]byte {
	v := value.Map(map[string]value.Value{
		"a": value.List(value.Int(-1), value.Str("s"), value.Bool(true), value.Bool(false), value.Null()),
		"b": value.Map(map[string]value.Value{"x": value.Int(1), "y": value.Map(nil)}),
	})
	return [][]byte{
		encodeValue(v),
		EncodeState(value.State{"v": v, "w": value.Str("")}),
		EncodeState(value.State{}),
		{version, tagBool, 2},
		{version, tagMap, 0, 0, 0, 2, 0, 0, 0, 1, 'b', tagNull, 0, 0, 0, 1, 'a', tagNull},
		{version, tagState, 0, 0, 0, 2, 0, 0, 0, 1, 'a', tagNull, 0, 0, 0, 1, 'a', tagNull},
	}
}

// FuzzCanonValue: DecodeValue never panics, CheckValue accepts exactly
// what it accepts, and a value it accepts encodes back to exactly the
// input, so its digest is the input's.
func FuzzCanonValue(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := DecodeValue(data)
		if cerr := CheckValue(data); (cerr == nil) != (err == nil) {
			t.Fatalf("CheckValue says %v, DecodeValue %v", cerr, err)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(encodeValue(v), data) || HashValue(v) != HashBytes(data) {
			t.Fatalf("accepted value %s does not encode back to its input", v)
		}
	})
}

// FuzzCanonState: DecodeState never panics, CheckState accepts exactly
// what it accepts, and a state it accepts encodes back to exactly the
// input, so HashState agrees with the digest of the input (the memo
// agent.Decode seeds from the wire, the sums a checker reads from a
// reference package).
func FuzzCanonState(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeState(data)
		if cerr := CheckState(data); (cerr == nil) != (err == nil) {
			t.Fatalf("CheckState says %v, DecodeState %v", cerr, err)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeState(s), data) || HashState(s) != HashBytes(data) {
			t.Fatal("accepted state does not encode back to its input")
		}
	})
}
