package canon

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/value"
)

// genValue adapts the package's random value generator to
// testing/quick's Generator protocol via a wrapper type.
type quickValue struct{ V value.Value }

var _ quick.Generator = quickValue{}

// Generate implements quick.Generator.
func (quickValue) Generate(r *rand.Rand, size int) reflect.Value {
	depth := 3
	if size < 3 {
		depth = size
	}
	return reflect.ValueOf(quickValue{V: randomValue(r, depth)})
}

func TestQuickValueRoundTrip(t *testing.T) {
	f := func(qv quickValue) bool {
		dec, err := DecodeValue(encodeValue(qv.V))
		return err == nil && dec.Equal(qv.V)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickDigestAgreesWithEquality(t *testing.T) {
	f := func(a, b quickValue) bool {
		return a.V.Equal(b.V) == (HashValue(a.V) == HashValue(b.V))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickStateRoundTrip(t *testing.T) {
	f := func(a, b, c quickValue) bool {
		st := value.State{"a": a.V, "b": b.V, "c": c.V}
		dec, err := DecodeState(EncodeState(st))
		return err == nil && len(dec.Diff(st)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickTupleInjective(t *testing.T) {
	// Distinct field vectors yield distinct tuples (framing soundness).
	f := func(a, b []byte, split uint8) bool {
		joined := append(append([]byte{}, a...), b...)
		k := int(split) % (len(joined) + 1)
		t1 := Tuple(a, b)
		t2 := Tuple(joined[:k], joined[k:])
		same := len(a) == k && string(a) == string(joined[:k])
		return (string(t1) == string(t2)) == same
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
