package refproto

import (
	"bytes"
	"testing"
)

// FuzzRefprotoPayload feeds the payload decoder what a peer can send a
// checking host: it must not panic, and every payload it accepts
// encodes back to exactly the bytes it came from. Seeds are the
// relayed, origin, trusted and seal-only shapes, plus a real relayed
// payload with its reference package.
func FuzzRefprotoPayload(f *testing.F) {
	for _, p := range payloadShapes() {
		enc := appendPayload(nil, p)
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	bed := newHopBed(f, bedConfig{vars: 2, hop: 1})
	bed.mPrev.keep(bed.ag, bed.producer(f))
	relayed, _ := bed.depart(f).GetBaggage(MechanismName)
	f.Add(relayed)
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := parsePayload(data)
		if err != nil {
			return
		}
		if again := appendPayload(nil, &p); !bytes.Equal(again, data) {
			t.Fatalf("encode(decode(x)) != x:\n%x\n%x", again, data)
		}
	})
}
