package events

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/canon"
)

// eventWire builds an event encoding field by field, with kv as the
// Fields tuple exactly as given.
func eventWire(kv ...string) []byte {
	fields := make([][]byte, len(kv))
	for i, s := range kv {
		fields[i] = []byte(s)
	}
	return canon.Tuple([]byte(eventWireLabel), canon.Uint64Field(1), []byte(KindVerdict), []byte("n"),
		nil, nil, canon.Uint64Field(7), canon.Tuple(fields...))
}

// TestDecodeEventRefusesKeysOutOfOrder: EncodeEvent writes Fields in
// sorted key order, so keys that do not strictly increase are not an
// event's encoding; a repeated key would also lose one of its values.
func TestDecodeEventRefusesKeysOutOfOrder(t *testing.T) {
	if _, err := DecodeEvent(eventWire("a", "1", "b", "2")); err != nil {
		t.Fatalf("sorted keys refused: %v", err)
	}
	rows := map[string][]byte{
		"swapped":  eventWire("b", "2", "a", "1"),
		"repeated": eventWire("a", "1", "a", "2"),
	}
	for name, wire := range rows {
		_, err := DecodeEvent(wire)
		if !errors.Is(err, canon.ErrMalformed) || !errors.Is(err, ErrEventWire) {
			t.Errorf("%s field keys: err = %v, want ErrEventWire and canon.ErrMalformed", name, err)
		}
	}
}

// FuzzDecodeEvent feeds the event decoder, which the flight recorder
// runs on what it replays from disk. It must not panic, an accepted
// event holds at most MaxEventFields fields, and an accepted input is
// exactly the encoding of the event it decodes to.
func FuzzDecodeEvent(f *testing.F) {
	f.Add(EncodeEvent(Event{Seq: 1, Kind: KindIntake, Node: "n", UnixNano: 7}))
	f.Add(EncodeEvent(Event{
		Seq: 42, Kind: KindVerdict, Node: "checker", Agent: "shopper-7", Host: "evil", UnixNano: 1712345678900,
		Fields: map[string]string{"ok": "false", "mechanism": "appraisal", "reason": "total != hops"},
	}))
	f.Add(eventWire("b", "2", "a", "1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeEvent(data)
		if err != nil {
			return
		}
		if len(e.Fields) > MaxEventFields {
			t.Fatalf("%d fields accepted, over %d", len(e.Fields), MaxEventFields)
		}
		if !bytes.Equal(EncodeEvent(e), data) {
			t.Fatal("EncodeEvent(DecodeEvent(x)) != x for an accepted input")
		}
	})
}
