package trace

import (
	"bytes"
	"fmt"
	"repro/internal/testutil"
	"testing"

	"repro/internal/canon"
	"repro/internal/value"
)

// encodeValue is v's canonical encoding: the field AppendValueField
// writes, without its 4-byte frame.
func encodeValue(v value.Value) []byte { return canon.AppendValueField(nil, v)[4:] }

// materializedEntry reproduces the seed's encode-then-hash entry
// framing; the streamed digests must stay byte-compatible with it
// because trace commitments cross host boundaries.
func materializedEntry(e Entry) []byte {
	fields := make([][]byte, 0, 1+2*len(e.Bindings))
	fields = append(fields, []byte(fmt.Sprintf("%d", e.StmtID)))
	for _, b := range e.Bindings {
		fields = append(fields, []byte(b.Name), encodeValue(b.Val))
	}
	return canon.Tuple(fields...)
}

func digestTrace() Trace {
	return Trace{Entries: []Entry{
		{StmtID: 1},
		{StmtID: 42, Bindings: []Binding{
			{Name: "x", Val: value.Int(7)},
			{Name: "xs", Val: value.List(value.Str("abc"), value.Map(map[string]value.Value{"k": value.Bool(true)}))},
		}},
		{StmtID: 123456789},
	}}
}

func TestEntryDigestMatchesMaterialized(t *testing.T) {
	for i, e := range digestTrace().Entries {
		if got, want := EntryDigest(e), canon.HashBytes(materializedEntry(e)); got != want {
			t.Errorf("entry %d: streamed %s != materialized %s", i, got, want)
		}
	}
}

// wireDigest is a trace's digest, the hash of its encoding, as a
// reference package commits to it.
func wireDigest(t testing.TB, tr Trace) canon.Digest {
	t.Helper()
	data, err := tr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return canon.HashBytes(data)
}

// TestTraceDigestMatchesMaterialized: the bytes a trace's digest covers
// are the tuple of its label and its entries' materialized framing.
func TestTraceDigestMatchesMaterialized(t *testing.T) {
	for _, tr := range []Trace{digestTrace(), {}} {
		fields := [][]byte{[]byte(label)}
		for _, e := range tr.Entries {
			fields = append(fields, materializedEntry(e))
		}
		if got, want := wireDigest(t, tr), canon.HashTuple(fields...); got != want {
			t.Errorf("%d entries: digest of the wire bytes %s != materialized %s", tr.Len(), got, want)
		}
	}
}

// TestOneEncoding: a trace travels as the bytes it is hashed over. For
// every trace these tests build, EntryDigest hashes AppendEntry's
// bytes, Unmarshal gives the bytes back, and an entry's wire bytes sit
// in the trace's as one field.
func TestOneEncoding(t *testing.T) {
	_, fig3 := figure3(t)
	for _, tr := range []Trace{digestTrace(), fig3, {}, marshalTrace()} {
		data, err := tr.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range tr.Entries {
			wire, err := AppendEntry(nil, e)
			if err != nil {
				t.Fatal(err)
			}
			if EntryDigest(e) != canon.HashBytes(wire) || !bytes.Contains(data, wire) {
				t.Errorf("entry %d: EntryDigest or the trace's bytes disagree with its wire bytes", i)
			}
		}
		back, err := Unmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
		if again, err := back.Marshal(); err != nil || !bytes.Equal(again, data) {
			t.Errorf("%d entries: Marshal(Unmarshal(x)) != x (%v)", tr.Len(), err)
		}
	}
}

// TestEntryDigestAllocs pins the Merkle-leaf path: building a tree over
// a long trace must not allocate per leaf.
func TestEntryDigestAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation ceilings are not meaningful under the race detector")
	}
	e := digestTrace().Entries[1]
	EntryDigest(e)
	if avg := testing.AllocsPerRun(100, func() { EntryDigest(e) }); avg > 0 {
		t.Errorf("EntryDigest allocs/op = %.1f, want 0", avg)
	}
}
