package core

import (
	"fmt"
	"testing"

	"repro/internal/agentlang"
	"repro/internal/canon"
	"repro/internal/trace"
	"repro/internal/value"
)

// materializedPkgDigest is the seed's encode-then-hash implementation,
// kept as the reference: package digests are signed and verified across
// hosts, so the streamed path must stay byte-compatible forever.
func materializedPkgDigest(p *ReferencePackage) canon.Digest {
	fields := [][]byte{
		[]byte("refpkg"),
		[]byte(p.HostName),
		[]byte(fmt.Sprintf("%d", p.Hop)),
		[]byte(p.Entry),
		[]byte(p.ResultEntry),
	}
	if p.InitialState != nil {
		fields = append(fields, []byte("initial"), canon.EncodeState(p.InitialState))
	}
	if p.ResultingState != nil {
		fields = append(fields, []byte("resulting"), canon.EncodeState(p.ResultingState))
	}
	if p.Input != nil {
		fields = append(fields, []byte("input"))
		for _, rec := range p.Input {
			recFields := [][]byte{[]byte(rec.Call)}
			for _, a := range rec.Args {
				recFields = append(recFields, canon.EncodeValue(a))
			}
			recFields = append(recFields, canon.EncodeValue(rec.Result))
			fields = append(fields, canon.Tuple(recFields...))
		}
	}
	if p.Trace != nil {
		d := p.Trace.Digest()
		fields = append(fields, []byte("trace"), d[:])
	}
	if p.Resources != nil {
		fields = append(fields, []byte("resources"))
		for _, k := range value.SortedKeys(p.Resources) {
			fields = append(fields, []byte(k), canon.EncodeValue(p.Resources[k]))
		}
	}
	return canon.HashTuple(fields...)
}

func TestPackageDigestMatchesMaterialized(t *testing.T) {
	tr := trace.Trace{Entries: []trace.Entry{{StmtID: 3}}}
	pkgs := []*ReferencePackage{
		{HostName: "h1", Hop: 0, Entry: "main", ResultEntry: ""},
		{
			HostName:       "shop1",
			Hop:            2,
			Entry:          "visit",
			ResultEntry:    "visit",
			InitialState:   value.State{"x": value.Int(1)},
			ResultingState: value.State{"x": value.Int(2), "ys": value.List(value.Str("a"))},
			Input: []agentlang.InputRecord{
				{Seq: 0, Call: "read", Args: []value.Value{value.Str("price")}, Result: value.Int(80)},
				{Seq: 1, Call: "here", Result: value.Str("shop1")},
			},
			Trace: &tr,
			Resources: map[string]value.Value{
				"price": value.Int(80),
				"name":  value.Str("shop one"),
			},
		},
	}
	for i, p := range pkgs {
		if got, want := p.Digest(), materializedPkgDigest(p); got != want {
			t.Errorf("package %d: streamed digest %s != materialized %s", i, got, want)
		}
	}
}

// TestUnmarshalPackageRejectsHostileCounts: the wire's record counts
// are attacker controlled and must fail cleanly, not panic make() or
// reserve huge allocations from a short message.
func TestUnmarshalPackageRejectsHostileCounts(t *testing.T) {
	pkg := &ReferencePackage{
		HostName: "h", Hop: 1, Entry: "main",
		Input: []agentlang.InputRecord{{Call: "read", Result: value.Int(1)}},
	}
	wire, err := pkg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	fields := tupleFields(t, wire)
	corrupt := func(idx int, b []byte) []byte {
		forged := append([][]byte(nil), fields...)
		forged[idx] = b
		return canon.Tuple(forged...)
	}
	huge := []byte{0x10, 0, 0, 0, 0, 0, 0, 0} // 2^60
	if _, err := UnmarshalReferencePackage(corrupt(9, huge)); err == nil {
		t.Error("huge input count accepted")
	}
	if _, err := UnmarshalReferencePackage(corrupt(10, huge)); err == nil {
		t.Error("huge resource count accepted")
	}
	// Arg count inside a record (field 12 is the first record's count).
	if _, err := UnmarshalReferencePackage(corrupt(12, huge)); err == nil {
		t.Error("huge arg count accepted")
	}
}
