package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/agent"
	"repro/internal/agentlang"
	"repro/internal/canon"
	"repro/internal/host"
	"repro/internal/sigcrypto"
	"repro/internal/trace"
	"repro/internal/value"
)

// encodeValue is v's canonical encoding: the field AppendValueField
// writes, without its 4-byte frame.
func encodeValue(v value.Value) []byte { return canon.AppendValueField(nil, v)[4:] }

// materializedPkgDigest is the seed's encode-then-hash implementation,
// kept as the reference: package digests are signed and verified across
// hosts, so the digest scanPackage writes from the encoded fields must
// stay byte-compatible forever.
func materializedPkgDigest(t testing.TB, p *ReferencePackage) canon.Digest {
	t.Helper()
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
				recFields = append(recFields, encodeValue(a))
			}
			recFields = append(recFields, encodeValue(rec.Result))
			fields = append(fields, canon.Tuple(recFields...))
		}
	}
	if p.Trace != nil {
		enc, err := p.Trace.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		d := canon.HashBytes(enc)
		fields = append(fields, []byte("trace"), d[:])
	}
	if p.Resources != nil {
		fields = append(fields, []byte("resources"))
		for _, k := range value.SortedKeys(p.Resources) {
			fields = append(fields, []byte(k), encodeValue(p.Resources[k]))
		}
	}
	return canon.HashTuple(fields...)
}

// materializedPkgEncoding is the seed's tuple-of-fields Marshal, kept
// as the reference for the in-place encoder: package bytes are signed
// over and travel between hosts of different builds.
func materializedPkgEncoding(t testing.TB, p *ReferencePackage) []byte {
	t.Helper()
	var flags byte
	var initialEnc, resultingEnc, traceEnc []byte
	if p.Trace != nil {
		flags |= refPkgHasTrace
		var err error
		if traceEnc, err = p.Trace.Marshal(); err != nil {
			t.Fatal(err)
		}
	}
	if p.InitialState != nil {
		flags |= refPkgHasInitial
		initialEnc = canon.EncodeState(p.InitialState)
	}
	if p.ResultingState != nil {
		flags |= refPkgHasResulting
		resultingEnc = canon.EncodeState(p.ResultingState)
	}
	if p.Input != nil {
		flags |= refPkgHasInput
	}
	if p.Resources != nil {
		flags |= refPkgHasResources
	}
	fields := [][]byte{
		[]byte(refPkgWireLabel), []byte(p.HostName), canon.Uint64Field(uint64(p.Hop)),
		[]byte(p.Entry), []byte(p.ResultEntry), {flags}, initialEnc, resultingEnc, traceEnc,
		canon.Uint64Field(uint64(len(p.Input))), canon.Uint64Field(uint64(len(p.Resources))),
	}
	for _, rec := range p.Input {
		fields = append(fields, []byte(rec.Call), canon.Uint64Field(uint64(len(rec.Args))))
		for _, a := range rec.Args {
			fields = append(fields, encodeValue(a))
		}
		fields = append(fields, encodeValue(rec.Result))
	}
	for _, k := range value.SortedKeys(p.Resources) {
		fields = append(fields, []byte(k), encodeValue(p.Resources[k]))
	}
	return canon.Tuple(fields...)
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
		enc, err := p.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, materializedPkgEncoding(t, p)) {
			t.Errorf("package %d: encoding differs from the materialized tuple", i)
		}
		sums, err := ScanReferencePackage(enc)
		if err != nil {
			t.Fatal(err)
		}
		if want := materializedPkgDigest(t, p); sums.Digest != want {
			t.Errorf("package %d: streamed digest %s != materialized %s", i, sums.Digest, want)
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
	for _, i := range []int{9, 10, 12} {
		if _, err := ScanReferencePackage(corrupt(i, huge)); err == nil {
			t.Errorf("scan accepts a huge count in field %d", i)
		}
	}
}

// wantsReplay declares what refproto's checker packages.
type wantsReplay struct{ BaseMechanism }

func (wantsReplay) Name() string            { return "replay" }
func (wantsReplay) RequestsInitialState()   {}
func (wantsReplay) RequestsResultingState() {}
func (wantsReplay) RequestsInput()          {}

// TestPackageSessionMatchesOracle packages every session of the agent
// language's golden corpus that completes on a tracing host, under each
// declaration below. PackageSession's bytes must be the deep-copied
// oracle's Marshal and the seed's materialized tuple, and its sums the
// oracle's Digest and state digests: departing hosts and checkers of
// different builds sign and compare these.
func TestPackageSessionMatchesOracle(t *testing.T) {
	raw, err := os.ReadFile("../agentlang/testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var corpus []struct {
		Name string `json:"name"`
		Src  string `json:"src"`
		Want struct {
			Err string `json:"err"`
		} `json:"want"`
	}
	if err := json.Unmarshal(raw, &corpus); err != nil {
		t.Fatal(err)
	}
	keys, err := sigcrypto.GenerateKeyPair("golden")
	if err != nil {
		t.Fatal(err)
	}
	resources := map[string]value.Value{
		"n1": value.Int(5), "n2": value.Int(3), "n": value.Int(4),
		"elem": value.Str("elem-1"), "key": value.Str("value-key"),
		"k": value.Int(2), "ok": value.Str("yes"), "x": value.Int(1),
		"price": value.Int(120), "offer": value.Int(80), "b": value.Bool(true),
		"db": value.Map(map[string]value.Value{"rows": value.List(value.Int(1), value.Int(2), value.Int(3))}),
	}
	h, err := host.New(host.Config{Name: "golden", Keys: keys, Registry: sigcrypto.NewRegistry(),
		Resources: resources, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	mechs := []Mechanism{wantsReplay{}, wantsAll{}, wantsNothing{}}
	packaged := 0
	for _, c := range corpus {
		if strings.Contains(c.Want.Err, agentlang.ErrFuelExhausted.Error()) {
			continue // runaway programs: seconds of fuel each, no session
		}
		ag, err := agent.New(c.Name, "owner", c.Src, "main")
		if err != nil {
			continue
		}
		// The start state of host's replay test over the same corpus.
		ag.State = value.State{
			"total": value.Int(0), "hops": value.Int(0), "sum": value.Int(0),
			"got":  value.List(),
			"xs":   value.List(value.List(value.Int(1)), value.List(value.Int(2))),
			"lst":  value.List(value.List(value.Int(2))),
			"m":    value.Map(map[string]value.Value{"inner": value.List(value.Int(10), value.Int(20)), "k": value.List(value.Int(3))}),
			"n":    value.Int(7),
			"name": value.Str("agent"),
		}
		rec, err := h.RunSession(context.Background(), ag, host.SessionOptions{})
		if err != nil {
			continue
		}
		for _, m := range mechs {
			enc, sums, err := PackageSession(m, rec, resources)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.Name, m.Name(), err)
			}
			oracle := packageOf(m, rec, resources)
			want, err := oracle.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case !bytes.Equal(enc, want):
				t.Errorf("%s/%s: encoding differs from the oracle's", c.Name, m.Name())
			case !bytes.Equal(enc, materializedPkgEncoding(t, oracle)):
				t.Errorf("%s/%s: encoding differs from the materialized tuple", c.Name, m.Name())
			case sums.Digest != materializedPkgDigest(t, oracle):
				t.Errorf("%s/%s: digest %s, oracle %s", c.Name, m.Name(), sums.Digest, materializedPkgDigest(t, oracle))
			case sums.Initial != canon.HashState(oracle.InitialState), sums.Resulting != canon.HashState(oracle.ResultingState):
				t.Errorf("%s/%s: state digests differ from the oracle's", c.Name, m.Name())
			}
			if checked, err := ScanReferencePackage(enc); err != nil || checked.Digest != sums.Digest {
				t.Errorf("%s/%s: the checker's scan reads %v, %v", c.Name, m.Name(), checked.Digest, err)
			}
		}
		packaged++
	}
	// About half the corpus completes on a host; the floor keeps a
	// change to the host's inputs from quietly emptying the test.
	if packaged < 190 {
		t.Errorf("packaged %d of %d corpus sessions, want at least 190", packaged, len(corpus))
	}
}
