package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/agent"
	"repro/internal/agentlang"
	"repro/internal/canon"
	"repro/internal/host"
	"repro/internal/sigcrypto"
	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/internal/value"
)

// Requester-combination test mechanisms.
type wantsNothing struct{ BaseMechanism }

func (wantsNothing) Name() string { return "nothing" }

type wantsAll struct{ BaseMechanism }

func (wantsAll) Name() string            { return "all" }
func (wantsAll) RequestsInitialState()   {}
func (wantsAll) RequestsResultingState() {}
func (wantsAll) RequestsInput()          {}
func (wantsAll) RequestsExecutionLog()   {}
func (wantsAll) RequestsResource()       {}

type wantsStates struct{ BaseMechanism }

func (wantsStates) Name() string            { return "states" }
func (wantsStates) RequestsInitialState()   {}
func (wantsStates) RequestsResultingState() {}

func sampleRecord() *host.SessionRecord {
	return &host.SessionRecord{
		HostName:    "h1",
		Hop:         3,
		Entry:       "main",
		ResultEntry: "step",
		Initial:     value.State{"x": value.Int(1)},
		Resulting:   value.State{"x": value.Int(2), "y": value.Str("s")},
		Input: []agentlang.InputRecord{
			{Seq: 0, Call: "read", Args: []value.Value{value.Str("k")}, Result: value.Int(7)},
			{Seq: 1, Call: "time", Result: value.Int(99)},
		},
		Trace: trace.Trace{Entries: []trace.Entry{
			{StmtID: 1, Bindings: []trace.Binding{{Name: "x", Val: value.Int(7)}}},
			{StmtID: 2},
		}},
	}
}

// packageOf is the reference package of rec as m declares it, every
// kind a deep copy of the record's: the oracle PackageSession's
// encoding and sums are held to.
func packageOf(m Mechanism, rec *host.SessionRecord, resources map[string]value.Value) *ReferencePackage {
	p := &ReferencePackage{HostName: rec.HostName, Hop: rec.Hop, Entry: rec.Entry, ResultEntry: rec.ResultEntry}
	if _, ok := m.(InitialStateRequester); ok {
		p.InitialState = rec.Initial.Clone()
	}
	if _, ok := m.(ResultingStateRequester); ok {
		p.ResultingState = rec.Resulting.Clone()
	}
	if _, ok := m.(InputRequester); ok {
		p.Input = make([]agentlang.InputRecord, len(rec.Input))
		for i, r := range rec.Input {
			p.Input[i] = agentlang.InputRecord{Seq: r.Seq, Call: r.Call, Result: r.Result.Clone()}
			for _, a := range r.Args {
				p.Input[i].Args = append(p.Input[i].Args, a.Clone())
			}
		}
	}
	if _, ok := m.(ExecutionLogRequester); ok {
		tr := trace.Trace{Entries: make([]trace.Entry, len(rec.Trace.Entries))}
		for i, e := range rec.Trace.Entries {
			tr.Entries[i] = trace.Entry{StmtID: e.StmtID}
			for _, b := range e.Bindings {
				tr.Entries[i].Bindings = append(tr.Entries[i].Bindings, trace.Binding{Name: b.Name, Val: b.Val.Clone()})
			}
		}
		p.Trace = &tr
	}
	if _, ok := m.(ResourceRequester); ok {
		p.Resources = make(map[string]value.Value, len(resources))
		for k, v := range resources {
			p.Resources[k] = v.Clone()
		}
	}
	return p
}

// packaged decodes PackageSession's encoding of rec as m declares it.
func packaged(t *testing.T, m Mechanism, rec *host.SessionRecord, resources map[string]value.Value) *ReferencePackage {
	t.Helper()
	enc, _, err := PackageSession(m, rec, resources)
	if err != nil {
		t.Fatal(err)
	}
	p, err := UnmarshalReferencePackage(enc)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPackageSessionHonorsRequesters(t *testing.T) {
	rec := sampleRecord()
	resources := map[string]value.Value{"db": value.Int(5)}

	full := packaged(t, wantsAll{}, rec, resources)
	if full.InitialState == nil || full.ResultingState == nil || full.Input == nil ||
		full.Trace == nil || full.Resources == nil {
		t.Error("wantsAll package missing declared data")
	}

	none := packaged(t, wantsNothing{}, rec, resources)
	if none.InitialState != nil || none.ResultingState != nil || none.Input != nil ||
		none.Trace != nil || none.Resources != nil {
		t.Error("wantsNothing package carries undeclared data")
	}
	if none.HostName != "h1" || none.Hop != 3 || none.Entry != "main" || none.ResultEntry != "step" {
		t.Error("session identification must always be present")
	}

	partial := packaged(t, wantsStates{}, rec, resources)
	if partial.InitialState == nil || partial.ResultingState == nil {
		t.Error("wantsStates package missing states")
	}
	if partial.Input != nil || partial.Trace != nil || partial.Resources != nil {
		t.Error("wantsStates package carries undeclared data")
	}

	// A declared kind is present even when the record holds none of it.
	empty := sampleRecord()
	empty.Initial, empty.Resulting, empty.Input = nil, nil, nil
	if p := packaged(t, wantsAll{}, empty, nil); p.InitialState == nil || p.ResultingState == nil || p.Input == nil || p.Resources == nil {
		t.Error("a declared kind is absent when empty")
	}
}

// TestPackageSessionOutlivesTheRecord: the encoding is the package's
// only copy, so what the record holds afterwards does not reach it.
func TestPackageSessionOutlivesTheRecord(t *testing.T) {
	rec := sampleRecord()
	enc, _, err := PackageSession(wantsAll{}, rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec.Initial["x"] = value.Int(999)
	rec.Input[0].Result = value.Int(999)
	pkg, err := UnmarshalReferencePackage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if pkg.InitialState["x"].Int != 1 {
		t.Error("package shares initial state with record")
	}
	if pkg.Input[0].Result.Int != 7 {
		t.Error("package shares input with record")
	}
}

func TestReferencePackageMarshalRoundTrip(t *testing.T) {
	rec := sampleRecord()
	pkg := packageOf(wantsAll{}, rec, map[string]value.Value{"db": value.List(value.Int(1))})
	data, err := pkg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalReferencePackage(data)
	if err != nil {
		t.Fatal(err)
	}
	if materializedPkgDigest(t, got) != materializedPkgDigest(t, pkg) {
		t.Error("digest changed across marshal round trip")
	}
	if got.HostName != "h1" || got.Hop != 3 {
		t.Error("identification lost")
	}
	if len(got.InitialState.Diff(pkg.InitialState)) > 0 || len(got.ResultingState.Diff(pkg.ResultingState)) > 0 {
		t.Error("states lost")
	}
	if len(got.Input) != 2 || got.Input[0].Call != "read" || !got.Input[0].Result.Equal(value.Int(7)) {
		t.Errorf("input lost: %+v", got.Input)
	}
	if got.Trace == nil || got.Trace.Len() != pkg.Trace.Len() {
		t.Error("trace lost")
	}
	if got.Resources["db"].List[0].Int != 1 {
		t.Error("resources lost")
	}
}

func TestReferencePackageMarshalMinimal(t *testing.T) {
	pkg := packageOf(wantsNothing{}, sampleRecord(), nil)
	data, err := pkg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalReferencePackage(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.InitialState != nil || got.Input != nil || got.Trace != nil {
		t.Error("minimal package grew data")
	}
	if _, err := UnmarshalReferencePackage([]byte("junk")); err == nil {
		t.Error("junk accepted")
	}
}

// tupleFields splits a framed tuple into its fields.
func tupleFields(t *testing.T, wire []byte) [][]byte {
	t.Helper()
	s, err := canon.ScanTuple(wire)
	if err != nil {
		t.Fatal(err)
	}
	var fields [][]byte
	for s.Len() > 0 {
		fields = append(fields, s.Field(len(wire)))
	}
	if err := s.End(); err != nil {
		t.Fatal(err)
	}
	return fields
}

// TestUnmarshalPackageRefusesNonCanonical: Marshal writes one encoding
// per package, so the decoder refuses flag bits it does not know, data
// under a clear presence flag, and resources out of key order. Each row
// forges one field of a package Marshal wrote.
func TestUnmarshalPackageRefusesNonCanonical(t *testing.T) {
	encode := func(p *ReferencePackage) [][]byte {
		data, err := p.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return tupleFields(t, data)
	}
	// Field 11 onwards: one input record (call, arg count, result),
	// then the resource pairs, a before b.
	withInput := encode(&ReferencePackage{HostName: "h", Hop: 1, Entry: "main",
		Input: []agentlang.InputRecord{{Call: "read", Result: value.Int(1)}}})
	withResources := encode(&ReferencePackage{HostName: "h", Hop: 1, Entry: "main",
		Resources: map[string]value.Value{"a": value.Int(1), "b": value.Int(2)}})
	one := canon.Uint64Field(1)
	rows := []struct {
		name  string
		base  [][]byte
		forge func(f [][]byte)
	}{
		{"unknown flag bit", withInput, func(f [][]byte) { f[5] = []byte{f[5][0] | 1<<5} }},
		{"initial state under a clear flag", withInput, func(f [][]byte) { f[6] = canon.EncodeState(value.State{}) }},
		{"resulting state under a clear flag", withInput, func(f [][]byte) { f[7] = canon.EncodeState(value.State{}) }},
		{"trace under a clear flag", withInput, func(f [][]byte) { f[8] = []byte("trace") }},
		{"input count under a clear flag", withResources, func(f [][]byte) { f[9] = one }},
		{"resource count under a clear flag", withInput, func(f [][]byte) { f[10] = one }},
		{"resources out of order", withResources, func(f [][]byte) { f[11], f[12], f[13], f[14] = f[13], f[14], f[11], f[12] }},
		{"resource repeated", withResources, func(f [][]byte) { f[13] = f[11] }},
	}
	for _, r := range rows {
		forged := append([][]byte(nil), r.base...)
		r.forge(forged)
		if _, err := UnmarshalReferencePackage(canon.Tuple(forged...)); !errors.Is(err, canon.ErrMalformed) {
			t.Errorf("%s: err = %v, want canon.ErrMalformed", r.name, err)
		}
		if _, err := ScanReferencePackage(canon.Tuple(forged...)); !errors.Is(err, canon.ErrMalformed) {
			t.Errorf("%s: scan err = %v, want canon.ErrMalformed", r.name, err)
		}
	}
}

// TestOversizedInputRecordRefused: the package digest frames an input
// record as one nested tuple field, which holds at most canon.MaxLen
// bytes, so a record of two 40 MiB values is refused though each value
// fits a field and the package fits a TCP frame. Marshal refuses to
// write it, and the decoder and the scan refuse to read it, where the
// digest's framing used to panic.
func TestOversizedInputRecordRefused(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("a 40 MiB value is too heavy for the race detector's memory")
	}
	big := value.Str(strings.Repeat("x", 40<<20))
	rec := &host.SessionRecord{HostName: "h", Hop: 1, Entry: "main",
		Input: []agentlang.InputRecord{{Call: "read", Args: []value.Value{big}, Result: big}}}
	if _, _, err := PackageSession(wantsAll{}, rec, nil); !errors.Is(err, canon.ErrTooLarge) {
		t.Errorf("PackageSession: err = %v, want canon.ErrTooLarge", err)
	}

	// The bytes Marshal wrote before it refused: field 13 is the
	// record's one argument, field 14 its result.
	small, err := (&ReferencePackage{HostName: "h", Hop: 1, Entry: "main",
		Input: []agentlang.InputRecord{{Call: "read", Args: []value.Value{value.Int(0)}, Result: value.Int(0)}}}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	fields := tupleFields(t, small)
	fields[13] = encodeValue(big)
	fields[14] = fields[13]
	rec, big = nil, value.Null()
	data := canon.Tuple(fields...)
	fields = nil
	if _, err := UnmarshalReferencePackage(data); !errors.Is(err, canon.ErrMalformed) {
		t.Errorf("decoder: err = %v, want canon.ErrMalformed", err)
	}
	if _, err := ScanReferencePackage(data); !errors.Is(err, canon.ErrMalformed) {
		t.Errorf("scan: err = %v, want canon.ErrMalformed", err)
	}
}

func TestReferencePackageDigestSensitivity(t *testing.T) {
	rec := sampleRecord()
	base := materializedPkgDigest(t, packageOf(wantsAll{}, rec, nil))

	mut := sampleRecord()
	mut.Resulting["x"] = value.Int(777)
	if materializedPkgDigest(t, packageOf(wantsAll{}, mut, nil)) == base {
		t.Error("digest insensitive to resulting state")
	}
	mut2 := sampleRecord()
	mut2.Input[0].Result = value.Int(777)
	if materializedPkgDigest(t, packageOf(wantsAll{}, mut2, nil)) == base {
		t.Error("digest insensitive to input")
	}
	mut3 := sampleRecord()
	mut3.Hop = 4
	if materializedPkgDigest(t, packageOf(wantsAll{}, mut3, nil)) == base {
		t.Error("digest insensitive to hop")
	}
}

// sessionPackages runs one real session on a tracing host and returns
// its reference package once per presence-flag combination: bit i of
// the index keeps the i-th data kind of a wantsAll package.
func sessionPackages(tb testing.TB) []*ReferencePackage {
	tb.Helper()
	keys, err := sigcrypto.GenerateKeyPair("shop")
	if err != nil {
		tb.Fatal(err)
	}
	resources := map[string]value.Value{
		"price": value.Int(120),
		"stock": value.List(value.Str("a"), value.Map(map[string]value.Value{"n": value.Int(2)})),
	}
	h, err := host.New(host.Config{
		Name: "shop", Keys: keys, Registry: sigcrypto.NewRegistry(),
		Resources: resources, RecordTrace: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	ag, err := agent.New("fuzz-agent", "owner", `
proc main() {
    offers = [read("price"), resource("stock")]
    seen = {"at": here(), "t": time(), "r": rand(10)}
    send("owner", offers)
    migrate("home", "finish")
}
proc finish() { done() }`, "main")
	if err != nil {
		tb.Fatal(err)
	}
	ag.State["budget"] = value.Int(500)
	rec, err := h.RunSession(context.Background(), ag, host.SessionOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	if rec.Trace.Len() == 0 || len(rec.Input) == 0 {
		tb.Fatal("session recorded no trace or no input")
	}
	var out []*ReferencePackage
	for mask := 0; mask < 1<<5; mask++ {
		p := packageOf(wantsAll{}, rec, resources)
		if mask&refPkgHasInitial == 0 {
			p.InitialState = nil
		}
		if mask&refPkgHasResulting == 0 {
			p.ResultingState = nil
		}
		if mask&refPkgHasInput == 0 {
			p.Input = nil
		}
		if mask&refPkgHasTrace == 0 {
			p.Trace = nil
		}
		if mask&refPkgHasResources == 0 {
			p.Resources = nil
		}
		out = append(out, p)
	}
	return out
}

// FuzzReferencePackage feeds peer bytes to the reference package
// decoder, whose output a checking host replays, and to the scan the
// checker reads every package with. Neither may panic, and the scan
// accepts exactly what the decoder accepts. An accepted package holds
// no more input records and resources than the input has bytes, encodes
// back to exactly its input, and has the sums the scan read from it.
func FuzzReferencePackage(f *testing.F) {
	for _, p := range sessionPackages(f) {
		data, err := p.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sums, serr := ScanReferencePackage(data)
		p, err := UnmarshalReferencePackage(data)
		if (serr == nil) != (err == nil) {
			t.Fatalf("scan and decoder disagree: scan %v, decoder %v", serr, err)
		}
		if err != nil {
			return
		}
		unchecked, err := scanPackage(data, false)
		if err != nil {
			t.Fatalf("unchecked scan refuses an accepted package: %v", err)
		}
		for _, got := range []PackageSums{sums, unchecked} {
			if string(got.HostName) != p.HostName || got.Hop != p.Hop || got.Digest != materializedPkgDigest(t, p) ||
				got.Initial != canon.HashState(p.InitialState) || got.Resulting != canon.HashState(p.ResultingState) {
				t.Fatal("sums read from the bytes differ from the decoded package's")
			}
		}
		if n := len(p.Input) + len(p.Resources); n > len(data) {
			t.Fatalf("%d bytes decoded to %d input records and resources", len(data), n)
		}
		enc, err := p.Marshal()
		if err != nil {
			t.Fatalf("accepted package does not encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatal("encode(decode(x)) != x for an accepted package")
		}
	})
}
