package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/agentlang"
	"repro/internal/canon"
	"repro/internal/value"
)

// figure3Env serves the two inputs of the paper's Fig. 3 example:
// read(x) -> 5 and cryptInput -> 2.
type figure3Env struct{ calls int }

func (e *figure3Env) Input(call string, args []value.Value) (value.Value, error) {
	e.calls++
	if e.calls == 1 {
		return value.Int(5), nil
	}
	return value.Int(2), nil
}
func (e *figure3Env) Output(string, []value.Value) error { return nil }

// figure3 runs the paper's Fig. 3a, transliterated, and returns its
// program and trace. z starts at 1 so y=x+z is well-defined.
func figure3(tb testing.TB) (*agentlang.Program, Trace) {
	prog := agentlang.MustParse(`
proc main() {
    x = read("x")
    y = x + z
    m = y + 1
    k = read("cryptInput")
    m = m + k
}`)
	rec := NewRecorder()
	g := value.State{"z": value.Int(1)}
	if _, err := agentlang.Run(prog, "main", g, &figure3Env{}, agentlang.Options{Hook: rec}); err != nil {
		tb.Fatal(err)
	}
	// Final state must be m = (5+1)+1 + 2 = 9.
	if g["m"].Int != 9 {
		tb.Fatalf("m = %s, want 9", g["m"])
	}
	return prog, rec.Take()
}

// TestFigure3Trace reproduces the paper's Fig. 3: a five-statement
// fragment whose trace records bindings only for the two statements
// that consumed input.
func TestFigure3Trace(t *testing.T) {
	prog, tr := figure3(t)
	if tr.Len() != 5 {
		t.Fatalf("trace has %d entries, want 5:\n%s", tr.Len(), tr.Format(prog))
	}
	// Statements 1 and 4 (the paper's 10 and 13) consumed input and
	// record bindings; the rest record only identifiers.
	wantBindings := map[int][]Binding{
		1: {{Name: "x", Val: value.Int(5)}},
		4: {{Name: "k", Val: value.Int(2)}},
	}
	for i, e := range tr.Entries {
		want, isInput := wantBindings[e.StmtID]
		if isInput {
			if len(e.Bindings) != len(want) {
				t.Errorf("entry %d (stmt %d): bindings %v, want %v", i, e.StmtID, e.Bindings, want)
				continue
			}
			for j := range want {
				if e.Bindings[j].Name != want[j].Name || !e.Bindings[j].Val.Equal(want[j].Val) {
					t.Errorf("entry %d binding %d = %s=%s, want %s=%s", i, j,
						e.Bindings[j].Name, e.Bindings[j].Val, want[j].Name, want[j].Val)
				}
			}
		} else if len(e.Bindings) != 0 {
			t.Errorf("entry %d (stmt %d) has bindings %v, want none", i, e.StmtID, e.Bindings)
		}
	}
	// The formatted trace should look like Fig. 3b.
	text := tr.Format(prog)
	if !strings.Contains(text, "x=5") || !strings.Contains(text, "k=2") {
		t.Errorf("formatted trace missing bindings:\n%s", text)
	}
}

func TestDigestSensitivity(t *testing.T) {
	base := Trace{Entries: []Entry{
		{StmtID: 1, Bindings: []Binding{{Name: "x", Val: value.Int(5)}}},
		{StmtID: 2},
	}}
	same := Trace{Entries: []Entry{
		{StmtID: 1, Bindings: []Binding{{Name: "x", Val: value.Int(5)}}},
		{StmtID: 2},
	}}
	if wireDigest(t, base) != wireDigest(t, same) {
		t.Error("equal traces, different digests")
	}
	variants := []Trace{
		{Entries: []Entry{{StmtID: 1, Bindings: []Binding{{Name: "x", Val: value.Int(6)}}}, {StmtID: 2}}},
		{Entries: []Entry{{StmtID: 1, Bindings: []Binding{{Name: "y", Val: value.Int(5)}}}, {StmtID: 2}}},
		{Entries: []Entry{{StmtID: 1, Bindings: []Binding{{Name: "x", Val: value.Int(5)}}}}},
		{Entries: []Entry{{StmtID: 1, Bindings: []Binding{{Name: "x", Val: value.Int(5)}}}, {StmtID: 3}}},
		{Entries: []Entry{{StmtID: 2}, {StmtID: 1, Bindings: []Binding{{Name: "x", Val: value.Int(5)}}}}},
		{},
	}
	for i, v := range variants {
		if wireDigest(t, v) == wireDigest(t, base) {
			t.Errorf("variant %d has same digest as base", i)
		}
	}
}

func TestEntryDigestDistinct(t *testing.T) {
	a := EntryDigest(Entry{StmtID: 1})
	b := EntryDigest(Entry{StmtID: 2})
	c := EntryDigest(Entry{StmtID: 1, Bindings: []Binding{{Name: "x", Val: value.Int(1)}}})
	if a == b || a == c || b == c {
		t.Error("entry digests collide")
	}
}

// marshalTrace holds every kind of binding value.
func marshalTrace() Trace {
	return Trace{Entries: []Entry{
		{StmtID: 7, Bindings: []Binding{
			{Name: "x", Val: value.List(value.Int(1), value.Str("s"))},
			{Name: "y", Val: value.Map(map[string]value.Value{"k": value.Bool(true)})},
		}},
		{StmtID: 8},
		{StmtID: 9, Bindings: []Binding{{Name: "z", Val: value.Null()}}},
	}}
}

func TestMarshalRoundTrip(t *testing.T) {
	tr := marshalTrace()
	data, err := tr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if wireDigest(t, got) != wireDigest(t, tr) {
		t.Error("digest changed across marshal round trip")
	}
	if _, err := Unmarshal([]byte("junk")); err == nil {
		t.Error("junk accepted")
	}
}

// malformedBinding is a binding value whose encoding a test swaps for
// bytes of the same length that do not decode.
var malformedBinding = value.Str("MALFORMED-BINDING")

// TestUnmarshalRefusesMalformed: a host decodes peers' traces inside
// reference packages and proof openings, so every form that is not a
// canonical trace is refused, and never read as something else.
func TestUnmarshalRefusesMalformed(t *testing.T) {
	valid, err := Trace{Entries: []Entry{
		{StmtID: 3, Bindings: []Binding{{Name: "x", Val: malformedBinding}}},
	}}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	enc := encodeValue(malformedBinding)
	garbage := make([]byte, len(enc))
	garbage[0] = 0xff
	field := func(s string) []byte { return []byte(s) }
	trace := func(entries ...[]byte) []byte {
		return canon.Tuple(append([][]byte{field("trace")}, entries...)...)
	}
	one := encodeValue(value.Int(1))
	for name, data := range map[string][]byte{
		"binding value that does not decode": bytes.Replace(valid, enc, garbage, 1),
		"non-canonical binding value":        trace(canon.Tuple(field("3"), field("x"), []byte{0x01, 0x04, 0x02})),
		"ragged entry":                       trace(canon.Tuple(field("1"), field("x"))),
		"negative statement ID":              trace(canon.Tuple(field("-7"))),
		"statement ID 007":                   trace(canon.Tuple(field("007"))),
		"statement ID +7":                    trace(canon.Tuple(field("+7"))),
		"statement ID -0":                    trace(canon.Tuple(field("-0"))),
		"empty statement ID":                 trace(canon.Tuple(field(""))),
		"statement ID over int64":            trace(canon.Tuple(field("9223372036854775808"))),
		"name over MaxNameLen":               trace(canon.Tuple(field("1"), bytes.Repeat(field("n"), canon.MaxNameLen+1), one)),
		"entry with trailing bytes":          trace(append(canon.Tuple(field("1")), 0)),
		"entry that is no tuple":             trace(field("1")),
		"trailing bytes":                     append(append([]byte(nil), valid...), 0),
		"missing label":                      canon.Tuple(canon.Tuple(field("1"))),
		"junk":                               field("junk"),
	} {
		got, err := Unmarshal(data)
		if !errors.Is(err, canon.ErrMalformed) {
			t.Errorf("%s: err = %v, want canon.ErrMalformed; decoded:\n%s", name, err, got.Format(nil))
		}
	}
}

// TestMarshalRefusesOversizedTrace: a trace over what a reference
// package's field holds is an error, not a panic that ends the node.
func TestMarshalRefusesOversizedTrace(t *testing.T) {
	big := value.Str(strings.Repeat("x", 16<<20))
	var tr Trace
	for i := range 5 {
		tr.Entries = append(tr.Entries, Entry{StmtID: i, Bindings: []Binding{{Name: "s", Val: big}}})
	}
	data, err := tr.Marshal()
	if !errors.Is(err, canon.ErrTooLarge) || data != nil {
		t.Fatalf("Marshal of a %d-entry trace of 16 MiB bindings: %d bytes, err = %v, want canon.ErrTooLarge", tr.Len(), len(data), err)
	}
	if _, err := AppendEntry(nil, Entry{StmtID: -1}); !errors.Is(err, canon.ErrMalformed) {
		t.Errorf("negative statement ID encoded: %v", err)
	}
	long := Entry{StmtID: 1, Bindings: []Binding{{Name: strings.Repeat("n", canon.MaxNameLen+1)}}}
	if _, err := (Trace{Entries: []Entry{long}}).Marshal(); !errors.Is(err, canon.ErrMalformed) {
		t.Errorf("over-long name encoded: %v", err)
	}
}

func TestRecorderClonesBindings(t *testing.T) {
	rec := NewRecorder()
	shared := value.List(value.Int(1))
	rec.Statement(1, true, []agentlang.Assignment{{Name: "xs", Val: shared}})
	shared.List[0] = value.Int(99)
	tr := rec.Take()
	if tr.Entries[0].Bindings[0].Val.List[0].Int != 1 {
		t.Error("recorder shares storage with live values")
	}
}

func TestRecorderTakeResets(t *testing.T) {
	rec := NewRecorder()
	rec.Statement(1, false, nil)
	first := rec.Take()
	if first.Len() != 1 {
		t.Fatalf("first take: %d entries", first.Len())
	}
	second := rec.Take()
	if second.Len() != 0 {
		t.Error("Take did not reset")
	}
}

func TestFormatWithoutProgram(t *testing.T) {
	tr := Trace{Entries: []Entry{{StmtID: 3, Bindings: []Binding{{Name: "a", Val: value.Str("v")}}}}}
	text := tr.Format(nil)
	if !strings.Contains(text, `3 a="v"`) {
		t.Errorf("Format(nil) = %q", text)
	}
}
