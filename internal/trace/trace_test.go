package trace

import (
	"bytes"
	"encoding/gob"
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

// TestFigure3Trace reproduces the paper's Fig. 3: a five-statement
// fragment whose trace records bindings only for the two statements
// that consumed input.
func TestFigure3Trace(t *testing.T) {
	// Fig. 3a, transliterated. z starts at 1 so y=x+z is well-defined.
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
		t.Fatal(err)
	}
	tr := rec.Take()
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
	// Final state must be m = (5+1)+1 + 2 = 9.
	if g["m"].Int != 9 {
		t.Errorf("m = %s, want 9", g["m"])
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
	if base.Digest() != same.Digest() {
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
		if v.Digest() == base.Digest() {
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

func TestMarshalRoundTrip(t *testing.T) {
	tr := Trace{Entries: []Entry{
		{StmtID: 7, Bindings: []Binding{
			{Name: "x", Val: value.List(value.Int(1), value.Str("s"))},
			{Name: "y", Val: value.Map(map[string]value.Value{"k": value.Bool(true)})},
		}},
		{StmtID: 8},
		{StmtID: 9, Bindings: []Binding{{Name: "z", Val: value.Null()}}},
	}}
	data, err := tr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest() != tr.Digest() {
		t.Error("digest changed across marshal round trip")
	}
	if _, err := Unmarshal([]byte("junk")); err == nil {
		t.Error("junk accepted")
	}
}

// TestUnmarshalRefusesRaggedEntry: an entry whose name and value lists
// differ in length is refused, not indexed out of range. A host decodes
// peers' traces inside reference packages and proof openings, so the
// panic took the decoding host down.
func TestUnmarshalRefusesRaggedEntry(t *testing.T) {
	for _, we := range []wireEntry{
		{StmtID: 1, Names: []string{"x"}},
		{StmtID: 1, ValsEnc: [][]byte{canon.EncodeValue(value.Int(1))}},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(wireTrace{Entries: []wireEntry{we}}); err != nil {
			t.Fatal(err)
		}
		if _, err := Unmarshal(buf.Bytes()); err == nil {
			t.Errorf("entry with %d names and %d values accepted", len(we.Names), len(we.ValsEnc))
		}
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
