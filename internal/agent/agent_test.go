package agent

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/canon"
	"repro/internal/value"
)

const testCode = `
proc main() {
    sum = sum([1, 2, 3])
    migrate("next", "resume")
}
proc resume() {
    done()
}`

func newTestAgent(t *testing.T) *Agent {
	t.Helper()
	a, err := New("agent-1", "alice", testCode, "main")
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return a
}

func TestNewValidation(t *testing.T) {
	if _, err := New("a", "o", "", "main"); !errors.Is(err, ErrNoCode) {
		t.Errorf("empty code: err = %v", err)
	}
	if _, err := New("a", "o", testCode, ""); !errors.Is(err, ErrNoEntry) {
		t.Errorf("empty entry: err = %v", err)
	}
	if _, err := New("a", "o", "not a program", "main"); err == nil {
		t.Error("unparsable code accepted")
	}
	if _, err := New("a", "o", testCode, "nothere"); err == nil {
		t.Error("missing entry proc accepted")
	}
}

// TestOversizedNamesRefused: an ID, owner, entry, route host or
// baggage key over canon.MaxNameLen is refused by New, Marshal, Decode
// and Unmarshal alike, with an error wrapping canon.ErrMalformed; a
// name of exactly the bound crosses the wire unchanged.
func TestOversizedNamesRefused(t *testing.T) {
	long := strings.Repeat("n", 1<<20)
	set := map[string]func(a *Agent, name string){
		"ID":          func(a *Agent, name string) { a.ID = name },
		"owner":       func(a *Agent, name string) { a.Owner = name },
		"entry":       func(a *Agent, name string) { a.Entry = name },
		"route host":  func(a *Agent, name string) { a.Route = append(a.Route, "w1", name) },
		"baggage key": func(a *Agent, name string) { a.SetBaggage(name, []byte("payload")) },
	}
	for what, setName := range set {
		a := newTestAgent(t)
		setName(a, long)
		if _, err := a.Marshal(); !errors.Is(err, canon.ErrMalformed) {
			t.Errorf("%s of 1 MiB: Marshal err = %v, want canon.ErrMalformed", what, err)
		}
		wire := a.Encode()
		if _, err := Decode(wire); !errors.Is(err, canon.ErrMalformed) {
			t.Errorf("%s of 1 MiB: Decode err = %v, want canon.ErrMalformed", what, err)
		}
		if _, err := Unmarshal(wire); !errors.Is(err, canon.ErrMalformed) {
			t.Errorf("%s of 1 MiB: Unmarshal err = %v, want canon.ErrMalformed", what, err)
		}
		if what == "entry" {
			continue // an entry must also name a procedure of the code
		}
		at := newTestAgent(t)
		setName(at, strings.Repeat("n", canon.MaxNameLen))
		data, err := at.Marshal()
		if err != nil {
			t.Fatalf("%s of %d bytes: Marshal: %v", what, canon.MaxNameLen, err)
		}
		back, err := Unmarshal(data)
		if err != nil || !bytes.Equal(back.Encode(), data) {
			t.Errorf("%s of %d bytes: Unmarshal err = %v, or the agent changed", what, canon.MaxNameLen, err)
		}
	}
	for what, args := range map[string][3]string{"ID": {long, "o", "main"}, "owner": {"a", long, "main"}, "entry": {"a", "o", long}} {
		if _, err := New(args[0], args[1], testCode, args[2]); !errors.Is(err, canon.ErrMalformed) {
			t.Errorf("New with a 1 MiB %s: err = %v, want canon.ErrMalformed", what, err)
		}
	}
}

func TestProgramCached(t *testing.T) {
	a := newTestAgent(t)
	p1, err := a.Program()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := a.Program()
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("Program() reparsed instead of caching")
	}
}

func TestValidateDetectsCodeSwap(t *testing.T) {
	a := newTestAgent(t)
	if err := a.Validate(); err != nil {
		t.Fatalf("fresh agent invalid: %v", err)
	}
	// A malicious host swaps the code but keeps the digest.
	a.Code = `proc main() { stolen = 1 }`
	a.prog = nil
	if err := a.Validate(); err == nil {
		t.Error("code swap not detected")
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	a := newTestAgent(t)
	a.State["money"] = value.Int(500)
	a.State["offers"] = value.List(value.Str("x"))
	a.Hop = 2
	a.Route = []string{"home", "shop1"}
	a.SetBaggage("refproto", []byte{1, 2, 3})

	data, err := a.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if b.ID != a.ID || b.Owner != a.Owner || b.Entry != a.Entry || b.Hop != a.Hop {
		t.Errorf("metadata changed in round trip: %+v", b)
	}
	if len(b.State.Diff(a.State)) > 0 {
		t.Errorf("state changed: %v", a.State.Diff(b.State))
	}
	if len(b.Route) != 2 || b.Route[1] != "shop1" {
		t.Errorf("route changed: %v", b.Route)
	}
	if p, ok := b.GetBaggage("refproto"); !ok || len(p) != 3 {
		t.Errorf("baggage lost: %v %v", p, ok)
	}
	if b.StateDigest() != a.StateDigest() {
		t.Error("state digest changed across wire")
	}
}

func TestUnmarshalRejectsTamperedCode(t *testing.T) {
	a := newTestAgent(t)
	data, err := a.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the code region.
	idx := strings.Index(string(data), "sum")
	if idx < 0 {
		t.Fatal("code not found in wire form")
	}
	data[idx] = 'X'
	if _, err := Unmarshal(data); err == nil {
		t.Error("tampered wire agent accepted")
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("garbage")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Unmarshal(nil); err == nil {
		t.Error("nil accepted")
	}
}

func TestMarshalRefusesInvalid(t *testing.T) {
	a := newTestAgent(t)
	a.Code = "broken {"
	a.prog = nil
	a.CodeDigest = [32]byte{}
	if _, err := a.Marshal(); err == nil {
		t.Error("invalid agent marshaled")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := newTestAgent(t)
	a.State["xs"] = value.List(value.Int(1))
	a.Route = []string{"h1"}
	a.SetBaggage("m", []byte{9})

	c := a.Clone()
	c.State["xs"].List[0] = value.Int(99)
	c.Route[0] = "evil"
	c.Baggage["m"][0] = 42
	c.Hop = 7

	if a.State["xs"].List[0].Int != 1 {
		t.Error("clone shares state storage")
	}
	if a.Route[0] != "h1" {
		t.Error("clone shares route storage")
	}
	if a.Baggage["m"][0] != 9 {
		t.Error("clone shares baggage storage")
	}
	if a.Hop != 0 {
		t.Error("hop leaked")
	}
}

func TestBaggageOperations(t *testing.T) {
	a := newTestAgent(t)
	buf := []byte{1}
	a.SetBaggage("vigna", buf)
	buf[0] = 2
	if p, _ := a.GetBaggage("vigna"); p[0] != 1 {
		t.Error("SetBaggage did not copy payload")
	}
	a.SetBaggage("appraisal", []byte{3})
	keys := a.BaggageKeys()
	if len(keys) != 2 || keys[0] != "appraisal" || keys[1] != "vigna" {
		t.Errorf("BaggageKeys = %v", keys)
	}
	a.ClearBaggage("vigna")
	if _, ok := a.GetBaggage("vigna"); ok {
		t.Error("ClearBaggage did not remove")
	}
	if _, ok := a.GetBaggage("never"); ok {
		t.Error("GetBaggage invents payloads")
	}
}

func TestSessionBindingDistinguishesRoles(t *testing.T) {
	a := newTestAgent(t)
	d := a.StateDigest()
	tests := map[string][]byte{
		"initial/0":   a.AppendSessionBinding(nil, "initial", 0, d),
		"resulting/0": a.AppendSessionBinding(nil, "resulting", 0, d),
		"initial/1":   a.AppendSessionBinding(nil, "initial", 1, d),
	}
	seen := map[string]string{}
	for name, b := range tests {
		if prev, dup := seen[string(b)]; dup {
			t.Errorf("bindings %s and %s collide", prev, name)
		}
		seen[string(b)] = name
	}
}

func TestSessionBindingDependsOnState(t *testing.T) {
	a := newTestAgent(t)
	d1 := a.StateDigest()
	a.SetVar("x", value.Int(1))
	d2 := a.StateDigest()
	if string(a.AppendSessionBinding(nil, "initial", 0, d1)) == string(a.AppendSessionBinding(nil, "initial", 0, d2)) {
		t.Error("binding ignores state digest")
	}
}
