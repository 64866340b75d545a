package agentlang

import (
	"testing"

	"repro/internal/value"
)

// TestIndexedAssignmentHonoursSnapshots is the interpreter half of the
// copy-on-write contract: a state snapshot taken before a session must
// not observe the session's indexed writes, while the live state must.
func TestIndexedAssignmentHonoursSnapshots(t *testing.T) {
	prog, err := Parse(`
proc main() {
    xs[0] = 99
    m["inner"][1] = 42
    m["fresh"] = 1
    done()
}`)
	if err != nil {
		t.Fatal(err)
	}
	st := value.State{
		"xs": value.List(value.Int(1), value.Int(2)),
		"m": value.Map(map[string]value.Value{
			"inner": value.List(value.Int(10), value.Int(20)),
		}),
	}
	snap := st.Snapshot()
	if _, err := Run(prog, "main", st, &testEnv{}, Options{}); err != nil {
		t.Fatal(err)
	}

	// Live state sees the writes.
	if st["xs"].List[0].Int != 99 || st["m"].Map["inner"].List[1].Int != 42 {
		t.Errorf("live state missed writes: %v", value.State(st))
	}
	if st["m"].Map["fresh"].Int != 1 {
		t.Errorf("map insert missing: %v", st["m"])
	}
	// Snapshot is isolated.
	if snap["xs"].List[0].Int != 1 {
		t.Errorf("snapshot saw list write: %v", snap["xs"])
	}
	if snap["m"].Map["inner"].List[1].Int != 20 {
		t.Errorf("snapshot saw nested write: %v", snap["m"])
	}
	if _, ok := snap["m"].Map["fresh"]; ok {
		t.Error("snapshot saw map insert")
	}
}

// TestReadAliasesHonourSnapshots closes the read-side copy-on-write
// hole: a composite extracted from a shared composite (indexed read or
// element-copying builtin) co-owns snapshot storage, so writes through
// the extracted alias must not reach the snapshot either.
func TestReadAliasesHonourSnapshots(t *testing.T) {
	prog, err := Parse(`
proc main() {
    tmp = xs[0]
    tmp[0] = 99
    ap = append(lst, 1)
    inner = ap[0]
    inner[0] = 77
    g = get(m, "k", 0)
    g[0] = 55
    done()
}`)
	if err != nil {
		t.Fatal(err)
	}
	st := value.State{
		"xs":  value.List(value.List(value.Int(1))),
		"lst": value.List(value.List(value.Int(2))),
		"m":   value.Map(map[string]value.Value{"k": value.List(value.Int(3))}),
	}
	snap := st.Snapshot()
	if _, err := Run(prog, "main", st, &testEnv{}, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := snap["xs"].List[0].List[0].Int; got != 1 {
		t.Errorf("snapshot saw write through indexed-read alias: %d", got)
	}
	if got := snap["lst"].List[0].List[0].Int; got != 2 {
		t.Errorf("snapshot saw write through append-copied element: %d", got)
	}
	if got := snap["m"].Map["k"].List[0].Int; got != 3 {
		t.Errorf("snapshot saw write through get() alias: %d", got)
	}
	// The writes themselves landed in the aliases.
	if st["tmp"].List[0].Int != 99 || st["inner"].List[0].Int != 77 || st["g"].List[0].Int != 55 {
		t.Errorf("alias writes lost: tmp=%v inner=%v g=%v", st["tmp"], st["inner"], st["g"])
	}
}

// TestSelfAppendHonoursSnapshots: a snapshot taken before a session, as
// host.RunSession takes one and a checker re-executes from it, keeps its
// list whatever the session appends, and so does the re-execution's
// own working copy of it — also when the list has room behind it.
func TestSelfAppendHonoursSnapshots(t *testing.T) {
	prog := MustParse(`
proc main() {
    x = append(x, read("n"))
    x = append(x, read("n"))
}`)
	st := value.State{"x": roomy(1, 2)}
	initial := st.Snapshot()
	if _, err := Run(prog, "main", st, &testEnv{inputs: []value.Value{value.Int(3), value.Int(4)}}, Options{}); err != nil {
		t.Fatal(err)
	}
	working := initial.Snapshot()
	if _, err := Run(prog, "main", working, &testEnv{inputs: []value.Value{value.Int(5), value.Int(6)}}, Options{}); err != nil {
		t.Fatal(err)
	}
	wantValue(t, "live x", st["x"], intList(1, 2, 3, 4))
	wantValue(t, "re-executed x", working["x"], intList(1, 2, 5, 6))
	wantValue(t, "snapshot x", initial["x"], intList(1, 2))
}

// TestIndexedAssignmentInPlaceWhenUnshared guards the perf property the
// copy-on-write design buys: without a snapshot, repeated indexed
// writes must keep mutating the same backing storage (reference
// semantics, no per-write copies).
func TestIndexedAssignmentInPlaceWhenUnshared(t *testing.T) {
	prog, err := Parse(`
proc main() {
    xs[0] = 99
    done()
}`)
	if err != nil {
		t.Fatal(err)
	}
	st := value.State{"xs": value.List(value.Int(1), value.Int(2))}
	before := &st["xs"].List[0]
	if _, err := Run(prog, "main", st, &testEnv{}, Options{}); err != nil {
		t.Fatal(err)
	}
	if &st["xs"].List[0] != before {
		t.Error("unshared list was copied on write")
	}
	if st["xs"].List[0].Int != 99 {
		t.Errorf("write lost: %v", st["xs"])
	}
}
