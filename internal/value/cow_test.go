package value

import (
	"fmt"
	"repro/internal/testutil"
	"testing"
)

func cowState() State {
	return State{
		"xs": List(Int(1), Int(2)),
		"m":  Map(map[string]Value{"k": List(Str("deep"))}),
		"n":  Int(7),
	}
}

func TestSnapshotSharesStorageAndFlags(t *testing.T) {
	s := cowState()
	snap := s.Snapshot()
	if len(s.Diff(snap)) > 0 {
		t.Fatal("snapshot differs from source")
	}
	for _, k := range []string{"xs", "m"} {
		if !s[k].Shared() || !snap[k].Shared() {
			t.Errorf("%s: composite binding not marked shared on both sides", k)
		}
	}
	if s["n"].Shared() || snap["n"].Shared() {
		t.Error("scalar binding needlessly flagged")
	}
	// Storage genuinely shared: same backing array.
	if &s["xs"].List[0] != &snap["xs"].List[0] {
		t.Error("snapshot copied list storage eagerly")
	}
}

func TestOwnedCopiesSharedLevelAndPushesFlagDown(t *testing.T) {
	s := cowState()
	snap := s.Snapshot()

	owned := Owned(s["m"])
	if owned.Shared() {
		t.Error("owned value still flagged")
	}
	// The copied level's composite children must now carry the flag.
	if !owned.Map["k"].Shared() {
		t.Error("child of copied level not marked shared")
	}
	// Mutating the owned copy must not reach the snapshot.
	owned.Map["k"] = Int(99)
	if snap["m"].Map["k"].Kind != KindList {
		t.Error("write to owned copy leaked into snapshot")
	}

	// Owning an unshared value is an identity operation.
	fresh := List(Int(1))
	o := Owned(fresh)
	if &o.List[0] != &fresh.List[0] {
		t.Error("Owned copied an exclusively held value")
	}
}

func TestCloneStaysDeepAndUnflagged(t *testing.T) {
	s := cowState()
	s.Snapshot() // flag everything
	cl := s.Clone()
	if cl["xs"].Shared() || cl["m"].Shared() {
		t.Error("clone of a flagged state carries shared flags")
	}
	cl["xs"].List[0] = Int(42)
	if s["xs"].List[0].Int != 1 {
		t.Error("clone shares storage with source")
	}
}

func TestSnapshotSurvivesOwnedWriteChains(t *testing.T) {
	// Simulates what the interpreter does across a snapshot boundary:
	// own each level top-down, write, store back.
	s := State{"m": Map(map[string]Value{"inner": List(Int(1), Int(2))})}
	snap := s.Snapshot()

	root := Owned(s["m"])
	child := Owned(root.Map["inner"])
	child.List[1] = Int(99)
	root.Map["inner"] = child
	s["m"] = root

	if got := s["m"].Map["inner"].List[1].Int; got != 99 {
		t.Errorf("write lost: %d", got)
	}
	if got := snap["m"].Map["inner"].List[1].Int; got != 2 {
		t.Errorf("snapshot corrupted: %d", got)
	}
	// A second write through the now-owned chain must be in-place.
	before := &s["m"].Map["inner"].List[0]
	root = Owned(s["m"])
	child2 := Owned(root.Map["inner"])
	if &child2.List[0] != before {
		t.Error("second ownership copied again instead of mutating in place")
	}
}

func benchCloneState(vars int) State {
	s := State{}
	for i := 0; i < vars; i++ {
		s[fmt.Sprintf("v%02d", i)] = List(
			Int(int64(i)), Str("0123456789"),
			Map(map[string]Value{"k": Int(int64(i))}))
	}
	return s
}

// TestSnapshotAllocs pins the snapshot path: one map allocation,
// regardless of how deep the state's values are.
func TestSnapshotAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation ceilings are not meaningful under the race detector")
	}
	s := benchCloneState(50)
	if avg := testing.AllocsPerRun(100, func() { s.Snapshot() }); avg > 3 {
		t.Errorf("Snapshot allocs/op = %.1f, want <= 3 (one map)", avg)
	}
}

// BenchmarkCloneState (deep copy, the old trust-boundary cost) vs
// BenchmarkSnapshotState (the new copy-on-write path used by session
// records and reference packages).
func BenchmarkCloneState(b *testing.B) {
	s := benchCloneState(50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Clone()
	}
}

func BenchmarkSnapshotState(b *testing.B) {
	s := benchCloneState(50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Snapshot()
	}
}
