package protection

import (
	"testing"

	"repro/internal/core"
	"repro/internal/stopwatch"
)

func TestParseLevelRoundTrip(t *testing.T) {
	for _, l := range []Level{LevelNone, LevelSigned, LevelRules, LevelTraces, LevelFull, LevelAdaptive} {
		got, err := ParseLevel(l.String())
		if err != nil || got != l {
			t.Errorf("ParseLevel(%q) = %v, %v", l.String(), got, err)
		}
	}
	if _, err := ParseLevel("bogus"); err == nil {
		t.Error("bogus level parsed")
	}
	if Level(42).String() != "level(42)" {
		t.Error("unknown level String")
	}
}

func TestMechanismStacks(t *testing.T) {
	timer := &stopwatch.PhaseTimer{}
	tests := []struct {
		level Level
		names []string
	}{
		{LevelNone, nil},
		{LevelSigned, []string{"refproto.seal"}},
		{LevelRules, []string{"refproto.seal", "appraisal"}},
		{LevelTraces, []string{"refproto.seal", "vigna"}},
		{LevelFull, []string{"refproto.seal", "refproto"}},
		{LevelAdaptive, []string{"refproto.seal", "reputation", "appraisal", "refproto"}},
	}
	for _, tt := range tests {
		st, err := Assemble(tt.level, Options{Timer: timer})
		if err != nil {
			t.Fatalf("%s: %v", tt.level, err)
		}
		if len(st.Mechanisms) != len(tt.names) {
			t.Fatalf("%s: %d mechanisms, want %d", tt.level, len(st.Mechanisms), len(tt.names))
		}
		for i, want := range tt.names {
			if st.Mechanisms[i].Name() != want {
				t.Errorf("%s[%d] = %s, want %s", tt.level, i, st.Mechanisms[i].Name(), want)
			}
		}
	}
	if _, err := Assemble(Level(99), Options{}); err == nil {
		t.Error("unknown level built a stack")
	}
}

func TestMechanismInstancesAreFresh(t *testing.T) {
	a, err := Assemble(LevelFull, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Assemble(LevelFull, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Mechanisms {
		if a.Mechanisms[i] == b.Mechanisms[i] {
			t.Errorf("mechanism %d shared between calls (per-node state would leak)", i)
		}
	}
}

func TestAssembleAdaptive(t *testing.T) {
	st, err := Assemble(LevelAdaptive, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Policy == nil || st.Ledger == nil || st.Gate == nil {
		t.Fatalf("adaptive stack incomplete: %+v", st)
	}
	if st.Gate.Ledger() != st.Ledger {
		t.Error("gate does not share the stack ledger")
	}
	// The policy writes the same ledger the gate reads: one failed
	// check against a host escalates its next session.
	v := core.Verdict{Mechanism: "test", Moment: core.AfterSession, CheckedHost: "shady", Suspect: "shady"}
	st.Policy.Decide("ag", v)
	if !st.Gate.ShouldReExecute("shady") {
		t.Error("failed verdict did not escalate the suspect's next session")
	}
	// Non-adaptive levels carry no policy.
	if st, err := Assemble(LevelFull, Options{}); err != nil || st.Policy != nil || st.Ledger != nil {
		t.Errorf("full stack = %+v, %v; want mechanisms only", st, err)
	}
}
