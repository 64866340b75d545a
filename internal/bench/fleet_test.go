package bench

import (
	"testing"

	"repro/internal/protection"
	"repro/internal/testutil"
)

func TestFleetHonestCompletes(t *testing.T) {
	for _, level := range []protection.Level{protection.LevelRules, protection.LevelAdaptive, protection.LevelFull} {
		t.Run(level.String(), func(t *testing.T) {
			res, err := RunFleet(FleetConfig{
				Level: level, Agents: 4, UntrustedHosts: 3, MaliciousHosts: 0, Cycles: 2, Workers: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed != res.Agents || res.Quarantined != 0 || res.Failed != 0 {
				t.Errorf("honest fleet outcomes = %+v, want all %d completed", res, res.Agents)
			}
			if res.FailedVerdicts != 0 || res.TamperedSessions != 0 {
				t.Errorf("honest fleet produced failures: %+v", res)
			}
		})
	}
}

// TestFleetDetectionParity pins the adaptive level's acceptance bar:
// on a mixed fleet it must detect every tampered session LevelFull
// detects — ground truth recorded by the malicious behaviour itself.
func TestFleetDetectionParity(t *testing.T) {
	for _, level := range []protection.Level{protection.LevelFull, protection.LevelAdaptive, protection.LevelRules} {
		t.Run(level.String(), func(t *testing.T) {
			res, err := RunFleet(FleetConfig{
				Level: level, Agents: 6, UntrustedHosts: 4, MaliciousHosts: 2, Cycles: 2, Workers: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.TamperedSessions == 0 {
				t.Fatal("mixed fleet ran no tampered sessions; scenario broken")
			}
			if res.DetectedTampered != res.TamperedSessions {
				t.Errorf("%s detected %d of %d tampered sessions", level, res.DetectedTampered, res.TamperedSessions)
			}
			if got := res.Completed + res.Quarantined + res.Failed; got != res.Agents {
				t.Errorf("outcomes %d != agents %d (%+v)", got, res.Agents, res)
			}
			if res.Failed != 0 {
				t.Errorf("fleet journeys failed outside detection: %+v", res)
			}
			if res.Quarantined == 0 {
				t.Errorf("no journey quarantined despite %d tampered sessions", res.TamperedSessions)
			}
		})
	}
}

// TestHarnessesLeaveNothingBehind: the harnesses close every node and
// stack they open (SeriesReplication used to return with all of its
// replica nodes' workers still running).
func TestHarnessesLeaveNothingBehind(t *testing.T) {
	t.Run("SeriesReplication", func(t *testing.T) {
		check := testutil.NoLeaks(t)
		if _, err := SeriesReplication([]int{1, 3}); err != nil {
			t.Fatal(err)
		}
		check()
	})
	t.Run("RunFleet", func(t *testing.T) {
		check := testutil.NoLeaks(t)
		if _, err := RunFleet(FleetConfig{Agents: 4, UntrustedHosts: 4, MaliciousHosts: 1, Cycles: 2}); err != nil {
			t.Fatal(err)
		}
		check()
	})
}
