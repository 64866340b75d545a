package campaign

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/testutil"
)

// fastFlap is a trimmed flap scenario for tier-1 tests: same shape as
// ScenarioFlap, fewer steps and hosts.
func fastFlap() Config {
	return Config{
		Name:              "fast-flap",
		Seed:              7,
		Steps:             12,
		Workers:           []string{"w1", "w2"},
		Adversary:         "mallory",
		AdversaryPosition: 1,
		Playbook:          Playbook{CheatStart: 3, Period: 6, Duty: 3},
	}
}

// TestCampaignDeterminism pins the determinism contract: the same
// seed and schedule produce the same score fingerprint, run to run —
// including on the durable restart-chaos path, whose WAL replay and
// crash-restart hooks must not leak wall-clock or ordering effects
// into the score.
func TestCampaignDeterminism(t *testing.T) {
	for _, mk := range []func() Config{fastFlap, ScenarioRestartChaos} {
		first, err := Run(mk())
		if err != nil {
			t.Fatal(err)
		}
		second, err := Run(mk())
		if err != nil {
			t.Fatal(err)
		}
		if first.Fingerprint() != second.Fingerprint() {
			t.Errorf("%s: scores diverged across identical runs:\n  %s\n  %s",
				first.Name, first.Fingerprint(), second.Fingerprint())
		}
	}
}

// TestCampaignFlapDetection pins the flap scenario's protection story:
// every tampered journey is detected, the fleet converges on the
// adversary, and no honest journey or host is ever punished.
func TestCampaignFlapDetection(t *testing.T) {
	s, err := Run(fastFlap())
	if err != nil {
		t.Fatal(err)
	}
	if s.TamperedAgents == 0 {
		t.Fatal("playbook never tampered; scenario is vacuous")
	}
	if s.DetectedTampered != s.TamperedAgents {
		t.Errorf("detected %d of %d tampered journeys", s.DetectedTampered, s.TamperedAgents)
	}
	if !s.Converged {
		t.Error("fleet never converged on the adversary")
	}
	if s.HonestQuarantines != 0 || s.HonestFPRate != 0 {
		t.Errorf("honest journeys quarantined: %d (rate %.4f)", s.HonestQuarantines, s.HonestFPRate)
	}
	if s.MaxHonestSuspicion != 0 {
		t.Errorf("honest hosts accumulated suspicion of each other: %.4f", s.MaxHonestSuspicion)
	}
	if s.Launched != s.Completed+s.Quarantined+s.Failed {
		t.Errorf("outcome counts do not partition launches: %s", s.Fingerprint())
	}
}

// TestCampaignRestartChaosNoFreeReset pins the tentpole invariant on a
// trimmed durable scenario: after the checker is crash-killed and
// restarted, the first tampered journey through it is quarantined
// immediately — the WAL-recovered node grants no free reset.
func TestCampaignRestartChaosNoFreeReset(t *testing.T) {
	cfg := Config{
		Name:              "fast-restart",
		Seed:              3,
		Steps:             12,
		Workers:           []string{"w1", "w2"},
		Adversary:         "mallory",
		AdversaryPosition: 0,
		Playbook:          Playbook{CheatStart: 3},
		Durable:           true,
		Faults: faultnet.Schedule{
			{Step: 6, Kill: "w1"},
			{Step: 8, Restart: "w1"},
		},
	}
	// The durable kill/restart path opens the most there is to close
	// (node, ledger and flight-recorder WALs, twice for w1): none of it
	// may outlive the run.
	check := testutil.NoLeaks(t)
	s, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	check()
	if s.Restarts != 1 {
		t.Fatalf("schedule restarts = %d, want 1", s.Restarts)
	}
	if !s.NoFreeResetJudged {
		t.Fatal("no tampered journey terminated after the restart; invariant never judged")
	}
	if !s.NoFreeReset {
		t.Error("restarted checker granted the repeat offender a free reset")
	}
	if s.HonestQuarantines != 0 {
		t.Errorf("honest journeys quarantined: %d", s.HonestQuarantines)
	}
}

// TestCampaignLifecycleChurn drives joins, leaves, and a Sybil
// rotation through the live ring-update path and checks the scoring
// follows the adversary across identities.
func TestCampaignLifecycleChurn(t *testing.T) {
	cfg := Config{
		Name:              "fast-churn",
		Seed:              5,
		Steps:             14,
		Workers:           []string{"w1", "w2"},
		Adversary:         "sybil",
		AdversaryPosition: 1,
		Playbook:          Playbook{CheatStart: 2},
		Lifecycle: []LifecycleEvent{
			{Step: 4, Join: "w3"},
			{Step: 7, SybilRotate: true},
			{Step: 10, Leave: "w2"},
		},
	}
	s, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.AdversaryIdentities != 2 {
		t.Fatalf("adversary identities = %d, want 2", s.AdversaryIdentities)
	}
	if s.DetectedTampered != s.TamperedAgents {
		t.Errorf("detection did not follow the rotated identity: %d of %d", s.DetectedTampered, s.TamperedAgents)
	}
	if s.HonestQuarantines != 0 {
		t.Errorf("churned honest hosts were punished: %d quarantines", s.HonestQuarantines)
	}
}

// TestCampaignPlannerEvasion pins the adaptive adversary on a trimmed
// scenario: it must actually hold back when its suspicion reaches the
// evasion ceiling (the holds are the reputation loop's deterrence
// value), the fleet must converge anyway — the escalation threshold
// sits below the ceiling the adversary polices itself against — and
// honest hosts come through clean.
func TestCampaignPlannerEvasion(t *testing.T) {
	cfg := ScenarioPlannerEvasion()
	cfg.Name = "fast-evasion"
	cfg.Steps = 18
	s, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.TamperedAgents == 0 {
		t.Fatal("adaptive adversary never tampered; scenario is vacuous")
	}
	if s.EvasionHolds == 0 {
		t.Error("adversary never held back — the fleet's view never reached its ceiling")
	}
	if !s.Converged {
		t.Error("fleet never converged on the threshold-evading adversary")
	}
	if s.DetectionLatencySteps < 0 {
		t.Error("detection latency never scored")
	}
	if s.HonestQuarantines != 0 || s.HonestFPRate != 0 {
		t.Errorf("honest journeys quarantined: %d (rate %.4f)", s.HonestQuarantines, s.HonestFPRate)
	}
}

// TestCampaignAggregatorCut pins the hierarchical federation under
// aggregator loss on a trimmed scenario: members exchange only with
// the two aggregators, one aggregator is crash-killed one step after
// the cheating starts (the rounds aimed at it that step fail into the
// cooldown and shift to the survivor) and restarted later with its WAL
// ledger intact. The fleet must still converge on the adversary and
// honest hosts must come through clean.
func TestCampaignAggregatorCut(t *testing.T) {
	cfg := Config{
		Name:              "fast-agg-cut",
		Seed:              13,
		Steps:             16,
		Workers:           []string{"w1", "w2"},
		Adversary:         "mallory",
		AdversaryPosition: 1,
		Playbook:          Playbook{CheatStart: 3},
		Aggregators:       []string{"home", "w1"},
		Durable:           true,
		Faults: faultnet.Schedule{
			{Step: 4, Kill: "w1"},
			{Step: 7, Restart: "w1"},
		},
	}
	// The durable kill/restart path opens the most there is to close
	// (node, ledger and flight-recorder WALs, twice for w1): none of it
	// may outlive the run.
	check := testutil.NoLeaks(t)
	s, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	check()
	if s.Restarts != 1 {
		t.Fatalf("schedule restarts = %d, want 1", s.Restarts)
	}
	if s.TamperedAgents == 0 {
		t.Fatal("adversary never tampered; scenario is vacuous")
	}
	if s.DetectedTampered != s.TamperedAgents {
		t.Errorf("detected %d of %d tampered journeys", s.DetectedTampered, s.TamperedAgents)
	}
	if !s.Converged {
		t.Error("federation never converged across the aggregator cut")
	}
	if s.HonestQuarantines != 0 || s.MaxHonestSuspicion != 0 {
		t.Errorf("honest hosts punished: %d quarantines, max suspicion %.4f",
			s.HonestQuarantines, s.MaxHonestSuspicion)
	}
}

// TestCampaignChaosCI is the full campaign smoke, gated behind
// REPRO_CAMPAIGN=1 (CI runs it; see .github/workflows/ci.yml): every
// canned scenario runs end to end, honest hosts come through every one
// unscathed, the partition and restart scenarios converge on the
// adversary, and restart chaos proves no-free-reset. The committed
// BENCH_campaign.json must list the same scenarios in the same order
// with the fingerprints this run reproduces, so a stale file fails here
// (regenerate it with `benchtables -tables=false -campaign`).
func TestCampaignChaosCI(t *testing.T) {
	if os.Getenv("REPRO_CAMPAIGN") != "1" {
		t.Skip("set REPRO_CAMPAIGN=1 to run the full campaign suite")
	}
	data, err := os.ReadFile("../../BENCH_campaign.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed struct {
		Scenarios []Score `json:"scenarios"`
	}
	if err := json.Unmarshal(data, &committed); err != nil {
		t.Fatalf("BENCH_campaign.json: %v", err)
	}
	scenarios := Scenarios()
	if len(committed.Scenarios) != len(scenarios) {
		t.Fatalf("BENCH_campaign.json lists %d scenarios, the suite has %d", len(committed.Scenarios), len(scenarios))
	}
	for i, cfg := range scenarios {
		if committed.Scenarios[i].Name != cfg.Name {
			t.Fatalf("BENCH_campaign.json scenario %d is %q, the suite's is %q", i, committed.Scenarios[i].Name, cfg.Name)
		}
	}
	for i, cfg := range scenarios {
		begin := time.Now()
		s, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		t.Logf("%s (%.2fs): %s", cfg.Name, time.Since(begin).Seconds(), s.Fingerprint())
		if want := committed.Scenarios[i].Fingerprint(); s.Fingerprint() != want {
			t.Errorf("%s: BENCH_campaign.json is stale:\n  committed %s\n  this run  %s", cfg.Name, want, s.Fingerprint())
		}
		if s.TamperedAgents == 0 {
			t.Errorf("%s: adversary never tampered", cfg.Name)
		}
		if s.HonestQuarantines != 0 || s.HonestFPRate != 0 {
			t.Errorf("%s: honest journeys quarantined: %d", cfg.Name, s.HonestQuarantines)
		}
		switch cfg.Name {
		case "partition-heal", "restart-chaos", "flap", "planner-evasion", "aggregator-cut", "cap-rider":
			if !s.Converged {
				t.Errorf("%s: fleet never converged on the adversary", cfg.Name)
			}
		}
		if cfg.Name == "planner-evasion" {
			if s.EvasionHolds == 0 {
				t.Errorf("%s: adaptive adversary never held back — evasion pressure missing", cfg.Name)
			}
			if s.DetectionLatencySteps < 0 {
				t.Errorf("%s: detection latency never scored", cfg.Name)
			}
		}
		if cfg.Name == "restart-chaos" {
			if !s.NoFreeResetJudged || !s.NoFreeReset {
				t.Errorf("%s: no-free-reset not proven (judged=%v held=%v)",
					cfg.Name, s.NoFreeResetJudged, s.NoFreeReset)
			}
		}
	}
}
