package campaign

import (
	"time"

	"repro/internal/faultnet"
	"repro/internal/policy"
)

// Canned scenarios — the campaigns BENCH_campaign.json reports and CI
// smokes. Each pressures a different seam of the protection stack;
// together they cover behavioural flapping, identity churn, network
// partitions, and crash-restart chaos. All run the default thresholds
// and the default 30s virtual step against the ledger's five-minute
// half-life, so the decay arithmetic matches production defaults.

// ScenarioFlap is the behavioural flapper: mallory cheats in bursts
// and rides the decay half-life honestly in between, trying to stay
// under the quarantine threshold. No infrastructure faults — this one
// isolates the reputation dynamics. Expected: fleet-wide convergence
// during an early cheat burst, zero honest quarantines.
func ScenarioFlap() Config {
	return Config{
		Name:              "flap",
		Seed:              11,
		Steps:             36,
		Workers:           []string{"w1", "w2", "w3"},
		Adversary:         "mallory",
		AdversaryPosition: 1, // itinerary w1 -> mallory -> w2 -> w3; w2 checks
		Playbook:          Playbook{CheatStart: 5, Period: 8, Duty: 4},
	}
}

// ScenarioSybilChurn is identity churn under membership churn: the
// adversary cheats continuously but discards its identity for a fresh
// one every few steps, while honest hosts join and leave around it.
// Each rotation wipes the fleet's per-identity reputation of the
// adversary — the documented exposure of identity-keyed ledgers
// (DESIGN.md) — but because session appraisal runs per journey, a
// fresh name buys no free tampering: the score shows the rotations
// reset ledger memory (convergence re-latches on each new identity)
// without raising survivor throughput, and honest hosts stay clean
// while rings churn under joins and leaves.
func ScenarioSybilChurn() Config {
	return Config{
		Name:              "sybil-churn",
		Seed:              23,
		Steps:             32,
		Workers:           []string{"w1", "w2", "w3"},
		Adversary:         "sybil",
		AdversaryPosition: 1,
		Playbook:          Playbook{CheatStart: 3},
		Lifecycle: []LifecycleEvent{
			{Step: 10, SybilRotate: true},
			{Step: 12, Join: "w4"},
			{Step: 18, SybilRotate: true},
			{Step: 20, Leave: "w3"},
			{Step: 26, SybilRotate: true},
		},
	}
}

// ScenarioPartitionHeal cuts the fleet while the adversary cheats: w3
// is isolated before the cheating starts, so detection knowledge
// accumulates on one side of the cut and w3 stays ignorant — fleet-
// wide convergence is only possible after the heal, when anti-entropy
// exchange pulls w3 level. Mild link drops run throughout, exercising
// send/call fault paths and the exchange's per-peer cooldown without
// dominating the outcome.
func ScenarioPartitionHeal() Config {
	return Config{
		Name:              "partition-heal",
		Seed:              37,
		Steps:             36,
		Workers:           []string{"w1", "w2", "w3"},
		Adversary:         "mallory",
		AdversaryPosition: 1,
		Playbook:          Playbook{CheatStart: 8},
		Faults: faultnet.Schedule{
			{Step: 2, Link: &faultnet.LinkEvent{
				Src: "w1", Dst: "w2",
				Faults: faultnet.LinkFaults{Drop: 0.05},
			}},
			{Step: 6, Partition: [][]string{
				{"home", "w1", "mallory", "w2"},
				{"w3"},
			}},
			{Step: 18, Heal: true},
		},
	}
}

// ScenarioRestartChaos is the no-free-reset drill: every node is
// durable, and the checker that has accumulated the adversary's
// reputation is crash-killed mid-campaign and restarted two steps
// later. The first tampered journey after the restart judges the
// invariant — the restarted checker's WAL-recovered ledger must
// quarantine the repeat offender immediately, rather than handing it
// the clean slate a memory-only restart would.
func ScenarioRestartChaos() Config {
	return Config{
		Name:              "restart-chaos",
		Seed:              41,
		Steps:             24,
		Workers:           []string{"w1", "w2"},
		Adversary:         "mallory",
		AdversaryPosition: 0, // itinerary mallory -> w1 -> w2; w1 checks
		Playbook:          Playbook{CheatStart: 4},
		Durable:           true,
		Faults: faultnet.Schedule{
			{Step: 9, Kill: "w1"},
			{Step: 11, Restart: "w1"},
		},
	}
}

// ScenarioPlannerEvasion is the admission-threshold gamer: an adaptive
// adversary that cheats only while it believes the fleet's worst
// opinion of it sits below the admission/avoidance threshold (1.0),
// and holds back — riding a deliberately shortened ledger half-life,
// the attack parameter here — whenever it has crossed it. This is the
// strongest adversary the planner's reputation-aware routing faces:
// one that never presents an over-threshold face while tampering.
// Expected: the escalation threshold (0.5) still sits below the
// evasion ceiling, so detection converges anyway; the holds show up in
// EvasionHolds; honest hosts stay clean.
func ScenarioPlannerEvasion() Config {
	return Config{
		Name:              "planner-evasion",
		Seed:              53,
		Steps:             36,
		Workers:           []string{"w1", "w2", "w3"},
		Adversary:         "mallory",
		AdversaryPosition: 1,
		Playbook:          Playbook{CheatStart: 4},
		EvadeBelow:        policy.DefaultAdmissionThreshold,
		// Two virtual minutes instead of five: the adversary's best case,
		// since its accumulated suspicion halves four times faster while
		// it lies low.
		LedgerHalfLife: 2 * time.Minute,
	}
}

// ScenarioAggregatorCut crash-kills an aggregator of a hierarchical
// exchange federation while the fleet is mid-convergence on a cheater.
// home and w1 aggregate for the sub-fleet; members exchange only with
// them. One step after the cheating starts, w1 is cut — that step's
// member rounds aimed at it fail into the per-peer cooldown and shift
// to home — and restarted four steps later, recovering its ledger from
// the WAL. Expected: fleet-wide convergence anyway (the surviving
// aggregator carries the federation through the cut, and the restarted
// one is pulled level by its peers), with zero honest quarantines.
func ScenarioAggregatorCut() Config {
	return Config{
		Name:              "aggregator-cut",
		Seed:              61,
		Steps:             28,
		Workers:           []string{"w1", "w2", "w3"},
		Adversary:         "mallory",
		AdversaryPosition: 1,
		Playbook:          Playbook{CheatStart: 5},
		Aggregators:       []string{"home", "w1"},
		Durable:           true,
		Faults: faultnet.Schedule{
			{Step: 6, Kill: "w1"},
			{Step: 10, Restart: "w1"},
		},
	}
}

// ScenarioCapRider earns an above-cap record and then behaves: mallory
// cheats on every step until its checker's first-hand suspicion has
// passed the gossip merge cap (9.7 after fourteen offenses), then
// stays honest for just over three half-lives. It pressures what the
// fleet believes about its worst hosts while their checkers sign claims
// above the cap, and how long that belief outlives the cheating.
// Expected: every tampered journey detected, fleet-wide convergence,
// the rider's later journeys completing once decay has forgiven it,
// zero honest quarantines.
func ScenarioCapRider() Config {
	return Config{
		Name:              "cap-rider",
		Seed:              67,
		Steps:             48,
		Workers:           []string{"w1", "w2", "w3"},
		Adversary:         "mallory",
		AdversaryPosition: 1, // w2 checks
		// Cheats on steps 4–17, honest on steps 18–48 (31 steps of 30 s).
		Playbook: Playbook{CheatStart: 4, Period: 1000, Duty: 14},
	}
}

// Scenarios returns the full campaign suite in report order.
func Scenarios() []Config {
	return []Config{
		ScenarioFlap(),
		ScenarioSybilChurn(),
		ScenarioPartitionHeal(),
		ScenarioRestartChaos(),
		ScenarioPlannerEvasion(),
		ScenarioAggregatorCut(),
		ScenarioCapRider(),
	}
}
