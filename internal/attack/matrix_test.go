package attack_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/appraisal"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/platformtest"
	"repro/internal/refproto"
	"repro/internal/value"
	"repro/internal/vigna"
)

// TestDetectionMatrix pins the protection claims the mechanism packages document
// (derived from the paper's §3-§5): for each (attack, mechanism) pair,
// whether the attack is detected during the journey or by a
// post-journey audit, and whom a detection blames. Each cell runs a
// fresh 4-host journey (trusted home -> shop1 -> shop2 -> trusted
// home2) with the attack planted on shop1, so every failed verdict
// must name shop1 as its suspect and no honest host ever.
func TestDetectionMatrix(t *testing.T) {
	// The agent maintains an appraisable invariant and consumes input.
	const code = `
proc main() {
    moneyInitial = 100
    moneyRest = 100
    moneySpent = 0
    migrate("shop1", "buy")
}
proc buy() {
    let price = read("price")
    moneySpent = moneySpent + price
    moneyRest = moneyRest - price
    if here() == "shop1" { migrate("shop2", "buy") } else { migrate("home2", "finish") }
}
proc finish() { done() }`

	attacks := map[string]host.Behavior{
		// Violates moneySpent + moneyRest == moneyInitial.
		"rule-breaking manipulation": attack.DataManipulation{Var: "moneyRest", Val: value.Int(0)},
		// Keeps the rules satisfied: books a phantom purchase on both
		// sides of the invariant (§3.1's undetectable-by-rules case).
		"rule-consistent manipulation": attack.StateMutation{Mutate: func(st value.State) {
			// Books a phantom 30 on both sides, so the invariant holds
			// here and after shop2's further spend of 20.
			st["moneySpent"] = value.Int(60)
			st["moneyRest"] = value.Int(40)
		}},
		// Lies about input before the agent sees it (§4.2's
		// fundamentally undetectable case).
		"input forgery": attack.InputForgery{Call: "read",
			Forge: func(_ string, _ []value.Value, _ value.Value) value.Value { return value.Int(1) }},
		// Executes honestly, reports a doctored input log.
		"record lie": attack.RecordLie{Mutate: func(rec *host.SessionRecord) {
			for i := range rec.Input {
				if rec.Input[i].Call == "read" {
					rec.Input[i].Result = value.Int(3)
				}
			}
		}},
	}

	type expectation struct {
		// journeyDetects: a checkAfterSession/era verdict fails en route.
		journeyDetects bool
		// auditDetects: only meaningful for vigna (post-journey audit).
		auditDetects bool
		// blamed: the suspect every failed journey verdict names.
		blamed string
	}
	// The per-mechanism detection/miss claims (paper §3, §4.2).
	want := map[string]map[string]expectation{
		"appraisal": {
			"rule-breaking manipulation":   {journeyDetects: true, blamed: "shop1"},
			"rule-consistent manipulation": {journeyDetects: false},
			"input forgery":                {journeyDetects: false},
			"record lie":                   {journeyDetects: false},
		},
		"refproto": {
			"rule-breaking manipulation":   {journeyDetects: true, blamed: "shop1"},
			"rule-consistent manipulation": {journeyDetects: true, blamed: "shop1"},
			"input forgery":                {journeyDetects: false},
			"record lie":                   {journeyDetects: true, blamed: "shop1"},
		},
		"vigna": {
			"rule-breaking manipulation":   {journeyDetects: false, auditDetects: true},
			"rule-consistent manipulation": {journeyDetects: false, auditDetects: true},
			"input forgery":                {journeyDetects: false, auditDetects: false},
			"record lie":                   {journeyDetects: false, auditDetects: true},
		},
	}

	for mechName, cells := range want {
		for attackName, exp := range cells {
			t.Run(mechName+"/"+attackName, func(t *testing.T) {
				bed := platformtest.New(t)
				behavior := attacks[attackName]
				for _, name := range []string{"home", "shop1", "shop2", "home2"} {
					name := name
					bed.AddHost(name, platformtest.HostOptions{
						Trusted: strings.HasPrefix(name, "home"),
						Mechanisms: func() []core.Mechanism {
							switch mechName {
							case "appraisal":
								return []core.Mechanism{appraisal.New()}
							case "refproto":
								return refproto.New(refproto.Config{})
							case "vigna":
								return []core.Mechanism{vigna.New()}
							default:
								t.Fatalf("unknown mechanism %q", mechName)
								return nil
							}
						},
						Configure: func(c *host.Config) {
							price := int64(30)
							if name == "shop2" {
								price = 20
							}
							c.Resources = map[string]value.Value{"price": value.Int(price)}
							if name == "shop1" {
								c.Behavior = behavior
							}
						},
					})
				}

				ag := bed.NewAgent("matrix-agent", code)
				if mechName == "appraisal" {
					rules := appraisal.RuleSet{
						appraisal.MustRule("conservation", "moneySpent + moneyRest == moneyInitial"),
						appraisal.MustRule("no-overdraft", "moneyRest >= 0"),
					}
					if err := appraisal.Attach(ag, rules, bed.Owner); err != nil {
						t.Fatal(err)
					}
				}

				launchErr := bed.Run("home", ag)
				failed := bed.FailedVerdicts()
				if detected := len(failed) > 0; detected != exp.journeyDetects {
					t.Errorf("journey detection = %v, want %v (launch err: %v, verdicts: %v)",
						detected, exp.journeyDetects, launchErr, failed)
				}
				for _, v := range failed {
					if v.Suspect != exp.blamed {
						t.Errorf("verdict blames %q, want %q: %s", v.Suspect, exp.blamed, v)
					}
				}

				if mechName == "vigna" && !exp.journeyDetects {
					done, _ := bed.Completed()
					if len(done) != 1 {
						t.Fatal("agent did not complete")
					}
					rep, err := vigna.Audit(context.Background(), vigna.AuditConfig{
						Net:         bed.Net,
						Registry:    bed.Reg,
						LaunchState: value.State{},
						LaunchEntry: "main",
					}, done[0])
					if err != nil {
						t.Fatal(err)
					}
					if !rep.OK != exp.auditDetects {
						t.Errorf("audit detection = %v, want %v (%+v)", !rep.OK, exp.auditDetects, rep)
					}
					if !rep.OK && rep.Cheater != "shop1" {
						t.Errorf("audit blamed %q, want shop1", rep.Cheater)
					}
				}
			})
		}
	}
}

func TestAreaStrings(t *testing.T) {
	if attack.ManipulationOfData.String() != "manipulation of data" {
		t.Errorf("area 5 = %q", attack.ManipulationOfData)
	}
	if attack.Area(99).String() != "area(99)" {
		t.Error("out-of-range area")
	}
	// The blackbox set is areas 2 and 4-7 ([3] as cited in §2.2).
	wantIn := []attack.Area{attack.SpyOutData, attack.ManipulationOfCode,
		attack.ManipulationOfData, attack.ManipulationOfControlFlow, attack.IncorrectExecution}
	for _, a := range wantIn {
		if !a.InBlackboxSet() {
			t.Errorf("%s should be in the blackbox set", a)
		}
	}
	wantOut := []attack.Area{attack.SpyOutCode, attack.Masquerading, attack.DenialOfExecution,
		attack.FalseSystemCallResults}
	for _, a := range wantOut {
		if a.InBlackboxSet() {
			t.Errorf("%s should not be in the blackbox set", a)
		}
	}
}

func TestHonestBehaviorIsNoOp(t *testing.T) {
	h := attack.Honest{}
	st := value.State{"x": value.Int(1)}
	h.TamperState(st)
	h.TamperRecord(nil)
	if st["x"].Int != 1 {
		t.Error("Honest tampered")
	}
}
