package appraisal_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/agent"
	"repro/internal/appraisal"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/platformtest"
	"repro/internal/sigcrypto"
	"repro/internal/value"
)

func TestRuleCompileAndEvaluate(t *testing.T) {
	r := appraisal.MustRule("money", "moneySpent + moneyRest == moneyInitial")
	st := value.State{
		"moneySpent":   value.Int(30),
		"moneyRest":    value.Int(70),
		"moneyInitial": value.Int(100),
	}
	if ok, err := r.Holds(st); err != nil || !ok {
		t.Errorf("Holds = %v, %v", ok, err)
	}
	st["moneySpent"] = value.Int(31)
	if ok, err := r.Holds(st); err != nil || ok {
		t.Errorf("violated rule holds: %v, %v", ok, err)
	}
}

func TestRuleRejectsImpureExpressions(t *testing.T) {
	if _, err := appraisal.NewRule("bad", `read("x") == 1`); err == nil {
		t.Error("rule with input external compiled")
	}
	if _, err := appraisal.NewRule("bad", `f() == 1`); err == nil {
		t.Error("rule with procedure call compiled")
	}
	if _, err := appraisal.NewRule("bad", `1 +`); err == nil {
		t.Error("malformed rule compiled")
	}
}

func TestRuleOnMissingVariableFails(t *testing.T) {
	r := appraisal.MustRule("r", "x == 1")
	if _, err := r.Holds(value.State{}); err == nil {
		t.Error("rule over missing variable evaluated")
	}
}

// buyerCode is an agent with a money invariant: it "spends" on the shop
// host.
const buyerCode = `
proc main() {
    moneyInitial = 100
    moneyRest = 100
    moneySpent = 0
    migrate("shop", "buy")
}
proc buy() {
    let price = read("price")
    moneySpent = moneySpent + price
    moneyRest = moneyRest - price
    migrate("home2", "finish")
}
proc finish() { done() }`

var buyerRules = appraisal.RuleSet{
	appraisal.MustRule("conservation", "moneySpent + moneyRest == moneyInitial"),
	appraisal.MustRule("no-overdraft", "moneyRest >= 0"),
}

func buildBed(t *testing.T, shopBehavior host.Behavior) (*platformtest.Bed, *agent.Agent) {
	t.Helper()
	bed := platformtest.New(t)
	for _, name := range []string{"home", "shop", "home2"} {
		name := name
		bed.AddHost(name, platformtest.HostOptions{
			Trusted:    strings.HasPrefix(name, "home"),
			Mechanisms: func() []core.Mechanism { return []core.Mechanism{appraisal.New()} },
			Configure: func(c *host.Config) {
				if name == "shop" {
					c.Resources = map[string]value.Value{"price": value.Int(30)}
					c.Behavior = shopBehavior
				}
			},
		})
	}
	owner := bed.Owner
	ag := bed.NewAgent("buyer", buyerCode)
	if err := appraisal.Attach(ag, buyerRules, owner); err != nil {
		t.Fatal(err)
	}
	return bed, ag
}

func TestHonestJourneyPasses(t *testing.T) {
	bed, ag := buildBed(t, nil)
	if err := bed.Run("home", ag); err != nil {
		t.Fatal(err)
	}
	done, aborted := bed.Completed()
	if len(done) != 1 || aborted {
		t.Fatalf("done=%d aborted=%v", len(done), aborted)
	}
	if got := done[0].State["moneyRest"].Int; got != 70 {
		t.Errorf("moneyRest = %d", got)
	}
	for _, v := range bed.Verdicts() {
		if !v.OK {
			t.Errorf("failed verdict on honest run: %s", v)
		}
	}
}

func TestRuleViolatingManipulationDetected(t *testing.T) {
	// The shop drains the wallet without booking the spend: violates
	// conservation.
	bed, ag := buildBed(t, attack.DataManipulation{Var: "moneyRest", Val: value.Int(0)})
	err := bed.Run("home", ag)
	if !errors.Is(err, core.ErrDetection) {
		t.Fatalf("err = %v, want ErrDetection", err)
	}
	failed := bed.FailedVerdicts()
	if len(failed) != 1 || failed[0].Suspect != "shop" {
		t.Fatalf("failed = %v", failed)
	}
	if !strings.Contains(strings.Join(failed[0].Evidence, " "), "conservation") {
		t.Errorf("evidence does not name the violated rule: %v", failed[0].Evidence)
	}
}

func TestRuleConsistentManipulationMissed(t *testing.T) {
	// The documented §3.1 limitation: a manipulation that keeps the
	// rules satisfied (here: inflating the price consistently on both
	// sides of the invariant) is undetectable by appraisal.
	bed, ag := buildBed(t, attack.StateMutation{Mutate: func(st value.State) {
		st["moneySpent"] = value.Int(90)
		st["moneyRest"] = value.Int(10)
	}})
	if err := bed.Run("home", ag); err != nil {
		t.Fatalf("rule-consistent manipulation should pass, got %v", err)
	}
	if len(bed.FailedVerdicts()) != 0 {
		t.Errorf("rule-consistent manipulation detected, contradicting §3.1: %v", bed.FailedVerdicts())
	}
	done, _ := bed.Completed()
	if done[0].State["moneySpent"].Int != 90 {
		t.Error("manipulation did not survive")
	}
}

func TestStrippedRulesDetected(t *testing.T) {
	bed, ag := buildBed(t, attack.RecordLie{}) // honest execution
	// Strip rule baggage before launch to simulate in-flight removal at
	// the first hop boundary.
	ag.ClearBaggage(appraisal.MechanismName)
	err := bed.Run("home", ag)
	if !errors.Is(err, core.ErrDetection) {
		t.Fatalf("err = %v, want ErrDetection", err)
	}
	if f := bed.FailedVerdicts(); len(f) == 0 || !strings.Contains(strings.Join(f[0].Evidence, " "), "missing") {
		t.Errorf("failed = %v", f)
	}
}

func TestForgedRulesDetected(t *testing.T) {
	bed, ag := buildBed(t, nil)
	// A host replaces the rules with permissive ones, signed by itself.
	forger, err := sigcrypto.GenerateKeyPair("forger")
	if err != nil {
		t.Fatal(err)
	}
	if err := bed.Reg.RegisterKeyPair(forger); err != nil {
		t.Fatal(err)
	}
	if err := appraisal.Attach(ag, appraisal.RuleSet{appraisal.MustRule("always", "true")}, forger); err != nil {
		t.Fatal(err)
	}
	errLaunch := bed.Run("home", ag)
	if !errors.Is(errLaunch, core.ErrDetection) {
		t.Fatalf("err = %v, want ErrDetection", errLaunch)
	}
	if f := bed.FailedVerdicts(); len(f) == 0 || !strings.Contains(strings.Join(f[0].Evidence, " "), "owner") {
		t.Errorf("failed = %v", f)
	}
}

func TestCheckAfterTaskAppraisesFinalState(t *testing.T) {
	// The final host's own session breaks the invariant; only
	// checkAfterTask can see it (there is no next host).
	bed := platformtest.New(t)
	for _, name := range []string{"home", "shop"} {
		name := name
		bed.AddHost(name, platformtest.HostOptions{
			Trusted:    name == "home",
			Mechanisms: func() []core.Mechanism { return []core.Mechanism{appraisal.New()} },
			Configure: func(c *host.Config) {
				if name == "shop" {
					c.Resources = map[string]value.Value{"price": value.Int(30)}
					c.Behavior = attack.DataManipulation{Var: "moneyRest", Val: value.Int(-1)}
				}
			},
		})
	}
	owner := bed.Owner
	// Task ends on the shop host itself.
	code := `
proc main() {
    moneyInitial = 100
    moneyRest = 100
    moneySpent = 0
    migrate("shop", "buy")
}
proc buy() {
    let price = read("price")
    moneySpent = moneySpent + price
    moneyRest = moneyRest - price
    done()
}`
	ag := bed.NewAgent("buyer2", code)
	if err := appraisal.Attach(ag, buyerRules, owner); err != nil {
		t.Fatal(err)
	}
	if err := bed.Run("home", ag); err != nil {
		t.Fatal(err)
	}
	var taskVerdict *core.Verdict
	for _, v := range bed.Verdicts() {
		if v.Moment == core.AfterTask {
			vv := v
			taskVerdict = &vv
		}
	}
	if taskVerdict == nil {
		t.Fatal("no checkAfterTask verdict")
	}
	if taskVerdict.OK {
		t.Error("final-state violation not caught by checkAfterTask")
	}
}

// TestRepeatDamageAttribution pins the voucher rules for appraisal's
// repeat-detection suppression: a prior failed verdict suppresses
// blame only when it is signed by its named checker and that checker
// is not the host now under suspicion — a cheater signing a fake
// "prior failure" as itself (or forging another host's voucher) must
// still be blamed.
func TestRepeatDamageAttribution(t *testing.T) {
	ctx := context.Background()
	reg := sigcrypto.NewRegistry()
	keys := make(map[string]*sigcrypto.KeyPair)
	for _, name := range []string{"mallory", "checker", "witness", "owner"} {
		kp, err := sigcrypto.GenerateKeyPair(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.RegisterKeyPair(kp); err != nil {
			t.Fatal(err)
		}
		keys[name] = kp
	}
	h, err := host.New(host.Config{Name: "checker", Keys: keys["checker"], Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	hc := &core.HostContext{Host: h}
	mech := appraisal.New()
	rules := appraisal.RuleSet{appraisal.MustRule("track", "total == hops")}

	mkAgent := func(forged []core.Verdict) *agent.Agent {
		ag, err := agent.New("vic", "owner", `proc main() { done() }`, "main")
		if err != nil {
			t.Fatal(err)
		}
		ag.SetVar("total", value.Int(5)) // violates total == hops
		ag.SetVar("hops", value.Int(1))
		if err := appraisal.Attach(ag, rules, keys["owner"]); err != nil {
			t.Fatal(err)
		}
		// Two sessions behind us: the checked session is hop 1 (ran on
		// mallory), so a hop-0 voucher is strictly earlier.
		ag.Route = []string{"witness", "mallory"}
		ag.Hop = 2
		if forged != nil {
			enc, err := core.EncodeVerdicts(forged)
			if err != nil {
				t.Fatal(err)
			}
			ag.SetBaggage("core/verdicts", enc)
		}
		return ag
	}
	prior := func(checker string, signer *sigcrypto.KeyPair) core.Verdict {
		v := core.Verdict{
			AgentID: "vic", Mechanism: "appraisal", Moment: core.AfterSession,
			CheckedHost: "elsewhere", CheckedHop: 0, Checker: checker,
			OK: false, Suspect: "elsewhere", Reason: "earlier damage",
		}
		if signer != nil {
			v.Sign(signer)
		}
		return v
	}
	check := func(t *testing.T, forged []core.Verdict, wantSuspect string) {
		t.Helper()
		v, err := mech.CheckAfterSession(ctx, hc, mkAgent(forged))
		if err != nil {
			t.Fatal(err)
		}
		if v == nil || v.OK {
			t.Fatalf("violation not detected: %+v", v)
		}
		if v.Suspect != wantSuspect {
			t.Errorf("suspect = %q, want %q (reason: %s)", v.Suspect, wantSuspect, v.Reason)
		}
	}

	t.Run("fresh damage blames previous host", func(t *testing.T) {
		check(t, nil, "mallory")
	})
	t.Run("self-vouched prior failure does not excuse the suspect", func(t *testing.T) {
		check(t, []core.Verdict{prior("mallory", keys["mallory"])}, "mallory")
	})
	t.Run("voucher with forged signature is refused", func(t *testing.T) {
		v := prior("witness", keys["mallory"]) // mallory cannot sign as witness
		check(t, []core.Verdict{v}, "mallory")
	})
	t.Run("voucher for another agent is refused", func(t *testing.T) {
		v := core.Verdict{
			AgentID: "other-agent", Mechanism: "appraisal", Moment: core.AfterSession,
			CheckedHop: 0, Checker: "witness", OK: false, Suspect: "elsewhere",
		}
		v.Sign(keys["witness"])
		check(t, []core.Verdict{v}, "mallory")
	})
	t.Run("genuine third-party voucher suppresses attribution", func(t *testing.T) {
		check(t, []core.Verdict{prior("witness", keys["witness"])}, "")
	})
}

// rulesForger replaces the rule baggage, after appraisal has checked
// it on arrival, with permissive rules signed by another key.
type rulesForger struct {
	core.BaseMechanism
	forger *sigcrypto.KeyPair
}

func (rulesForger) Name() string { return "rules-forger" }

func (f rulesForger) CheckAfterSession(_ context.Context, _ *core.HostContext, ag *agent.Agent) (*core.Verdict, error) {
	return nil, appraisal.Attach(ag, appraisal.RuleSet{appraisal.MustRule("always", "true")}, f.forger)
}

// TestRulesVerifiedOncePerStay: the terminal host appraises the agent
// on arrival and again at task end, and verifies and parses its rules
// once for both, as long as the baggage is byte for byte the one it
// verified. Rule bytes replaced between the two moments are verified
// again and refused.
func TestRulesVerifiedOncePerStay(t *testing.T) {
	forger, err := sigcrypto.GenerateKeyPair("forger")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		forge  bool
		verifs int64
	}{
		{"unchanged", false, 2}, // shop's arrival, home2's arrival
		{"replaced", true, 3},   // and home2's task end again
	} {
		t.Run(tc.name, func(t *testing.T) {
			bed := platformtest.New(t)
			var mechs []*appraisal.Mechanism
			for _, name := range []string{"home", "shop", "home2"} {
				name := name
				bed.AddHost(name, platformtest.HostOptions{
					Trusted: strings.HasPrefix(name, "home"),
					Mechanisms: func() []core.Mechanism {
						m := appraisal.New()
						mechs = append(mechs, m)
						if name == "home2" && tc.forge {
							return []core.Mechanism{m, rulesForger{forger: forger}}
						}
						return []core.Mechanism{m}
					},
					Configure: func(c *host.Config) {
						c.Resources = map[string]value.Value{"price": value.Int(30)}
					},
				})
			}
			if err := bed.Reg.RegisterKeyPair(forger); err != nil {
				t.Fatal(err)
			}
			ag := bed.NewAgent("buyer", buyerCode)
			if err := appraisal.Attach(ag, buyerRules, bed.Owner); err != nil {
				t.Fatal(err)
			}
			runErr := bed.Run("home", ag)
			var n int64
			for _, m := range mechs {
				n += m.RuleVerifications()
			}
			if n != tc.verifs {
				t.Errorf("%d rule verifications, want %d", n, tc.verifs)
			}
			var task *core.Verdict
			for _, v := range bed.Verdicts() {
				if v.Moment == core.AfterTask {
					task = &v
				}
			}
			switch {
			case task == nil:
				t.Fatalf("no task-end verdict (run: %v)", runErr)
			case task.OK == tc.forge:
				t.Errorf("task-end verdict OK = %t: %s", task.OK, task)
			case tc.forge && !strings.Contains(strings.Join(task.Evidence, " "), "not by owner"):
				t.Errorf("task-end evidence = %q", task.Evidence)
			}
		})
	}
}
