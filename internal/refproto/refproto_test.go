package refproto_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/agent"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/platformtest"
	"repro/internal/policy"
	"repro/internal/refproto"
	"repro/internal/sigcrypto"
	"repro/internal/stopwatch"
	"repro/internal/transport"
	"repro/internal/value"
)

// shopAgent visits two shops and keeps the lowest offer — the paper's
// motivating scenario ("comparing different flight prizes").
const shopCode = `
proc main() {
    best = 999999
    bestShop = ""
    migrate("shop1", "visit")
}
proc visit() {
    let offer = read("price")
    if offer < best {
        best = offer
        bestShop = here()
    }
    if here() == "shop1" { migrate("shop2", "visit") } else { migrate("home2", "finish") }
}
proc finish() { done() }`

// buildBed wires home -> shop1 -> shop2 -> home2 with refproto on every
// node. mut lets callers plant attacks per host.
func buildBed(t *testing.T, mut map[string]func(*host.Config), mechs func(hostName string) []core.Mechanism) *platformtest.Bed {
	t.Helper()
	bed := platformtest.New(t)
	addRoute(bed, mut, mechs)
	return bed
}

// addRoute adds buildBed's four hosts to bed. mechs builds a host's
// mechanisms; nil gives every host refproto.New(refproto.Config{}).
func addRoute(bed *platformtest.Bed, mut map[string]func(*host.Config), mechs func(hostName string) []core.Mechanism) {
	addHosts(bed, []string{"home", "shop1", "shop2", "home2"}, mut, mechs)
}

// addHosts adds the named hosts to bed: the ones named home… are
// trusted, shopN offers the price prices gives it.
func addHosts(bed *platformtest.Bed, names []string, mut map[string]func(*host.Config), mechs func(hostName string) []core.Mechanism) {
	if mechs == nil {
		mechs = func(string) []core.Mechanism { return refproto.New(refproto.Config{}) }
	}
	prices := map[string]int64{"shop1": 120, "shop2": 80, "shop3": 90}
	for _, name := range names {
		name := name
		trusted := strings.HasPrefix(name, "home")
		bed.AddHost(name, platformtest.HostOptions{
			Trusted: trusted,
			Mechanisms: func() []core.Mechanism {
				return mechs(name)
			},
			Configure: func(c *host.Config) {
				if p, ok := prices[name]; ok {
					c.Resources = map[string]value.Value{"price": value.Int(p)}
				}
				if m, ok := mut[name]; ok {
					m(c)
				}
			},
		})
	}
}

func launch(t *testing.T, bed *platformtest.Bed) error {
	t.Helper()
	ag := bed.NewAgent("shopper", shopCode)
	return bed.Run("home", ag)
}

func TestHonestJourneyPasses(t *testing.T) {
	bed := buildBed(t, nil, nil)
	if err := launch(t, bed); err != nil {
		t.Fatalf("honest journey failed: %v", err)
	}
	done, aborted := bed.Completed()
	if len(done) != 1 || aborted {
		t.Fatalf("done=%d aborted=%v", len(done), aborted)
	}
	ag := done[0]
	if ag.State["best"].Int != 80 || ag.State["bestShop"].Str != "shop2" {
		t.Errorf("task result wrong: %v", ag.State)
	}
	for _, v := range bed.Verdicts() {
		if !v.OK {
			t.Errorf("honest journey produced failed verdict: %s", v)
		}
	}
	// Untrusted sessions were actually checked: shop1's and shop2's
	// sessions must have verdicts from their successors.
	var checked []string
	for _, v := range bed.Verdicts() {
		checked = append(checked, v.CheckedHost+"->"+v.Checker)
	}
	wantPairs := []string{"shop1->shop2", "shop2->home2"}
	for _, want := range wantPairs {
		found := false
		for _, c := range checked {
			if c == want {
				found = true
			}
		}
		if !found {
			t.Errorf("missing check %s (got %v)", want, checked)
		}
	}
}

func TestTrustedHostSkipped(t *testing.T) {
	bed := buildBed(t, nil, nil)
	if err := launch(t, bed); err != nil {
		t.Fatal(err)
	}
	// home is trusted: the verdict for its session must say "not
	// checked" rather than reporting a re-execution.
	for _, v := range bed.Verdicts() {
		if v.CheckedHost == "home" && !strings.Contains(v.Reason, "trusted") {
			t.Errorf("trusted session was checked: %s", v)
		}
	}
}

func TestDataManipulationDetected(t *testing.T) {
	// shop1 raises the collected best price after execution (area 5).
	bed := buildBed(t, map[string]func(*host.Config){
		"shop1": func(c *host.Config) {
			c.Behavior = attack.DataManipulation{Var: "best", Val: value.Int(500)}
		},
	}, nil)
	err := launch(t, bed)
	if !errors.Is(err, core.ErrDetection) {
		t.Fatalf("err = %v, want ErrDetection", err)
	}
	failed := bed.FailedVerdicts()
	if len(failed) != 1 {
		t.Fatalf("failed verdicts = %v", failed)
	}
	v := failed[0]
	if v.Suspect != "shop1" || v.Checker != "shop2" {
		t.Errorf("suspect=%q checker=%q", v.Suspect, v.Checker)
	}
	// Full-state evidence (§5.1): the diff names the tampered variable.
	joined := strings.Join(v.Evidence, "\n")
	if !strings.Contains(joined, "best") {
		t.Errorf("evidence does not name the tampered variable: %q", joined)
	}
}

// TestUntrustedHostClaimingTrustIsBlamed: shop2, which the registry
// does not trust, tampers with the state and departs as a trusted host
// does, with no package, a zero package digest and its own valid
// session signature. home2 takes trust from its own registry, not from
// the session, so it blames shop2 for the missing package.
func TestUntrustedHostClaimingTrustIsBlamed(t *testing.T) {
	keys, err := sigcrypto.GenerateKeyPair("shop2")
	if err != nil {
		t.Fatal(err)
	}
	bed := platformtest.New(t)
	bed.WrapNet(func(n transport.Network) transport.Network {
		return &attack.InterceptNetwork{Inner: n, MutateAgent: func(dest string, ag *agent.Agent) error {
			if dest == "home2" {
				return refproto.DepartAsTrusted(keys, ag)
			}
			return nil
		}}
	})
	addRoute(bed, map[string]func(*host.Config){
		"shop2": func(c *host.Config) {
			c.Keys = keys
			c.Behavior = attack.DataManipulation{Var: "best", Val: value.Int(500)}
		},
	}, nil)
	if err := launch(t, bed); !errors.Is(err, core.ErrDetection) {
		t.Fatalf("err = %v, want ErrDetection", err)
	}
	failed := bed.FailedVerdicts()
	if len(failed) != 1 || failed[0].Suspect != "shop2" || failed[0].Checker != "home2" ||
		failed[0].Reason != "untrusted session carries no reference package" {
		t.Fatalf("failed verdicts = %v, want home2's one verdict against shop2 for the missing package", failed)
	}
}

func TestIncorrectExecutionDetected(t *testing.T) {
	// shop1 "runs" the comparison wrongly: keeps its own high price as
	// best (area 7) — materialized as a state correct execution cannot
	// produce given the recorded input.
	bed := buildBed(t, map[string]func(*host.Config){
		"shop1": func(c *host.Config) {
			c.Behavior = attack.StateMutation{Mutate: func(st value.State) {
				st["best"] = value.Int(120)
				st["bestShop"] = value.Str("shop1-forced")
			}}
		},
	}, nil)
	err := launch(t, bed)
	if !errors.Is(err, core.ErrDetection) {
		t.Fatalf("err = %v, want ErrDetection", err)
	}
}

// TestOversizedDivergenceStaysOnRecord: the cheating host chooses the
// state it signs, so it chooses how large the divergence evidence is.
// Two thousand junk variables and a 300 KiB string must not keep its
// detection out of the agent's travelling record.
func TestOversizedDivergenceStaysOnRecord(t *testing.T) {
	bed := buildBed(t, map[string]func(*host.Config){
		"shop1": func(c *host.Config) {
			c.Behavior = attack.StateMutation{Mutate: func(st value.State) {
				for i := 0; i < 2000; i++ {
					st[fmt.Sprintf("junk%04d", i)] = value.Int(int64(i))
				}
				st["bestShop"] = value.Str(strings.Repeat("x", 300<<10))
			}}
		},
	}, nil)
	if err := launch(t, bed); !errors.Is(err, core.ErrDetection) {
		t.Fatalf("err = %v, want ErrDetection", err)
	}
	done, aborted := bed.Completed()
	if len(done) != 1 || !aborted {
		t.Fatalf("done=%d aborted=%v", len(done), aborted)
	}
	var failed []core.Verdict
	for _, v := range core.AgentVerdicts(done[0]) {
		if !v.OK {
			failed = append(failed, v)
		}
	}
	if len(failed) != 1 || failed[0].Suspect != "shop1" || failed[0].Checker != "shop2" {
		t.Fatalf("failed verdicts carried by the agent: %v", failed)
	}
	ev := failed[0].Evidence
	if len(ev) < 2 || !strings.HasSuffix(ev[len(ev)-1], "more lines") {
		t.Fatalf("evidence of %d lines does not end in a count of the lines cut", len(ev))
	}
}

func TestInputForgeryNotDetected(t *testing.T) {
	// shop1 lies about the price it offers (area 12 / §4.2): the forged
	// input is recorded as genuine, so the protocol CANNOT detect it —
	// the documented limitation.
	bed := buildBed(t, map[string]func(*host.Config){
		"shop1": func(c *host.Config) {
			c.Behavior = attack.InputForgery{
				Call: "read",
				Forge: func(call string, args []value.Value, honest value.Value) value.Value {
					return value.Int(5) // absurdly low price lures the agent
				},
			}
		},
	}, nil)
	if err := launch(t, bed); err != nil {
		t.Fatalf("input forgery should pass undetected, got %v", err)
	}
	done, _ := bed.Completed()
	if len(done) != 1 {
		t.Fatal("agent did not complete")
	}
	if done[0].State["best"].Int != 5 {
		t.Errorf("forged price not in final state: %v", done[0].State)
	}
	if len(bed.FailedVerdicts()) != 0 {
		t.Errorf("input forgery was detected, contradicting §4.2: %v", bed.FailedVerdicts())
	}
}

func TestRecordLieDetected(t *testing.T) {
	// shop1 executes honestly but reports a doctored input log: the
	// reported triple is internally inconsistent, so re-execution
	// diverges.
	bed := buildBed(t, map[string]func(*host.Config){
		"shop1": func(c *host.Config) {
			c.Behavior = attack.RecordLie{Mutate: func(rec *host.SessionRecord) {
				for i := range rec.Input {
					if rec.Input[i].Call == "read" {
						rec.Input[i].Result = value.Int(7777)
					}
				}
			}}
		},
	}, nil)
	err := launch(t, bed)
	if !errors.Is(err, core.ErrDetection) {
		t.Fatalf("err = %v, want ErrDetection", err)
	}
}

// interceptBed wires the buildBed route with refproto on every node, and
// mutate applied to the agent on its way to shop2. newPolicy builds
// each node's verdict policy; nil quarantines on every failed check.
func interceptBed(t *testing.T, mutate func(*agent.Agent) error, newPolicy func() core.VerdictPolicy) *platformtest.Bed {
	t.Helper()
	bed := platformtest.New(t)
	bed.WrapNet(func(n transport.Network) transport.Network {
		return &attack.InterceptNetwork{
			Inner: n,
			MutateAgent: func(dest string, ag *agent.Agent) error {
				if dest == "shop2" {
					return mutate(ag)
				}
				return nil
			},
		}
	})
	prices := map[string]int64{"shop1": 120, "shop2": 80}
	for _, name := range []string{"home", "shop1", "shop2", "home2"} {
		name := name
		opts := platformtest.HostOptions{
			Trusted: strings.HasPrefix(name, "home"),
			Mechanisms: func() []core.Mechanism {
				return refproto.New(refproto.Config{})
			},
			Configure: func(c *host.Config) {
				if p, ok := prices[name]; ok {
					c.Resources = map[string]value.Value{"price": value.Int(p)}
				}
			},
		}
		if newPolicy != nil {
			opts.Policy = newPolicy()
		}
		bed.AddHost(name, opts)
	}
	return bed
}

// stripBaggage discards the protocol baggage, as a man-in-the-middle
// (or the forwarding host itself) would.
func stripBaggage(ag *agent.Agent) error {
	return attack.StripBaggage(refproto.MechanismName)("shop2", ag)
}

// tamperState rewrites the state in transit: the arrived state no
// longer matches the previous host's signed resulting state.
func tamperState(ag *agent.Agent) error {
	return attack.TamperStateInFlight("best", value.Int(1))("shop2", ag)
}

// replayBaggage delivers an agent whose baggage is for the session
// before the one its position says: the hop is bumped in flight.
func replayBaggage(ag *agent.Agent) error {
	ag.Hop++
	return nil
}

func TestBaggageStrippingDetected(t *testing.T) {
	bed := interceptBed(t, stripBaggage, nil)
	err := launch(t, bed)
	if !errors.Is(err, core.ErrDetection) {
		t.Fatalf("err = %v, want ErrDetection", err)
	}
	failed := bed.FailedVerdicts()
	if len(failed) != 1 || !strings.Contains(failed[0].Reason, "baggage") {
		t.Errorf("failed verdicts = %v", failed)
	}
}

// TestEarlyCheckFailureBlamesNoSuccessor: when shop2's check of shop1
// fails before it can vouch for shop1's session, and a policy that
// flags a first offence lets the agent run on, shop2 holds no producer
// for its own session. It must not present that session as the agent's
// first, which home2 would blame on shop2; the journey stops at shop2's
// departure instead, and shop1 stays the only suspect.
func TestEarlyCheckFailureBlamesNoSuccessor(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*agent.Agent) error
		reason string
	}{
		{"stripped", stripBaggage, "without protocol baggage"},
		{"tampered", tamperState, "signed resulting state"},
		{"replayed", replayBaggage, "replayed?"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bed := interceptBed(t, tc.mutate, func() core.VerdictPolicy {
				return policy.NewReputation(policy.ReputationConfig{})
			})
			err := launch(t, bed)
			failed := bed.FailedVerdicts()
			if len(failed) != 1 || failed[0].Suspect != "shop1" || !strings.Contains(failed[0].Reason, tc.reason) {
				t.Errorf("failed verdicts = %v, want shop2's one verdict against shop1", failed)
			}
			if err == nil || errors.Is(err, core.ErrDetection) || !strings.Contains(err.Error(), "no verified producer") {
				t.Errorf("err = %v, want shop2's departure to stop the journey", err)
			}
		})
	}
}

func TestInFlightStateTamperingDetected(t *testing.T) {
	bed := interceptBed(t, tamperState, nil)
	err := launch(t, bed)
	if !errors.Is(err, core.ErrDetection) {
		t.Fatalf("err = %v, want ErrDetection", err)
	}
	if f := bed.FailedVerdicts(); len(f) != 1 || !strings.Contains(f[0].Reason, "signed resulting state") {
		t.Errorf("failed verdicts = %v", f)
	}
}

// coveringAt gives the host named coverer the mechanisms of a host
// that covers for its predecessor, and every other host the honest
// protocol.
func coveringAt(coverer string) func(string) []core.Mechanism {
	return func(hostName string) []core.Mechanism {
		mechs := refproto.New(refproto.Config{})
		if hostName == coverer {
			return refproto.CoverPredecessor(mechs)
		}
		return mechs
	}
}

func TestConsecutiveCollusionNotDetected(t *testing.T) {
	// shop1 tampers; shop2 covers for it (checks, but reports nothing).
	// The host after shop2 can only check shop2's own — honest —
	// session, so the attack goes unnoticed: the documented §5.1
	// limitation.
	bed := buildBed(t, map[string]func(*host.Config){
		"shop1": func(c *host.Config) {
			c.Behavior = attack.DataManipulation{Var: "best", Val: value.Int(500)}
		},
	}, coveringAt("shop2"))
	if err := launch(t, bed); err != nil {
		t.Fatalf("collusion should evade detection, got %v", err)
	}
	if len(bed.FailedVerdicts()) != 0 {
		t.Errorf("collusion detected, contradicting §5.1: %v", bed.FailedVerdicts())
	}
	done, _ := bed.Completed()
	if len(done) != 1 {
		t.Fatal("agent did not complete")
	}
	// The damage is real — the tampered price survived to the end.
	if best := done[0].State["best"].Int; best != 80 && best == 0 {
		t.Errorf("unexpected final best: %d", best)
	}
}

// TestCoverOneHostLateDetected pins the edge of the §5.1 limit: it
// holds only for consecutive hosts. On home -> shop1 -> shop2 -> shop3
// -> home2, shop1 tampers and shop3 covers for its predecessor, but the
// honest shop2 between them checks shop1's session first and blames
// shop1.
func TestCoverOneHostLateDetected(t *testing.T) {
	bed := platformtest.New(t)
	addHosts(bed, []string{"home", "shop1", "shop2", "shop3", "home2"}, map[string]func(*host.Config){
		"shop1": func(c *host.Config) {
			c.Behavior = attack.DataManipulation{Var: "best", Val: value.Int(500)}
		},
	}, coveringAt("shop3"))
	ag := bed.NewAgent("shopper", `
proc main() {
    best = 999999
    migrate("shop1", "visit")
}
proc visit() {
    let offer = read("price")
    if offer < best { best = offer }
    if here() == "shop1" { migrate("shop2", "visit") }
    if here() == "shop2" { migrate("shop3", "visit") }
    migrate("home2", "finish")
}
proc finish() { done() }`)
	if err := bed.Run("home", ag); !errors.Is(err, core.ErrDetection) {
		t.Fatalf("err = %v, want ErrDetection", err)
	}
	failed := bed.FailedVerdicts()
	if len(failed) != 1 || failed[0].Suspect != "shop1" || failed[0].Checker != "shop2" {
		t.Fatalf("failed verdicts = %v, want shop2's one verdict against shop1", failed)
	}
}

func TestReplayedBaggageDetected(t *testing.T) {
	bed := interceptBed(t, replayBaggage, nil)
	err := launch(t, bed)
	if !errors.Is(err, core.ErrDetection) {
		t.Fatalf("err = %v, want ErrDetection", err)
	}
}

func TestCryptoTimerAccumulates(t *testing.T) {
	timer := &stopwatch.PhaseTimer{}
	bed := buildBed(t, nil, func(string) []core.Mechanism {
		return refproto.New(refproto.Config{Timer: timer})
	})
	if err := launch(t, bed); err != nil {
		t.Fatal(err)
	}
	if timer.Get(stopwatch.PhaseSignVerify) <= 0 {
		t.Error("no sign&verify time accumulated")
	}
}
