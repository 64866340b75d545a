package refproto_test

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/host"
	"repro/internal/protection"
	"repro/internal/refproto"
	"repro/internal/transport"
	"repro/internal/value"
)

// sealedLevels are the levels whose one signature per hop is refproto's
// seal: alone at the first three, beside its checker at the last two.
var sealedLevels = []protection.Level{
	protection.LevelSigned, protection.LevelRules, protection.LevelTraces,
	protection.LevelFull, protection.LevelAdaptive,
}

// transitLevels adds the control, LevelNone: with no seal, nothing
// detects a change made in transit.
var transitLevels = append([]protection.Level{protection.LevelNone}, sealedLevels...)

// checked reports whether the seal's checker runs at level.
func checked(level protection.Level) bool {
	return level == protection.LevelFull || level == protection.LevelAdaptive
}

// sealJourney sends one audited agent home → u1 → u2 → home over a
// fleet at level, with mutate applied to every agent in flight, and
// returns the failed verdicts the fleet recorded by the journey's end.
// mutate may use the fleet to act as one of its hosts.
func sealJourney(t *testing.T, level protection.Level, mutate func(f *fleet.Fleet, dest string, ag *agent.Agent) error) []core.Verdict {
	t.Helper()
	failed, _ := runJourney(t, level, nil, mutate)
	return failed
}

// runJourney is sealJourney with u1 behaving as u1Behavior (nil is
// honest); it also returns how the journey ended.
func runJourney(t *testing.T, level protection.Level, u1Behavior host.Behavior, mutate func(f *fleet.Fleet, dest string, ag *agent.Agent) error) ([]core.Verdict, core.Result) {
	t.Helper()
	f, err := fleet.New("owner")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	f.WrapNet(func(n transport.Network) transport.Network {
		return &attack.InterceptNetwork{Inner: n, MutateAgent: func(dest string, ag *agent.Agent) error {
			return mutate(f, dest, ag)
		}}
	})
	var mu sync.Mutex
	var failed []core.Verdict
	for _, name := range []string{"home", "u1", "u2"} {
		hc := host.Config{Name: name, Trusted: name == "home"}
		if name == "u1" {
			hc.Behavior = u1Behavior
		}
		if _, err := f.Add(fleet.Spec{
			Host:  hc,
			Level: level,
			Node: core.NodeConfig{OnVerdict: func(v core.Verdict) {
				if !v.OK {
					mu.Lock()
					failed = append(failed, v)
					mu.Unlock()
				}
			}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	wire, err := f.AuditedAgent("sealed", fleet.RouteCode("home", []string{"u1", "u2"}, 1))
	if err != nil {
		t.Fatal(err)
	}
	receipts := f.Watch("sealed")
	if err := f.Net().SendAgent(ctx, "home", wire); err != nil {
		t.Fatal(err)
	}
	// Whatever the outcome — quarantine, a departure refused for want of
	// a verified producer, or, under the adaptive level's first-offence
	// leniency, completion with the failure on record — every verdict
	// has been recorded once the journey reaches it.
	res, err := core.AwaitAny(ctx, receipts...)
	if ctx.Err() != nil {
		t.Fatalf("journey never ended: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	return append([]core.Verdict(nil), failed...), res
}

// inTransit leaves every agent in flight as it is.
func inTransit(*fleet.Fleet, string, *agent.Agent) error { return nil }

// onTheWayTo applies mutate to the agent migrating to dest only, not
// to its launch.
func onTheWayTo(dest string, mutate func(f *fleet.Fleet, ag *agent.Agent) error) func(*fleet.Fleet, string, *agent.Agent) error {
	return func(f *fleet.Fleet, to string, ag *agent.Agent) error {
		if to != dest || ag.Hop == 0 {
			return nil
		}
		return mutate(f, ag)
	}
}

// wantOneFailure checks that exactly one failed verdict was recorded:
// refproto's, by checker, blaming suspect, for a reason containing
// reason.
func wantOneFailure(t *testing.T, failed []core.Verdict, checker, suspect, reason string) {
	t.Helper()
	if len(failed) != 1 {
		t.Fatalf("failed verdicts = %v, want one", failed)
	}
	v := failed[0]
	if v.Mechanism != refproto.MechanismName || v.Checker != checker || v.Suspect != suspect || !strings.Contains(v.Reason, reason) {
		t.Fatalf("failed verdict %s; want refproto's at %s against %s reading %q", v, checker, suspect, reason)
	}
}

// wantNoFailure checks that no failed verdict was recorded.
func wantNoFailure(t *testing.T, failed []core.Verdict) {
	t.Helper()
	if len(failed) != 0 {
		t.Fatalf("failed verdicts = %v, want none", failed)
	}
}

// wantTransitFailure is wantOneFailure at a sealed level and
// wantNoFailure at the control.
func wantTransitFailure(t *testing.T, level protection.Level, failed []core.Verdict, checker, suspect, reason string) {
	t.Helper()
	if level == protection.LevelNone {
		wantNoFailure(t, failed)
		return
	}
	wantOneFailure(t, failed, checker, suspect, reason)
}

// TestInFlightTamperDetected: a variable no owner rule reads is
// rewritten on the way to u2, whose seal finds the arrived state is
// not the one u1 signed.
func TestInFlightTamperDetected(t *testing.T) {
	tamper := attack.TamperStateInFlight("loot", value.Int(99))
	for _, level := range transitLevels {
		t.Run(level.String(), func(t *testing.T) {
			failed := sealJourney(t, level, onTheWayTo("u2", func(_ *fleet.Fleet, ag *agent.Agent) error {
				return tamper("u2", ag)
			}))
			wantTransitFailure(t, level, failed, "u2", "u1", "does not match the previous host's signed resulting state")
		})
	}
}

// TestStrippedSignatureDetected: the seal's baggage is removed on the
// way to u2.
func TestStrippedSignatureDetected(t *testing.T) {
	strip := attack.StripBaggage(refproto.MechanismName)
	for _, level := range transitLevels {
		t.Run(level.String(), func(t *testing.T) {
			failed := sealJourney(t, level, onTheWayTo("u2", func(_ *fleet.Fleet, ag *agent.Agent) error {
				return strip("u2", ag)
			}))
			wantTransitFailure(t, level, failed, "u2", "u1", "arrived without protocol baggage")
		})
	}
}

// TestRouteRewrittenInTransitDetected: the route is under the seal. A
// route rewritten on the way to u2 no longer matches what u1 signed;
// u2 blames u1, the host it received the agent from, as it would for
// any other change in transit.
func TestRouteRewrittenInTransitDetected(t *testing.T) {
	for _, level := range transitLevels {
		t.Run(level.String(), func(t *testing.T) {
			failed := sealJourney(t, level, onTheWayTo("u2", func(_ *fleet.Fleet, ag *agent.Agent) error {
				ag.Route[0] = "elsewhere"
				return nil
			}))
			wantTransitFailure(t, level, failed, "u2", "u1", "session signature invalid")
		})
	}
}

// hideU1 is u2 hiding its predecessor: it rewrites the route to read as
// if the agent came straight from the trusted home, and seals the agent
// anew as it sends it, where a seal is stacked.
func hideU1(f *fleet.Fleet, ag *agent.Agent) error {
	ag.Route[len(ag.Route)-2] = "home"
	if _, sealed := ag.GetBaggage(refproto.MechanismName); !sealed {
		return nil
	}
	return refproto.Reseal(f.Member("u2").Keys, ag)
}

// TestRouteRewrittenByHostDetected: u2's own signature holds, but u1
// signed its session over the route as it was, so home's checker finds
// u1's handoff broken and blames u2.
func TestRouteRewrittenByHostDetected(t *testing.T) {
	for _, level := range sealedLevels {
		if !checked(level) {
			continue
		}
		t.Run(level.String(), func(t *testing.T) {
			failed := sealJourney(t, level, onTheWayTo("home", hideU1))
			wantOneFailure(t, failed, "home", "u2", `initial-state handoff invalid: producer signature by "u1"`)
		})
	}
}

// TestRouteRewrittenByHostNotDetectedBySealAlone pins a limit: without
// the checker nobody verifies u1's signature over the route it saw, so
// the seal-only levels accept the route u2 rewrote and signed, as the
// whole-agent signature they replace did.
func TestRouteRewrittenByHostNotDetectedBySealAlone(t *testing.T) {
	for _, level := range transitLevels {
		if checked(level) {
			continue
		}
		t.Run(level.String(), func(t *testing.T) {
			wantNoFailure(t, sealJourney(t, level, onTheWayTo("home", hideU1)))
		})
	}
}

// TestVerdictRecordErasedInTransitDetected: the envelope puts every
// other mechanism's baggage under the seal. A travelling verdict record
// emptied on the way to u2 — u1's verdict on home's session erased, the
// slot left in place — breaks u1's signature. Where an honest arrival
// records no verdict (the seal alone reports only failures, and vigna
// checks at the owner), a record is forged in transit instead, and
// breaks it the same way.
func TestVerdictRecordErasedInTransitDetected(t *testing.T) {
	forged, err := core.EncodeVerdicts([]core.Verdict{{
		AgentID: "sealed", Mechanism: refproto.MechanismName, Moment: core.AfterSession,
		CheckedHost: "home", Checker: "u1", OK: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	empty, err := core.EncodeVerdicts(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range transitLevels {
		recorded := level != protection.LevelNone && level != protection.LevelSigned && level != protection.LevelTraces
		t.Run(level.String(), func(t *testing.T) {
			failed := sealJourney(t, level, onTheWayTo("u2", func(_ *fleet.Fleet, ag *agent.Agent) error {
				if got := len(core.AgentVerdicts(ag)) > 0; got != recorded {
					t.Errorf("verdict on record in flight = %v, want %v", got, recorded)
				}
				if recorded {
					ag.SetBaggage("core/verdicts", empty)
				} else {
					ag.SetBaggage("core/verdicts", forged)
				}
				return nil
			}))
			wantTransitFailure(t, level, failed, "u2", "u1", "session signature invalid")
		})
	}
}

// TestPackageBytesUnderSealRefused: bytes put into the reference-package
// field of a seal-only payload in flight leave the signature intact (the
// signature binds a package only through its digest, which only a
// checker compares), so the seal refuses a package or producer it has
// no checker to read, and blames u1.
func TestPackageBytesUnderSealRefused(t *testing.T) {
	for _, level := range sealedLevels {
		if checked(level) {
			continue
		}
		t.Run(level.String(), func(t *testing.T) {
			failed := sealJourney(t, level, onTheWayTo("u2", func(_ *fleet.Fleet, ag *agent.Agent) error {
				return refproto.CarryPackage(ag, []byte("bytes nobody verifies"))
			}))
			wantOneFailure(t, failed, "u2", "u1", "carries a reference package or producer")
		})
	}
}

// TestExecutingHostTamperingNeedsTheChecker: u1 rewrites a variable in
// its own resulting state and signs the result. The seal alone
// authenticates the hop, not the session, so the tampered agent
// completes; the checker's re-execution at u2 catches the same attack.
func TestExecutingHostTamperingNeedsTheChecker(t *testing.T) {
	tamper := attack.DataManipulation{Var: "loot", Val: value.Int(1000)}
	for _, level := range []protection.Level{
		protection.LevelNone, protection.LevelSigned, protection.LevelRules, protection.LevelTraces, protection.LevelFull,
	} {
		t.Run(level.String(), func(t *testing.T) {
			failed, res := runJourney(t, level, tamper, inTransit)
			if checked(level) {
				wantOneFailure(t, failed, "u2", "u1", "re-execution does not reproduce the claimed resulting state")
				return
			}
			wantNoFailure(t, failed)
			if res.Agent == nil || res.Agent.State["loot"].Int != 1000 {
				t.Fatalf("result %+v: the tampering did not survive", res)
			}
		})
	}
}
