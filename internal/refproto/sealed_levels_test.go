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
// seal.
var sealedLevels = []protection.Level{protection.LevelFull, protection.LevelAdaptive}

// sealJourney sends one audited agent home → u1 → u2 → home over a
// fleet at level, with mutate applied to every agent in flight, and
// returns the failed verdicts the fleet recorded by the journey's end. mutate may use the
// fleet to act as one of its hosts.
func sealJourney(t *testing.T, level protection.Level, mutate func(f *fleet.Fleet, dest string, ag *agent.Agent) error) []core.Verdict {
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
		if _, err := f.Add(fleet.Spec{
			Host:  host.Config{Name: name, Trusted: name == "home"},
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
	if _, err := core.AwaitAny(ctx, receipts...); ctx.Err() != nil {
		t.Fatalf("journey never ended: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	return append([]core.Verdict(nil), failed...)
}

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

// TestInFlightTamperDetected is wholesig's in-flight tamper test at the
// levels where the seal replaces wholesig: a variable no owner rule
// reads is rewritten on the way to u2, whose seal finds the arrived
// state is not the one u1 signed.
func TestInFlightTamperDetected(t *testing.T) {
	tamper := attack.TamperStateInFlight("loot", value.Int(99))
	for _, level := range sealedLevels {
		t.Run(level.String(), func(t *testing.T) {
			failed := sealJourney(t, level, onTheWayTo("u2", func(_ *fleet.Fleet, ag *agent.Agent) error {
				return tamper("u2", ag)
			}))
			wantOneFailure(t, failed, "u2", "u1", "does not match the previous host's signed resulting state")
		})
	}
}

// TestStrippedSignatureDetected is wholesig's stripped-signature test at
// the levels where the seal replaces wholesig.
func TestStrippedSignatureDetected(t *testing.T) {
	strip := attack.StripBaggage(refproto.MechanismName)
	for _, level := range sealedLevels {
		t.Run(level.String(), func(t *testing.T) {
			failed := sealJourney(t, level, onTheWayTo("u2", func(_ *fleet.Fleet, ag *agent.Agent) error {
				return strip("u2", ag)
			}))
			wantOneFailure(t, failed, "u2", "u1", "arrived without protocol baggage")
		})
	}
}

// TestRouteRewrittenInTransitDetected: the route is under the seal. A
// route rewritten on the way to u2 no longer matches what u1 signed;
// u2 blames u1, the host it received the agent from, as it would for
// any other change in transit.
func TestRouteRewrittenInTransitDetected(t *testing.T) {
	for _, level := range sealedLevels {
		t.Run(level.String(), func(t *testing.T) {
			failed := sealJourney(t, level, onTheWayTo("u2", func(_ *fleet.Fleet, ag *agent.Agent) error {
				ag.Route[0] = "elsewhere"
				return nil
			}))
			wantOneFailure(t, failed, "u2", "u1", "session signature invalid")
		})
	}
}

// TestRouteRewrittenByHostDetected: u2 hides its predecessor, rewriting
// the route to read as if the agent came straight from the trusted
// home, and seals the agent as it sends it. Its own signature holds,
// but u1 signed its session over the route as it was, so home finds
// u1's handoff broken and blames u2.
func TestRouteRewrittenByHostDetected(t *testing.T) {
	for _, level := range sealedLevels {
		t.Run(level.String(), func(t *testing.T) {
			failed := sealJourney(t, level, onTheWayTo("home", func(f *fleet.Fleet, ag *agent.Agent) error {
				ag.Route[len(ag.Route)-2] = "home"
				return refproto.Reseal(f.Member("u2").Keys, ag)
			}))
			wantOneFailure(t, failed, "home", "u2", `initial-state handoff invalid: producer signature by "u1"`)
		})
	}
}

// TestVerdictRecordErasedInTransitDetected: the envelope puts every
// other mechanism's baggage under the seal. A travelling verdict record
// emptied on the way to u2 — u1's verdict on home's session erased, the
// slot left in place — breaks u1's signature.
func TestVerdictRecordErasedInTransitDetected(t *testing.T) {
	empty, err := core.EncodeVerdicts(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range sealedLevels {
		t.Run(level.String(), func(t *testing.T) {
			failed := sealJourney(t, level, onTheWayTo("u2", func(_ *fleet.Fleet, ag *agent.Agent) error {
				if len(core.AgentVerdicts(ag)) == 0 {
					t.Error("no verdict on record in flight to erase")
				}
				ag.SetBaggage("core/verdicts", empty)
				return nil
			}))
			wantOneFailure(t, failed, "u2", "u1", "session signature invalid")
		})
	}
}
