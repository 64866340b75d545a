package core_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/host"
	"repro/internal/protection"
)

// TestTCPExchangeConvergence is the exchange-enabled fleet variant of
// the e2e suite (REPRO_E2E_EXCHANGE=1, see ci.yml): four adaptive
// nodes over real TCP sockets, one of which ("remote") is never
// visited by any agent. A tampering host is detected first-hand on the
// itinerary; the anti-entropy exchange must carry the suspicion to
// "remote", observable through the same node/reputation call agentctl
// uses — including the exchange counters.
func TestTCPExchangeConvergence(t *testing.T) {
	if os.Getenv("REPRO_E2E_EXCHANGE") == "" {
		t.Skip("set REPRO_E2E_EXCHANGE=1 to run the exchange-enabled TCP fleet variant")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	f, err := fleet.NewTCP("exchange-owner")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })

	names := []string{"home", "mid", "back", "remote"}
	for _, name := range names {
		cfg := host.Config{Name: name, Trusted: name != "mid"}
		if name == "mid" {
			cfg.Behavior = fleet.Tamperer{}
		}
		if _, err := f.Add(fleet.Spec{
			Host:  cfg,
			Level: protection.LevelAdaptive,
			Node: core.NodeConfig{Exchange: core.ExchangeConfig{
				Peers:    names,
				Interval: 50 * time.Millisecond,
			}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	net := f.Net()

	const agentID = "exchange-agent"
	wire, err := f.AuditedAgent(agentID, fleet.RouteCode("home", []string{"mid", "back"}, 1))
	if err != nil {
		t.Fatal(err)
	}
	receipts := f.Watch(agentID)
	if err := net.SendAgent(ctx, "home", wire); err != nil {
		t.Fatalf("launch: %v", err)
	}
	// Under the reputation policy a first offense is flagged, not
	// quarantined: the journey completes (carrying the failed verdict)
	// or, if escalation already bites, aborts with detection — either
	// way mid's session was detected first-hand somewhere.
	if _, err := core.AwaitAny(ctx, receipts...); err != nil && !errors.Is(err, core.ErrDetection) {
		t.Fatalf("journey: %v", err)
	}

	// The remote node took no agent traffic; only the exchange can
	// teach it about mid. Poll the same built-in call agentctl uses.
	deadline := time.Now().Add(45 * time.Second)
	var last core.ReputationReply
	for {
		if time.Now().After(deadline) {
			t.Fatalf("remote never learned about mid via exchange: %+v", last)
		}
		body, err := net.Call(ctx, "remote", "node/reputation", core.ReputationCallBody("mid"))
		if err != nil {
			t.Fatalf("node/reputation: %v", err)
		}
		last, err = core.DecodeReputationReply(body)
		if err != nil {
			t.Fatal(err)
		}
		if last.Known && last.Rep.Suspicion > 0.4 {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !last.ExchangeEnabled {
		t.Error("remote did not report its exchange loop enabled")
	}
	if last.Exchange.Rounds == 0 && last.Exchange.OffersServed == 0 {
		t.Errorf("remote reports no exchange activity: %+v", last.Exchange)
	}
	if st := f.Member("remote").Node.Status(agentID); st.Phase != core.PhaseUnknown {
		t.Errorf("remote saw agent traffic (phase %s) — the scenario requires disjoint traffic", st.Phase)
	}
	fmt.Printf("remote's exchanged view of mid: suspicion %.3f after %d rounds\n",
		last.Rep.Suspicion, last.Exchange.Rounds)
}
