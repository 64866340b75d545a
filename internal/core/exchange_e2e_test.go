package core_test

import (
	"context"
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/host"
	"repro/internal/policy"
	"repro/internal/protection"
)

// TestExchangeConvergence is the anti-entropy layer's acceptance test:
// four adaptive nodes, one of which ("remote") no agent ever visits. A
// tampering host is detected first-hand on the itinerary; the exchange
// alone must carry the suspicion to "remote", past the gate's
// escalation threshold within a bounded number of synchronized rounds,
// observable through the same node/reputation call agentctl uses —
// exchange counters included. The in-process case runs in every test
// run; the TCP case is the e2e variant over real sockets
// (REPRO_E2E_EXCHANGE=1, see ci.yml).
func TestExchangeConvergence(t *testing.T) {
	t.Run("inproc", func(t *testing.T) { exchangeConvergence(t, fleet.New) })
	t.Run("tcp", func(t *testing.T) {
		if os.Getenv("REPRO_E2E_EXCHANGE") == "" {
			t.Skip("set REPRO_E2E_EXCHANGE=1 to run the exchange over real TCP sockets")
		}
		exchangeConvergence(t, fleet.NewTCP)
	})
}

func exchangeConvergence(t *testing.T, open func(owner string) (*fleet.Fleet, error)) {
	const maxRounds = 16
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	f, err := open("exchange-owner")
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
			// The interval is parked: the test steps every node once per
			// round itself, so rounds are counted exactly.
			Node: core.NodeConfig{Exchange: core.ExchangeConfig{
				Peers:    names,
				Interval: time.Hour,
			}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	net := f.Net()
	ledger := func(name string) *policy.Ledger { return f.Member(name).Stack.Ledger }

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

	// The disjoint-traffic premise: a first-hand detection to spread,
	// and none at remote before any exchange round.
	seed := max(ledger("home").Suspicion("mid"), ledger("back").Suspicion("mid"))
	if seed < policy.DefaultEscalateThreshold {
		t.Fatalf("seed suspicion %.3f below the escalation threshold — no first-hand detection to spread", seed)
	}
	if s := ledger("remote").Suspicion("mid"); s != 0 {
		t.Fatalf("remote suspects mid (%.3f) before any exchange round — traffic was not disjoint", s)
	}

	rounds := 0
	for ; rounds < maxRounds && ledger("remote").Suspicion("mid") < policy.DefaultEscalateThreshold; rounds++ {
		for _, name := range names {
			_ = f.Member(name).Stack.Gossip.Exchange().Step(ctx)
		}
	}

	// Read remote's view through the built-in call agentctl uses.
	body, err := net.Call(ctx, "remote", "node/reputation", core.ReputationCallBody("mid"))
	if err != nil {
		t.Fatalf("node/reputation: %v", err)
	}
	last, err := core.DecodeReputationReply(body)
	if err != nil {
		t.Fatal(err)
	}
	if !last.Known || last.Rep.Suspicion < policy.DefaultEscalateThreshold {
		t.Fatalf("remote did not escalate against mid within %d rounds: %+v", maxRounds, last)
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
	t.Logf("remote escalated against mid after %d synchronized rounds (seed %.3f, remote %.3f)",
		rounds, seed, last.Rep.Suspicion)
}
