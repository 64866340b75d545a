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
	"repro/internal/policy"
	"repro/internal/protection"
)

// TestTCPFederationConvergence is the hierarchical-federation e2e
// variant (REPRO_FEDERATION=1, see ci.yml): an adaptive fleet over real
// TCP sockets where two aggregator nodes front the exchange and every
// other node is a member exchanging only with them. A tampering host is
// detected first-hand on the itinerary; the suspicion must climb
// member -> aggregator -> member to a node that never saw agent
// traffic. A parked "probe" member then measures the urgent-extract
// exposure window: a fresh quarantine-level detection at its aggregator
// must arrive in exactly one RPC, riding the reply envelope.
func TestTCPFederationConvergence(t *testing.T) {
	if os.Getenv("REPRO_FEDERATION") == "" {
		t.Skip("set REPRO_FEDERATION=1 to run the hierarchical federation TCP variant")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	f, err := fleet.NewTCP("federation-owner")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })

	aggregators := []string{"aggA", "aggB"}
	for _, name := range []string{"aggA", "aggB", "home", "mid", "back", "remote", "probe"} {
		cfg := host.Config{Name: name, Trusted: name != "mid"}
		if name == "mid" {
			cfg.Behavior = fleet.Tamperer{}
		}
		xcfg := core.ExchangeConfig{
			Aggregators: aggregators,
			Interval:    50 * time.Millisecond,
		}
		switch name {
		case "probe":
			// The probe's loop is parked: its rounds are driven by hand so
			// the urgent exposure window can be counted in RPCs. It pins
			// itself to aggA, the aggregator the fresh detection lands on.
			xcfg.Aggregators = []string{"aggA"}
			xcfg.Interval = time.Hour
		}
		if _, err := f.Add(fleet.Spec{
			Host:  cfg,
			Level: protection.LevelAdaptive,
			Node:  core.NodeConfig{Exchange: xcfg},
		}); err != nil {
			t.Fatal(err)
		}
	}
	net := f.Net()
	stack := func(name string) protection.Stack { return f.Member(name).Stack }

	const agentID = "federation-agent"
	wire, err := f.AuditedAgent(agentID, fleet.RouteCode("home", []string{"mid", "back"}, 1))
	if err != nil {
		t.Fatal(err)
	}
	receipts := f.Watch(agentID)
	if err := net.SendAgent(ctx, "home", wire); err != nil {
		t.Fatalf("launch: %v", err)
	}
	if _, err := core.AwaitAny(ctx, receipts...); err != nil && !errors.Is(err, core.ErrDetection) {
		t.Fatalf("journey: %v", err)
	}

	// The remote member took no agent traffic and exchanges only with
	// the aggregators: the detection must climb the hierarchy to reach
	// it. Poll the same built-in call agentctl uses.
	deadline := time.Now().Add(45 * time.Second)
	var last core.ReputationReply
	for {
		if time.Now().After(deadline) {
			t.Fatalf("remote never learned about mid via the federation: %+v", last)
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
	if st := f.Member("remote").Node.Status(agentID); st.Phase != core.PhaseUnknown {
		t.Errorf("remote saw agent traffic (phase %s) — the scenario requires disjoint traffic", st.Phase)
	}

	// Urgent exposure window: a fresh quarantine-level detection at aggA
	// must reach the parked probe member on its next single RPC.
	const fresh = "fresh-cheat"
	stack("aggA").Ledger.Observe(fresh, false, 2*policy.DefaultQuarantineThreshold)
	if s := stack("probe").Ledger.Suspicion(fresh); s != 0 {
		t.Fatalf("probe already knows %s (%.3f) before its round", fresh, s)
	}
	before, _ := stack("probe").Gossip.ExchangeStats()
	if err := stack("probe").Gossip.Exchange().Step(ctx); err != nil {
		t.Fatalf("probe step: %v", err)
	}
	after, _ := stack("probe").Gossip.ExchangeStats()
	if rpcs := after.Rounds - before.Rounds; rpcs != 1 {
		t.Fatalf("urgent exposure took %d RPCs, want exactly 1", rpcs)
	}
	if after.UrgentMerged == before.UrgentMerged {
		t.Error("probe merged nothing off the reply envelope — urgent piggyback never engaged")
	}
	if s := stack("probe").Ledger.Suspicion(fresh); s < policy.DefaultEscalateThreshold {
		t.Errorf("probe's suspicion of %s below escalation after one RPC: %.3f", fresh, s)
	}
	fmt.Printf("remote's federated view of mid: suspicion %.3f after %d rounds; urgent exposure 1 RPC (%d envelope merges)\n",
		last.Rep.Suspicion, last.Exchange.Rounds, after.UrgentMerged-before.UrgentMerged)
}
