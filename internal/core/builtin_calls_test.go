package core_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/policy"
	"repro/internal/sigcrypto"
	"repro/internal/transport"
)

// blamingMechanism fails every checked session, blaming the previous
// host — the minimal event source for the reputation plumbing.
type blamingMechanism struct {
	core.BaseMechanism
}

func (blamingMechanism) Name() string { return "blaming" }

func (blamingMechanism) CheckAfterSession(_ context.Context, hc *core.HostContext, ag *agent.Agent) (*core.Verdict, error) {
	if ag.Hop == 0 {
		return nil, nil
	}
	prev := ag.Route[len(ag.Route)-1]
	return &core.Verdict{
		Mechanism: "blaming", Moment: core.AfterSession,
		CheckedHost: prev, CheckedHop: ag.Hop - 1,
		Checker: hc.Host.Name(), OK: false, Suspect: prev,
		Reason: "always suspicious",
	}, nil
}

// TestBuiltinReputationAndQuarantineCalls drives two journeys through
// a reputation-policy node and reads the outcome back through the
// node/reputation and node/quarantine built-ins — the path agentctl's
// inspection subcommands use.
func TestBuiltinReputationAndQuarantineCalls(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	reg := sigcrypto.NewRegistry()
	net := transport.NewInProc()

	mkNode := func(name string, trusted bool, cfg core.NodeConfig) *core.Node {
		keys, err := sigcrypto.GenerateKeyPair(name)
		if err != nil {
			t.Fatal(err)
		}
		h, err := host.New(host.Config{Name: name, Keys: keys, Registry: reg, Trusted: trusted})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Host, cfg.Net = h, net
		node, err := core.NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = node.Close() })
		net.Register(name, node)
		return node
	}

	home := mkNode("home", true, core.NodeConfig{})
	pol := policy.NewReputation(policy.ReputationConfig{
		// Undecayed: real time elapses between the two journeys, and
		// the second offense must land on the whole first one to reach
		// the quarantine threshold.
		Ledger: policy.NewLedger(policy.LedgerConfig{HalfLife: -1}),
	})
	checker := mkNode("checker", false, core.NodeConfig{
		Mechanisms: []core.Mechanism{blamingMechanism{}},
		Policy:     pol,
	})

	journey := func(id string) core.Result {
		ag, err := agent.New(id, "owner", `
proc main() { migrate("checker", "fin") }
proc fin() { done() }`, "main")
		if err != nil {
			t.Fatal(err)
		}
		rcs := []*core.Receipt{home.Watch(id), checker.Watch(id)}
		if _, err := home.Launch(ctx, ag); err != nil {
			t.Fatal(err)
		}
		// AwaitAny surfaces the journey's own Err as its error return; a
		// detection outcome is an expected result here, not a test bug.
		res, err := core.AwaitAny(ctx, rcs...)
		if err != nil && !errors.Is(err, core.ErrDetection) {
			t.Fatal(err)
		}
		return res
	}

	// First offense: the reputation policy is lenient — flagged, not
	// quarantined — and the journey completes.
	if res := journey("rep-1"); res.Err != nil {
		t.Fatalf("first journey should continue flagged, got %v", res.Err)
	}
	if st := checker.Status("rep-1"); st.Flags != 1 {
		t.Errorf("first journey flags = %d, want 1", st.Flags)
	}

	body, err := checker.HandleCall(ctx, "node/reputation", core.ReputationCallBody("home"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.DecodeReputationReply(body)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Tracked || !rep.Known || rep.Policy != "reputation" {
		t.Fatalf("reputation reply = %+v, want tracked+known under the reputation policy", rep)
	}
	if rep.Rep.Failures != 1 || rep.Rep.Suspicion <= 0 {
		t.Errorf("reputation after one offense = %+v", rep.Rep)
	}

	// A node without a ledger answers Tracked=false instead of erroring.
	body, err = home.HandleCall(ctx, "node/reputation", core.ReputationCallBody("checker"))
	if err != nil {
		t.Fatal(err)
	}
	if rep, err = core.DecodeReputationReply(body); err != nil || rep.Tracked {
		t.Errorf("strict node reputation reply = %+v, %v; want untracked", rep, err)
	}

	// Second offense crosses the quarantine threshold.
	if res := journey("rep-2"); res.Err == nil {
		t.Fatal("second journey should be quarantined")
	}
	body, err = checker.HandleCall(ctx, "node/quarantine", core.QuarantineCallBody("rep-2"))
	if err != nil {
		t.Fatal(err)
	}
	q, err := core.DecodeQuarantineReply(body)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Held || q.Status.Phase != core.PhaseQuarantined {
		t.Fatalf("quarantine reply = %+v, want held+quarantined", q)
	}
	if len(q.Verdicts) == 0 || q.Owner != "owner" {
		t.Errorf("quarantine evidence missing: %+v", q)
	}

	// An agent that was never quarantined reads back explicitly.
	body, err = checker.HandleCall(ctx, "node/quarantine", core.QuarantineCallBody("rep-1"))
	if err != nil {
		t.Fatal(err)
	}
	if q, err = core.DecodeQuarantineReply(body); err != nil || q.Held || q.Evicted {
		t.Errorf("non-quarantined reply = %+v, %v", q, err)
	}
}
