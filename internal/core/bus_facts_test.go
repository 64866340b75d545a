package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/events"
	"repro/internal/host"
	"repro/internal/sigcrypto"
	"repro/internal/transport"
)

// notifyPolicy lets an agent with a failed check go on, flagged, and
// notifies its owner.
type notifyPolicy struct{}

func (notifyPolicy) Name() string { return "notify" }

func (notifyPolicy) Decide(_ string, v Verdict) Decision {
	if v.OK {
		return Decision{}
	}
	return Decision{Flag: true, NotifyOwner: true, Reason: "owner told, agent goes on"}
}

// TestOwnerNoticeAndCompletionOnTheBus: an owner notice reaches a
// consumer only through the bus, and a completion through the bus and
// the receipt. A decision with NotifyOwner publishes exactly one
// owner-notice event naming the agent, the suspect and the reason; the
// clean finish publishes exactly one completion event, and its receipt
// holds the agent and its verdicts.
func TestOwnerNoticeAndCompletionOnTheBus(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	reg, net := sigcrypto.NewRegistry(), transport.NewInProc()
	pipes := map[string]*events.Pipeline{}
	nodes := map[string]*Node{}
	for _, name := range []string{"h1", "h2"} {
		keys, err := sigcrypto.GenerateKeyPair(name)
		if err != nil {
			t.Fatal(err)
		}
		h, err := host.New(host.Config{Name: name, Keys: keys, Registry: reg, Trusted: name == "h1"})
		if err != nil {
			t.Fatal(err)
		}
		pipe, err := events.Open(events.PipelineConfig{Node: name})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = pipe.Close() })
		node, err := NewNode(NodeConfig{
			Host: h, Net: net, Mechanisms: []Mechanism{failingMechanism{}},
			Policy: notifyPolicy{}, Events: pipe,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = node.Close() })
		net.Register(name, node)
		pipes[name], nodes[name] = pipe, node
	}

	ag, err := agent.New("noticed", "owner", `
proc main() { migrate("h2", "fin") }
proc fin() { done() }`, "main")
	if err != nil {
		t.Fatal(err)
	}
	rc := nodes["h2"].Watch(ag.ID)
	if _, err := nodes["h1"].Launch(ctx, ag); err != nil {
		t.Fatal(err)
	}
	res, err := rc.Wait(ctx)
	if err != nil {
		t.Fatalf("flagged journey: %v", err)
	}

	// The receipt holds the finished agent and the verdict that
	// flagged it.
	if res.Agent == nil || res.Agent.ID != "noticed" || res.Aborted || res.Agent.Entry != "" {
		t.Fatalf("receipt = %+v, want the finished agent", res)
	}
	if len(res.Verdicts) != 1 || res.Verdicts[0].OK || res.Verdicts[0].Suspect != "h1" || res.Verdicts[0].Checker != "h2" {
		t.Fatalf("receipt verdicts = %v, want h2's failed check of h1", res.Verdicts)
	}

	byKind := func(name, kind string) []events.Event {
		evs, _, _ := pipes[name].Bus.ReadSince(0, 0)
		var out []events.Event
		for _, ev := range evs {
			if ev.Kind == kind {
				out = append(out, ev)
			}
		}
		return out
	}
	notices := byKind("h2", events.KindOwnerNotice)
	if len(notices) != 1 {
		t.Fatalf("h2 published %d owner notices, want 1: %+v", len(notices), notices)
	}
	if n := notices[0]; n.Agent != "noticed" || n.Host != "h1" || n.Field("reason") != "owner told, agent goes on" {
		t.Fatalf("owner notice = %+v, want agent noticed, suspect h1 and the policy's reason", n)
	}
	if n := byKind("h1", events.KindOwnerNotice); len(n) != 0 {
		t.Fatalf("h1 checked nothing but published owner notices: %+v", n)
	}
	completions := byKind("h2", events.KindComplete)
	if len(completions) != 1 || completions[0].Agent != "noticed" {
		t.Fatalf("h2 completion events = %+v, want one for noticed", completions)
	}
	if c := byKind("h1", events.KindComplete); len(c) != 0 {
		t.Fatalf("h1 only forwarded but published completions: %+v", c)
	}
}
