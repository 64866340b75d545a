package core_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/refproto"
	"repro/internal/sigcrypto"
	"repro/internal/transport"
	"repro/internal/value"
)

// TestConcurrentAgentsThroughSharedNodes drives many agents through the
// same three platform nodes at once: nodes, hosts, mechanisms and the
// registry must all be safe for concurrent sessions (the refproto
// mechanism in particular keeps per-agent pending handoffs keyed by
// agent ID). With the async intake, distinct agents genuinely run
// concurrently inside each node's worker pool.
func TestConcurrentAgentsThroughSharedNodes(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	reg := sigcrypto.NewRegistry()
	net := transport.NewInProc()

	nodes := make(map[string]*core.Node, 3)
	for i, name := range []string{"alpha", "beta", "gamma"} {
		keys, err := sigcrypto.GenerateKeyPair(name)
		if err != nil {
			t.Fatal(err)
		}
		h, err := host.New(host.Config{
			Name:     name,
			Keys:     keys,
			Registry: reg,
			Trusted:  i != 1,
			Resources: map[string]value.Value{
				"step": value.Int(int64(i + 1)),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		node, err := core.NewNode(core.NodeConfig{
			Host:       h,
			Net:        net,
			Mechanisms: refproto.New(refproto.Config{}),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = node.Close() })
		nodes[name] = node
		net.Register(name, node)
	}

	const agents = 24
	code := `
proc main() {
    acc = resource("step")
    migrate("beta", "mid")
}
proc mid() {
    acc = acc * 10 + resource("step")
    migrate("gamma", "fin")
}
proc fin() {
    acc = acc * 10 + resource("step")
    done()
}`
	// All itineraries finish at gamma; watch before launching so no
	// completion can race past us.
	receipts := make([]*core.Receipt, agents)
	wires := make([][]byte, agents)
	for i := 0; i < agents; i++ {
		ag, err := agent.New(fmt.Sprintf("swarm-%02d", i), "owner", code, "main")
		if err != nil {
			t.Fatal(err)
		}
		wire, err := ag.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		wires[i] = wire
		receipts[i] = nodes["gamma"].Watch(ag.ID)
	}

	var wg sync.WaitGroup
	errs := make(chan error, agents)
	for i := 0; i < agents; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := net.SendAgent(ctx, "alpha", wires[i]); err != nil {
				errs <- fmt.Errorf("agent %d: %w", i, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	completed := make(map[string]*agent.Agent)
	for i, rc := range receipts {
		res, err := rc.Wait(ctx)
		if err != nil {
			t.Fatalf("agent %d: %v", i, err)
		}
		completed[res.Agent.ID] = res.Agent
	}
	if len(completed) != agents {
		t.Fatalf("completed %d of %d agents", len(completed), agents)
	}
	for id, ag := range completed {
		if got := ag.State["acc"]; got.Int != 123 {
			t.Errorf("%s: acc = %s, want 123", id, got)
		}
		vs := core.AgentVerdicts(ag)
		for _, v := range vs {
			if !v.OK {
				t.Errorf("%s: failed verdict in concurrent honest run: %s", id, v)
			}
		}
	}
}
