package core_test

import (
	"context"
	"errors"
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

// asyncBed is a deployment of M nodes reachable over either transport,
// with bed-wide verdict counting for bookkeeping assertions.
type asyncBed struct {
	nodes map[string]*core.Node
	net   transport.Network

	mu       sync.Mutex
	verdicts int
	failed   int
}

// newAsyncBed wires hostNames into a deployment. When overTCP is set,
// every node sits behind a real TCP server and forwards over sockets.
func newAsyncBed(t *testing.T, hostNames []string, trusted func(string) bool, overTCP bool) *asyncBed {
	t.Helper()
	reg := sigcrypto.NewRegistry()
	bed := &asyncBed{nodes: make(map[string]*core.Node, len(hostNames))}

	var inproc *transport.InProc
	var tcp *transport.TCPNetwork
	if overTCP {
		tcp = transport.NewTCPNetwork(nil)
		t.Cleanup(tcp.Close)
		bed.net = tcp
	} else {
		inproc = transport.NewInProc()
		bed.net = inproc
	}

	for i, name := range hostNames {
		keys, err := sigcrypto.GenerateKeyPair(name)
		if err != nil {
			t.Fatal(err)
		}
		h, err := host.New(host.Config{
			Name:      name,
			Keys:      keys,
			Registry:  reg,
			Trusted:   trusted(name),
			Resources: map[string]value.Value{"step": value.Int(int64(i + 1))},
		})
		if err != nil {
			t.Fatal(err)
		}
		node, err := core.NewNode(core.NodeConfig{
			Host:       h,
			Net:        bed.net,
			Mechanisms: refproto.New(refproto.Config{}),
			OnVerdict: func(v core.Verdict) {
				bed.mu.Lock()
				bed.verdicts++
				if !v.OK {
					bed.failed++
				}
				bed.mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = node.Close() })
		bed.nodes[name] = node
		if overTCP {
			srv, err := transport.Serve("127.0.0.1:0", node)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = srv.Close() })
			tcp.AddHost(name, srv.Addr())
		} else {
			inproc.Register(name, node)
		}
	}
	return bed
}

// ringCode builds an itinerary visiting every host once in order and
// finishing back where the last hop lands.
func ringCode(hosts []string) string {
	code := "proc main() {\n    acc = acc + resource(\"step\")\n"
	code += "    let at = here()\n"
	for i := 0; i < len(hosts)-1; i++ {
		code += fmt.Sprintf("    if at == %q { migrate(%q, \"main\") }\n", hosts[i], hosts[i+1])
	}
	code += "    done()\n}"
	return code
}

// TestConcurrentItinerariesE2E launches N agents across M hosts and
// asserts verdict and completion bookkeeping stays exact while
// distinct agents run concurrently — over both transports. Run with
// -race: this is the test that exercises the whole async pipeline.
func TestConcurrentItinerariesE2E(t *testing.T) {
	hosts := []string{"m0", "m1", "m2", "m3"}
	trusted := func(name string) bool { return name == "m0" }
	const agents = 16

	for _, mode := range []struct {
		name    string
		overTCP bool
	}{{"inproc", false}, {"tcp", true}} {
		t.Run(mode.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
			defer cancel()
			bed := newAsyncBed(t, hosts, trusted, mode.overTCP)
			code := ringCode(hosts)

			receipts := make([]*core.Receipt, agents)
			var wg sync.WaitGroup
			errs := make(chan error, agents)
			for i := 0; i < agents; i++ {
				ag, err := agent.New(fmt.Sprintf("e2e-%s-%02d", mode.name, i), "owner", code, "main")
				if err != nil {
					t.Fatal(err)
				}
				ag.SetVar("acc", value.Int(0))
				// Every itinerary ends on the last host of the ring.
				receipts[i] = bed.nodes[hosts[len(hosts)-1]].Watch(ag.ID)
				wire, err := ag.Marshal()
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(i int, wire []byte) {
					defer wg.Done()
					if err := bed.net.SendAgent(ctx, hosts[0], wire); err != nil {
						errs <- fmt.Errorf("agent %d: %w", i, err)
					}
				}(i, wire)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}

			wantAcc := int64(0)
			for i := range hosts {
				wantAcc += int64(i + 1)
			}
			for i, rc := range receipts {
				res, err := rc.Wait(ctx)
				if err != nil {
					t.Fatalf("agent %d: %v", i, err)
				}
				// One terminal outcome per itinerary: every other host
				// only forwarded the agent. A host reads "running" until
				// its forward returns, which over TCP can be after the
				// last host finished.
				for _, name := range hosts[:len(hosts)-1] {
					node := bed.nodes[name]
					for st := node.Status(rc.AgentID()); st.Phase != core.PhaseForwarded; st = node.Status(rc.AgentID()) {
						if st.Phase != core.PhaseRunning || ctx.Err() != nil {
							t.Fatalf("agent %d at %s: phase %s, want %s", i, name, st.Phase, core.PhaseForwarded)
						}
						time.Sleep(time.Millisecond)
					}
				}
				if got := res.Agent.State["acc"]; got.Int != wantAcc {
					t.Errorf("agent %d: acc = %s, want %d", i, got, wantAcc)
				}
				for _, v := range res.Verdicts {
					if !v.OK {
						t.Errorf("agent %d: failed verdict on honest run: %s", i, v)
					}
				}
			}

			bed.mu.Lock()
			defer bed.mu.Unlock()
			if bed.failed != 0 {
				t.Errorf("%d failed verdicts on honest runs", bed.failed)
			}
		})
	}
}

// TestCancellationMidItinerary cancels a launch context while its
// agent is executing on a remote host. The itinerary must stop at the
// next phase boundary with the ctx error on a receipt — and the node
// must stay drainable: it keeps serving other agents and closes
// cleanly.
func TestCancellationMidItinerary(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	reg := sigcrypto.NewRegistry()
	net := transport.NewInProc()

	// sluice blocks the "slow" host's read("gate") until released, so
	// the test cancels deterministically mid-session.
	running := make(chan string, 8)
	release := make(chan struct{})
	var releaseOnce sync.Once

	nodes := make(map[string]*core.Node, 2)
	for _, name := range []string{"home", "slow"} {
		keys, err := sigcrypto.GenerateKeyPair(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := host.Config{
			Name:     name,
			Keys:     keys,
			Registry: reg,
			Trusted:  name == "home",
		}
		if name == "slow" {
			cfg.Feed = func(agentID, key string) (value.Value, error) {
				running <- agentID
				<-release
				return value.Int(1), nil
			}
		}
		h, err := host.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		node, err := core.NewNode(core.NodeConfig{Host: h, Net: net, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = node.Close() })
		nodes[name] = node
		net.Register(name, node)
	}

	code := `
proc main() { migrate("slow", "work") }
proc work() { x = read("gate") migrate("home", "fin") }
proc fin() { done() }`

	ag, err := agent.New("cancel-me", "owner", code, "main")
	if err != nil {
		t.Fatal(err)
	}
	rcHome := nodes["home"].Watch(ag.ID)
	rcSlow := nodes["slow"].Watch(ag.ID)

	launchCtx, cancelLaunch := context.WithCancel(ctx)
	if _, err := nodes["home"].Launch(launchCtx, ag); err != nil {
		t.Fatal(err)
	}

	// Wait until the agent is provably mid-session on "slow", then
	// cancel the launch context and unblock the session.
	select {
	case <-running:
	case <-ctx.Done():
		t.Fatal("agent never reached the slow host")
	}
	cancelLaunch()
	releaseOnce.Do(func() { close(release) })

	// The session itself completes (admitted sessions run to their
	// end), but the next phase boundary sees the cancelled context:
	// the itinerary terminates on a receipt with context.Canceled.
	res, err := core.AwaitAny(ctx, rcHome, rcSlow)
	if err == nil {
		t.Fatalf("cancelled itinerary finished cleanly: %+v", res)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}

	// Drainability: the same nodes keep serving fresh agents...
	ag2, err := agent.New("after-cancel", "owner", code, "main")
	if err != nil {
		t.Fatal(err)
	}
	rc2 := nodes["home"].Watch(ag2.ID)
	if _, err := nodes["home"].Launch(ctx, ag2); err != nil {
		t.Fatal(err)
	}
	res2, err := rc2.Wait(ctx)
	if err != nil {
		t.Fatalf("agent after cancellation: %v", err)
	}
	if res2.Agent.State["x"].Int != 1 {
		t.Errorf("x = %s, want 1", res2.Agent.State["x"])
	}

	// ...and close cleanly (no wedged worker). t.Cleanup closes again;
	// Close is idempotent.
	for name, n := range nodes {
		if err := n.Close(); err != nil {
			t.Errorf("closing %s: %v", name, err)
		}
	}
}

// TestJournalEviction pins the bounded-journal contract: terminal
// receipts/status entries beyond the journal bound are evicted oldest-first
// (fresh agent IDs cannot grow node memory without bound), while
// receipts already handed out keep working.
func TestJournalEviction(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	reg := sigcrypto.NewRegistry()
	net := transport.NewInProc()
	keys, err := sigcrypto.GenerateKeyPair("h")
	if err != nil {
		t.Fatal(err)
	}
	h, err := host.New(host.Config{Name: "h", Keys: keys, Registry: reg, Trusted: true})
	if err != nil {
		t.Fatal(err)
	}
	core.ShrinkRetention(t, 2, 0, 0)
	node, err := core.NewNode(core.NodeConfig{Host: h, Net: net})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })
	net.Register("h", node)

	var first *core.Receipt
	for i := 0; i < 5; i++ {
		ag, err := agent.New(fmt.Sprintf("j-%d", i), "owner", `proc main() { x = 1 done() }`, "main")
		if err != nil {
			t.Fatal(err)
		}
		rc, err := node.Launch(ctx, ag)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = rc
		}
		if _, err := rc.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// The oldest terminal entries are gone from the journal...
	if st := node.Status("j-0"); st.Phase != core.PhaseUnknown {
		t.Errorf("evicted agent status = %+v, want unknown", st)
	}
	// ...the newest survive...
	if st := node.Status("j-4"); st.Phase != core.PhaseCompleted {
		t.Errorf("recent agent status = %+v, want completed", st)
	}
	// ...and the receipt handed out before eviction still reads.
	if res, ok := first.Result(); !ok || res.Err != nil {
		t.Errorf("pre-eviction receipt unusable: ok=%v res=%+v", ok, res)
	}
}

// TestIntakeBackpressure pins the bounded-queue contract: once a
// node's intake is full, Launch blocks and then fails with the
// caller's ctx error instead of buffering without limit.
func TestIntakeBackpressure(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	reg := sigcrypto.NewRegistry()
	net := transport.NewInProc()

	keys, err := sigcrypto.GenerateKeyPair("h")
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	var gateOnce sync.Once
	defer gateOnce.Do(func() { close(gate) })
	h, err := host.New(host.Config{
		Name: "h", Keys: keys, Registry: reg, Trusted: true,
		Feed: func(agentID, key string) (value.Value, error) {
			<-gate
			return value.Int(1), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// One worker, queue depth one: the second queued agent fills the
	// stripe while the first blocks in its session.
	node, err := core.NewNode(core.NodeConfig{Host: h, Net: net, Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })
	net.Register("h", node)

	code := `proc main() { x = read("k") done() }`
	mk := func(id string) *agent.Agent {
		ag, err := agent.New(id, "owner", code, "main")
		if err != nil {
			t.Fatal(err)
		}
		return ag
	}

	// First agent occupies the worker (blocked in Feed); wait for it to
	// leave the queue so the next enqueue is deterministic.
	if _, err := node.Launch(ctx, mk("a0")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for node.Status("a0").Phase != core.PhaseRunning {
		if time.Now().After(deadline) {
			t.Fatal("first agent never started")
		}
		time.Sleep(time.Millisecond)
	}
	// Second agent fills the queue.
	if _, err := node.Launch(ctx, mk("a1")); err != nil {
		t.Fatal(err)
	}
	// Third must block and then surface the intake ctx error.
	shortCtx, cancelShort := context.WithTimeout(ctx, 100*time.Millisecond)
	defer cancelShort()
	if _, err := node.Launch(shortCtx, mk("a2")); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("overflowing launch: err = %v, want context.DeadlineExceeded", err)
	}

	gateOnce.Do(func() { close(gate) })
	// The queued agents drain normally.
	for _, id := range []string{"a0", "a1"} {
		if _, err := node.Watch(id).Wait(ctx); err != nil {
			t.Errorf("agent %s: %v", id, err)
		}
	}
}
