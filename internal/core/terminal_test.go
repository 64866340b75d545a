package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/events"
	"repro/internal/host"
	"repro/internal/sigcrypto"
	"repro/internal/transport"
)

// terminalKind is the bus event that ends a stay in each terminal phase.
var terminalKind = map[string]string{
	PhaseCompleted:   events.KindComplete,
	PhaseQuarantined: events.KindQuarantine,
	PhaseFailed:      events.KindFailed,
}

// watchedNode is a node with an event pipeline and one subscriber on its
// bus, registered before any agent arrives.
type watchedNode struct {
	*Node
	sub *events.Subscription
}

func newWatchedNode(t *testing.T, reg *sigcrypto.Registry, net *transport.InProc, name string, cfg NodeConfig) watchedNode {
	t.Helper()
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
	cfg.Host, cfg.Net, cfg.Events = h, net, pipe
	node, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })
	net.Register(name, node)
	return watchedNode{Node: node, sub: pipe.Bus.Subscribe("terminal-test", 4096)}
}

// countKinds counts agentID's events by kind.
func countKinds(evs []events.Event, agentID string) map[string]int {
	counts := map[string]int{}
	for _, ev := range evs {
		if ev.Agent == agentID {
			counts[ev.Kind]++
		}
	}
	return counts
}

// assertSettled checks the record a terminal outcome leaves, read in
// the order a caller reads it: once the receipt has resolved, the
// journal already holds the terminal phase and the bus exactly one
// terminal event, of the phase's kind. It returns that event.
func assertSettled(t *testing.T, n watchedNode, evs []events.Event, rc *Receipt, phase string) events.Event {
	t.Helper()
	select {
	case <-rc.Done():
	default:
		t.Fatalf("%s: receipt unresolved", rc.AgentID())
	}
	if st := n.Status(rc.AgentID()); st.Phase != phase || !st.Terminal() {
		t.Errorf("%s: journal reads %+v once the receipt resolved, want %s", rc.AgentID(), st, phase)
	}
	counts := countKinds(evs, rc.AgentID())
	for p, kind := range terminalKind {
		want := 0
		if p == phase {
			want = 1
		}
		if counts[kind] != want {
			t.Errorf("%s: %d %q events once the receipt resolved, want %d (all: %v)", rc.AgentID(), counts[kind], kind, want, counts)
		}
	}
	if counts[events.KindForward] != 0 {
		t.Errorf("%s: settled here but published %d forward events", rc.AgentID(), counts[events.KindForward])
	}
	for _, ev := range evs {
		if ev.Agent == rc.AgentID() && ev.Kind == terminalKind[phase] {
			return ev
		}
	}
	return events.Event{}
}

// TestTerminalRecordPerDelivery: every outcome of a stay leaves one
// record that agrees with itself — journal phase, one bus event, then
// the receipt — and a forwarded stay leaves no receipt and exactly one
// forward event.
func TestTerminalRecordPerDelivery(t *testing.T) {
	cases := []struct {
		name   string
		mechs  []Mechanism
		code   string
		at     string // the node the journey ends at
		phase  string
		refuse string // the host a failed forward names
	}{
		{"completed", nil, `
proc main() { migrate("h2", "fin") }
proc fin() { done() }`, "h2", PhaseCompleted, ""},
		{"quarantined on arrival", []Mechanism{failingMechanism{}}, `
proc main() { migrate("h2", "fin") }
proc fin() { done() }`, "h2", PhaseQuarantined, ""},
		{"session error", nil, `
proc main() { migrate("h2", "fin") }
proc fin() { x = 1 / 0 }`, "h2", PhaseFailed, ""},
		{"forward refused", nil, `
proc main() { migrate("nowhere", "fin") }
proc fin() { done() }`, "h1", PhaseFailed, "nowhere"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			reg, net := sigcrypto.NewRegistry(), transport.NewInProc()
			nodes := map[string]watchedNode{}
			for _, name := range []string{"h1", "h2"} {
				nodes[name] = newWatchedNode(t, reg, net, name, NodeConfig{Mechanisms: tc.mechs})
			}
			ag, err := agent.New("terminal", "owner", tc.code, "main")
			if err != nil {
				t.Fatal(err)
			}
			rcs := map[string]*Receipt{"h1": nodes["h1"].Watch(ag.ID), "h2": nodes["h2"].Watch(ag.ID)}
			if _, err := nodes["h1"].Launch(ctx, ag); err != nil {
				t.Fatal(err)
			}
			end := nodes[tc.at]
			if _, err := rcs[tc.at].Wait(ctx); (err == nil) != (tc.phase == PhaseCompleted) {
				t.Fatalf("receipt err = %v at %s", err, tc.at)
			}
			ev := assertSettled(t, end, end.sub.Drain(), rcs[tc.at], tc.phase)
			if tc.phase == PhaseFailed {
				if ev.Field("reason") == "" {
					t.Errorf("failed event %+v names no reason", ev)
				}
				st := end.Status(ag.ID)
				if st.RefusedBy != tc.refuse || ev.Host != tc.refuse || ev.Field("refused-by") != tc.refuse {
					t.Errorf("refused-by: journal %q, event host %q, field %q, want %q",
						st.RefusedBy, ev.Host, ev.Field("refused-by"), tc.refuse)
				}
			}
			if tc.at == "h1" {
				return
			}
			// h1 forwarded: its receipt stays open, and it publishes
			// exactly one forward event (after SendAgent returned, so
			// possibly after h2 settled).
			var h1 []events.Event
			deadline := time.Now().Add(10 * time.Second)
			for countKinds(h1, ag.ID)[events.KindForward] == 0 && time.Now().Before(deadline) {
				h1 = append(h1, nodes["h1"].sub.Drain()...)
				time.Sleep(time.Millisecond)
			}
			counts := countKinds(h1, ag.ID)
			if counts[events.KindForward] != 1 {
				t.Errorf("h1 published %d forward events, want 1 (all: %v)", counts[events.KindForward], counts)
			}
			for _, kind := range terminalKind {
				if counts[kind] != 0 {
					t.Errorf("h1 forwarded but published %d %q events", counts[kind], kind)
				}
			}
			select {
			case <-rcs["h1"].Done():
				t.Error("the forwarding node resolved a receipt")
			default:
			}
			if st := nodes["h1"].Status(ag.ID); st.Phase != PhaseForwarded || st.NextHost != "h2" {
				t.Errorf("h1 journal = %+v, want forwarded to h2", st)
			}
		})
	}
}

// holdMechanism holds the agent named hold in its arrival check until
// release closes, so the node's one worker stays busy.
type holdMechanism struct {
	BaseMechanism
	held, release chan struct{}
}

func (holdMechanism) Name() string { return "hold" }

func (m holdMechanism) CheckAfterSession(_ context.Context, _ *HostContext, ag *agent.Agent) (*Verdict, error) {
	if ag.ID == "hold" {
		close(m.held)
		<-m.release
	}
	return nil, nil
}

// TestCloseSettlesQueuedDeliveries: deliveries still queued when the
// node closes end failed with ErrNodeClosed like any other failure —
// journal, one failed event, receipt — whether Close drains them or
// the worker takes them on its way out.
func TestCloseSettlesQueuedDeliveries(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	hold := holdMechanism{held: make(chan struct{}), release: make(chan struct{})}
	n := newWatchedNode(t, sigcrypto.NewRegistry(), transport.NewInProc(), "h1",
		NodeConfig{Mechanisms: []Mechanism{hold}, Workers: 1, QueueDepth: 8})
	launch := func(id string) *Receipt {
		ag, err := agent.New(id, "owner", `proc main() { done() }`, "main")
		if err != nil {
			t.Fatal(err)
		}
		rc, err := n.Launch(ctx, ag)
		if err != nil {
			t.Fatalf("launch %s: %v", id, err)
		}
		return rc
	}
	rcs := []*Receipt{launch("hold")}
	<-hold.held
	for i := 0; i < 8; i++ {
		rcs = append(rcs, launch(fmt.Sprintf("queued-%d", i)))
	}

	closed := make(chan error, 1)
	go func() { closed <- n.Close() }()
	// Release the held worker only once shutdown has begun: every queued
	// delivery then ends at Close, drained or taken by the worker.
	<-n.rootCtx.Done()
	close(hold.release)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}

	evs := n.sub.Drain()
	for _, rc := range rcs {
		assertSettled(t, n, evs, rc, PhaseFailed)
		res, _ := rc.Result()
		if !errors.Is(res.Err, ErrNodeClosed) || !strings.HasPrefix(res.Err.Error(), "core: node h1: ") {
			t.Errorf("%s: receipt err = %v, want ErrNodeClosed from node h1", rc.AgentID(), res.Err)
		}
		if res.Agent == nil || res.Agent.ID != rc.AgentID() {
			t.Errorf("%s: receipt holds agent %v, want the delivered agent", rc.AgentID(), res.Agent)
		}
	}
	// HandleCall keeps serving after Close: node/status must not read
	// queued for a delivery whose receipt resolved.
	for _, rc := range rcs {
		body, err := n.HandleCall(ctx, "node/status", StatusCallBody(rc.AgentID()))
		if err != nil {
			t.Fatal(err)
		}
		if st, err := DecodeStatusReply(body); err != nil || st.Phase != PhaseFailed {
			t.Errorf("%s: node/status after Close = %+v, %v, want failed", rc.AgentID(), st, err)
		}
	}
}
