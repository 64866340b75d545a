package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/canon"
	"repro/internal/host"
	"repro/internal/sigcrypto"
	"repro/internal/transport"
)

// ---- shared test fixtures ----

// testbed wires N hosts into an in-process network with a shared
// registry, each running the given mechanisms.
type testbed struct {
	t        *testing.T
	reg      *sigcrypto.Registry
	net      *transport.InProc
	nodes    map[string]*Node
	mu       sync.Mutex
	verdicts []Verdict
	done     []*agent.Agent
	aborted  bool
}

func newTestbed(t *testing.T) *testbed {
	return &testbed{
		t:     t,
		reg:   sigcrypto.NewRegistry(),
		net:   transport.NewInProc(),
		nodes: make(map[string]*Node),
	}
}

func (tb *testbed) addHost(name string, trusted bool, mechs []Mechanism, mutate func(*host.Config)) *Node {
	tb.t.Helper()
	keys, err := sigcrypto.GenerateKeyPair(name)
	if err != nil {
		tb.t.Fatal(err)
	}
	cfg := host.Config{Name: name, Keys: keys, Registry: tb.reg, Trusted: trusted}
	if mutate != nil {
		mutate(&cfg)
	}
	h, err := host.New(cfg)
	if err != nil {
		tb.t.Fatal(err)
	}
	node, err := NewNode(NodeConfig{
		Host:       h,
		Net:        tb.net,
		Mechanisms: mechs,
		OnVerdict: func(v Verdict) {
			tb.mu.Lock()
			defer tb.mu.Unlock()
			tb.verdicts = append(tb.verdicts, v)
		},
	})
	if err != nil {
		tb.t.Fatal(err)
	}
	tb.nodes[name] = node
	tb.net.Register(name, node)
	tb.t.Cleanup(func() {
		if err := node.Close(); err != nil {
			tb.t.Errorf("closing node %s: %v", name, err)
		}
	})
	return node
}

// run launches the agent on the named node and awaits the itinerary's
// terminal outcome anywhere in the bed — the async equivalent of the
// old synchronous Launch chain. A finished or quarantined agent is
// recorded in done, and aborted says whether it was quarantined.
func (tb *testbed) run(start string, ag *agent.Agent) error {
	tb.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	receipts := make([]*Receipt, 0, len(tb.nodes))
	for _, n := range tb.nodes {
		receipts = append(receipts, n.Watch(ag.ID))
	}
	if _, err := tb.nodes[start].Launch(ctx, ag); err != nil {
		return err
	}
	res, err := AwaitAny(ctx, receipts...)
	if res.Agent != nil && (err == nil || res.Aborted) {
		tb.mu.Lock()
		tb.done = append(tb.done, res.Agent)
		tb.aborted = res.Aborted
		tb.mu.Unlock()
	}
	return err
}

func mkAgent(t *testing.T, code string) *agent.Agent {
	t.Helper()
	ag, err := agent.New("test-agent", "owner", code, "main")
	if err != nil {
		t.Fatal(err)
	}
	return ag
}

// countingMechanism records which callbacks fired, in order.
type countingMechanism struct {
	BaseMechanism
	mu     sync.Mutex
	events []string
}

func (m *countingMechanism) Name() string { return "counting" }

func (m *countingMechanism) log(ev string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.events = append(m.events, ev)
}

func (m *countingMechanism) CheckAfterSession(_ context.Context, hc *HostContext, ag *agent.Agent) (*Verdict, error) {
	m.log("session@" + hc.Host.Name())
	return nil, nil
}

func (m *countingMechanism) PrepareDeparture(_ context.Context, hc *HostContext, ag *agent.Agent, rec *host.SessionRecord) error {
	m.log("depart@" + hc.Host.Name())
	return nil
}

func (m *countingMechanism) CheckAfterTask(_ context.Context, hc *HostContext, ag *agent.Agent, rec *host.SessionRecord) (*Verdict, error) {
	m.log("task@" + hc.Host.Name())
	return &Verdict{Mechanism: "counting", Moment: AfterTask, Checker: hc.Host.Name(), OK: true}, nil
}

func (m *countingMechanism) EndStay(hc *HostContext, ag *agent.Agent) {
	m.log("end@" + hc.Host.Name())
}

func TestPipelineLifecycleOrder(t *testing.T) {
	tb := newTestbed(t)
	m := &countingMechanism{}
	mechs := []Mechanism{m}
	tb.addHost("h1", true, mechs, nil)
	tb.addHost("h2", false, mechs, nil)
	tb.addHost("h3", true, mechs, nil)

	ag := mkAgent(t, `
proc main() { n = 0 migrate("h2", "step") }
proc step() { n = n + 1 migrate("h3", "fin") }
proc fin() { n = n + 1 done() }`)
	if err := tb.run("h1", ag); err != nil {
		t.Fatal(err)
	}

	want := []string{
		"session@h1", "depart@h1",
		"session@h2", "depart@h2",
		"session@h3", "task@h3", "end@h3",
	}
	if len(m.events) != len(want) {
		t.Fatalf("events = %v, want %v", m.events, want)
	}
	for i := range want {
		if m.events[i] != want[i] {
			t.Fatalf("event %d = %q, want %q (all: %v)", i, m.events[i], want[i], m.events)
		}
	}
	// One terminal outcome: a clean finish carrying the task verdict.
	if len(tb.done) != 1 || tb.aborted {
		t.Fatalf("done=%d aborted=%v", len(tb.done), tb.aborted)
	}
	if got := tb.done[0].State["n"]; got.Int != 2 {
		t.Errorf("final n = %s", got)
	}
	if len(tb.verdicts) != 1 || !tb.verdicts[0].OK {
		t.Errorf("verdicts = %v", tb.verdicts)
	}
	// Verdicts also travelled in baggage.
	if vs := AgentVerdicts(tb.done[0]); len(vs) != 1 || vs[0].Mechanism != "counting" {
		t.Errorf("baggage verdicts = %v", vs)
	}
}

// failingMechanism flags every session as an attack.
type failingMechanism struct {
	BaseMechanism
}

func (failingMechanism) Name() string { return "paranoid" }

func (failingMechanism) CheckAfterSession(_ context.Context, hc *HostContext, ag *agent.Agent) (*Verdict, error) {
	if ag.Hop == 0 {
		return nil, nil // nothing to check before the first session
	}
	return &Verdict{
		Mechanism: "paranoid", Moment: AfterSession,
		CheckedHost: ag.Route[len(ag.Route)-1], CheckedHop: ag.Hop - 1,
		Checker: hc.Host.Name(), OK: false, Suspect: ag.Route[len(ag.Route)-1],
		Reason: "always suspicious",
	}, nil
}

func TestDetectionQuarantinesAgent(t *testing.T) {
	tb := newTestbed(t)
	mechs := []Mechanism{failingMechanism{}}
	tb.addHost("h1", true, mechs, nil)
	tb.addHost("h2", false, mechs, nil)

	ag := mkAgent(t, `
proc main() { migrate("h2", "step") }
proc step() { done() }`)
	err := tb.run("h1", ag)
	if !errors.Is(err, ErrDetection) {
		t.Fatalf("err = %v, want ErrDetection", err)
	}
	q, qerr := tb.nodes["h2"].Quarantined("test-agent")
	if qerr != nil {
		t.Fatalf("agent not quarantined at detecting node: %v", qerr)
	}
	if len(AgentVerdicts(q)) != 1 {
		t.Error("quarantined agent lost its verdicts")
	}
	if !tb.aborted {
		t.Error("completion not marked aborted")
	}
}

// TestEndStayOncePerStayNotForwarded: a stay that ends without a
// forward ends once for every StayEnder, before the outcome is
// reported — quarantined on arrival, failed in its session, completed
// (end@h3 in TestPipelineLifecycleOrder) — and a forwarded stay never.
func TestEndStayOncePerStayNotForwarded(t *testing.T) {
	cases := []struct {
		name  string
		first []Mechanism // run before the counting mechanism
		code  string
		want  string
	}{
		{"quarantined", []Mechanism{failingMechanism{}}, `
proc main() { migrate("h2", "step") }
proc step() { done() }`, "session@h1 depart@h1 end@h2"},
		{"session failed", nil, `
proc main() { migrate("h2", "step") }
proc step() { x = 1 / 0 }`, "session@h1 depart@h1 session@h2 end@h2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb := newTestbed(t)
			m := &countingMechanism{}
			mechs := append(tc.first, m)
			tb.addHost("h1", true, mechs, nil)
			tb.addHost("h2", false, mechs, nil)
			if err := tb.run("h1", mkAgent(t, tc.code)); err == nil {
				t.Fatal("journey ended without an error")
			}
			m.mu.Lock()
			got := strings.Join(m.events, " ")
			m.mu.Unlock()
			if got != tc.want {
				t.Errorf("events %q, want %q", got, tc.want)
			}
		})
	}
}

func TestHandleAgentRejectsGarbage(t *testing.T) {
	tb := newTestbed(t)
	node := tb.addHost("h1", true, nil, nil)
	if err := node.HandleAgent(context.Background(), []byte("junk")); err == nil {
		t.Error("garbage wire agent accepted")
	}
}

// callableMechanism answers protocol calls.
type callableMechanism struct {
	BaseMechanism
}

func (callableMechanism) Name() string { return "callable" }

func (callableMechanism) HandleCall(_ context.Context, hc *HostContext, method string, body []byte) ([]byte, error) {
	if method == "ping" {
		return append([]byte("pong:"), body...), nil
	}
	return nil, errors.New("no such method")
}

// TestHandleCallDispatch pins the namespaced call dispatch, and that
// an unknown method is transport.ErrUnknownMethod to errors.Is over both
// fabrics: called in process, and across the node's TCP server.
func TestHandleCallDispatch(t *testing.T) {
	tb := newTestbed(t)
	node := tb.addHost("h1", true, []Mechanism{callableMechanism{}, &countingMechanism{}}, nil)
	srv, err := transport.Serve("127.0.0.1:0", node)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	tcp := transport.NewTCPNetwork(map[string]string{"h1": srv.Addr()})
	t.Cleanup(tcp.Close)

	ctx := context.Background()
	for fabric, net := range map[string]transport.Network{"inproc": tb.net, "tcp": tcp} {
		resp, err := net.Call(ctx, "h1", "callable/ping", []byte("x"))
		if err != nil || string(resp) != "pong:x" {
			t.Errorf("%s: callable/ping = %q, %v", fabric, resp, err)
		}
		for _, c := range []struct{ what, method string }{
			{"non-callable mechanism", "counting/ping"},
			{"unknown mechanism", "ghost/ping"},
			{"malformed method", "nomethodsep"},
		} {
			if _, err := net.Call(ctx, "h1", c.method, nil); !errors.Is(err, transport.ErrUnknownMethod) {
				t.Errorf("%s: %s: %v", fabric, c.what, err)
			}
		}
	}
}

func TestNewNodeValidation(t *testing.T) {
	if _, err := NewNode(NodeConfig{}); err == nil {
		t.Error("nil host accepted")
	}
	keys, err := sigcrypto.GenerateKeyPair("h")
	if err != nil {
		t.Fatal(err)
	}
	h, err := host.New(host.Config{Name: "h", Keys: keys, Registry: sigcrypto.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewNode(NodeConfig{Host: h}); err == nil {
		t.Error("nil network accepted")
	}
}

func TestForwardToUnknownHostFails(t *testing.T) {
	tb := newTestbed(t)
	tb.addHost("h1", true, nil, nil)
	ag := mkAgent(t, `proc main() { migrate("nowhere", "main") }`)
	err := tb.run("h1", ag)
	if err == nil || !strings.Contains(err.Error(), "unknown host") {
		t.Errorf("err = %v", err)
	}
}

func TestVerdictString(t *testing.T) {
	v := Verdict{
		Mechanism: "m", Moment: AfterSession, CheckedHost: "evil", CheckedHop: 2,
		Checker: "good", OK: false, Suspect: "evil", Reason: "state mismatch",
		Evidence: []string{"x: 1 != 2"},
	}
	s := v.String()
	for _, want := range []string{"checkAfterSession", "session 2@evil", "ATTACK DETECTED", "suspect evil", "x: 1 != 2"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	ok := Verdict{Mechanism: "m", Moment: AfterTask, OK: true}
	if !strings.Contains(ok.String(), "OK") || !strings.Contains(ok.String(), "checkAfterTask") {
		t.Errorf("ok verdict string = %q", ok.String())
	}
}

// TestLaunchRefusesOversizedName: Launch validates the agent first, so
// one whose ID is over canon.MaxNameLen is refused as a peer's
// Unmarshal would refuse it, before a journal entry or receipt could
// hold the name.
func TestLaunchRefusesOversizedName(t *testing.T) {
	tb := newTestbed(t)
	node := tb.addHost("h1", true, nil, nil)
	ag := mkAgent(t, `proc main() { done() }`)
	ag.ID = strings.Repeat("a", 1<<20)
	if _, err := node.Launch(context.Background(), ag); !errors.Is(err, canon.ErrMalformed) {
		t.Fatalf("Launch of an agent with a 1 MiB ID: err = %v, want canon.ErrMalformed", err)
	}
	if st := node.Status(ag.ID); st.Phase != PhaseUnknown {
		t.Fatalf("refused launch left a journal entry: phase %q", st.Phase)
	}
}
