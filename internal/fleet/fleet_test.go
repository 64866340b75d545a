package fleet_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/attack"
	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/fleet"
	"repro/internal/host"
	"repro/internal/proof"
	"repro/internal/protection"
	"repro/internal/sigcrypto"
	"repro/internal/testutil"
	"repro/internal/transport"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// itinerary sends one audited agent home -> route... -> home and
// returns its terminal result; a journey that does not complete is
// fatal.
func itinerary(t *testing.T, ctx context.Context, f *fleet.Fleet, id string, route ...string) core.Result {
	t.Helper()
	res, err := journey(t, ctx, f, id, route...)
	if err != nil {
		t.Fatalf("itinerary %s: %v", id, err)
	}
	return res
}

// journey is itinerary for a route that may end in detection: it
// returns the terminal result and error core.AwaitAny reports.
func journey(t *testing.T, ctx context.Context, f *fleet.Fleet, id string, route ...string) (core.Result, error) {
	t.Helper()
	wire, err := f.AuditedAgent(id, fleet.RouteCode("home", route, 1))
	if err != nil {
		t.Fatal(err)
	}
	receipts := f.Watch(id)
	if err := f.Net().SendAgent(ctx, "home", wire); err != nil {
		t.Fatal(err)
	}
	return core.AwaitAny(ctx, receipts...)
}

// parityLevels are the levels the parity tests compare: the cheap
// (LevelRules), adaptive and paranoid (LevelFull) ones.
var parityLevels = []protection.Level{protection.LevelRules, protection.LevelAdaptive, protection.LevelFull}

// parityRoute is the untrusted leg every parity journey travels.
var parityRoute = []string{"u0", "u1", "u2", "u3"}

// parityRun is what one parity fleet saw: journey outcomes, failed
// verdicts, the sessions the malicious hosts tampered with (ground
// truth recorded by the malicious behaviour itself) and the sessions
// some node's failed verdict blamed on a malicious host.
type parityRun struct {
	completed, quarantined, failed, failedVerdicts int
	tampered, detected                             map[string]bool
}

// runParity sends agents audited journeys home -> parityRoute -> home
// over a fleet at level where the malicious hosts tamper with every
// session they run, and closes the fleet before returning.
func runParity(t *testing.T, level protection.Level, agents int, malicious map[string]bool) parityRun {
	t.Helper()
	ctx := testCtx(t)
	f, err := fleet.New("owner")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()

	var mu sync.Mutex
	run := parityRun{tampered: make(map[string]bool), detected: make(map[string]bool)}
	for _, name := range append([]string{"home"}, parityRoute...) {
		var behavior host.Behavior
		if malicious[name] {
			behavior = fleet.Tamperer{OnSession: func(agentID string, hop int) {
				mu.Lock()
				run.tampered[fleet.SessionKey(agentID, hop)] = true
				mu.Unlock()
			}}
		}
		if _, err := f.Add(fleet.Spec{
			Host:  host.Config{Name: name, Trusted: name == "home", Behavior: behavior},
			Level: level,
			Node: core.NodeConfig{OnVerdict: func(v core.Verdict) {
				if v.OK {
					return
				}
				mu.Lock()
				run.failedVerdicts++
				if malicious[v.CheckedHost] {
					run.detected[fleet.SessionKey(v.AgentID, v.CheckedHop)] = true
				}
				mu.Unlock()
			}},
		}); err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < agents; i++ {
		id := fmt.Sprintf("parity-%d", i)
		res, err := journey(t, ctx, f, id, parityRoute...)
		switch {
		case err == nil:
			run.completed++
		case errors.Is(err, core.ErrDetection):
			run.quarantined++
		case res.Err != nil:
			run.failed++
		default:
			t.Fatalf("itinerary %s: %v", id, err)
		}
	}
	if err := f.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	return run
}

// TestDetectionParity pins the adaptive level's acceptance bar against
// the cheap and paranoid levels: on a fleet where two non-adjacent hosts
// tamper with every session they run, each level blames every tampered
// session in some node's failed verdict and quarantines, and no journey
// fails outside detection.
func TestDetectionParity(t *testing.T) {
	for _, level := range parityLevels {
		t.Run(level.String(), func(t *testing.T) {
			run := runParity(t, level, 6, map[string]bool{"u0": true, "u2": true})
			if run.failed != 0 {
				t.Errorf("%d journeys failed outside detection", run.failed)
			}
			if len(run.tampered) == 0 {
				t.Fatal("mixed fleet ran no tampered sessions; scenario broken")
			}
			missed := 0
			for k := range run.tampered {
				if !run.detected[k] {
					missed++
				}
			}
			if missed != 0 {
				t.Errorf("%d of %d tampered sessions never blamed", missed, len(run.tampered))
			}
			if run.quarantined == 0 {
				t.Errorf("no journey quarantined despite %d tampered sessions", len(run.tampered))
			}
		})
	}
}

// TestHonestCompletes: on an all-honest fleet every journey completes
// with no failed verdict, at every parity level.
func TestHonestCompletes(t *testing.T) {
	for _, level := range parityLevels {
		t.Run(level.String(), func(t *testing.T) {
			const agents = 6
			run := runParity(t, level, agents, nil)
			if run.completed != agents || run.failedVerdicts != 0 {
				t.Errorf("honest fleet: %d of %d completed, %d failed verdicts", run.completed, agents, run.failedVerdicts)
			}
		})
	}
}

// TestParityLeavesNothingBehind: a mixed adaptive fleet opens and closes
// the most (ledger, gossip, escalating gate); closing it must leave no
// goroutine or descriptor behind.
func TestParityLeavesNothingBehind(t *testing.T) {
	check := testutil.NoLeaks(t)
	run := runParity(t, protection.LevelAdaptive, 4, map[string]bool{"u1": true})
	check()
	if run.failed != 0 {
		t.Errorf("%d journeys failed outside detection", run.failed)
	}
}

// traceSpy observes what the host recorded for each session.
type traceSpy struct {
	attack.Honest
	entries *atomic.Int64
}

func (s traceSpy) TamperRecord(rec *host.SessionRecord) {
	s.entries.Add(int64(len(rec.Trace.Entries)))
}

// TestRecordTraceDerivedFromMechanisms pins the derivation: hosts
// record a statement trace iff an assembled mechanism requests the
// execution log. In particular not at LevelFull, the
// agenthost default, which used to record every session for no reader.
func TestRecordTraceDerivedFromMechanisms(t *testing.T) {
	cases := []struct {
		name  string
		spec  func() fleet.Spec
		wants bool
	}{
		{"none", func() fleet.Spec { return fleet.Spec{Level: protection.LevelNone} }, false},
		{"signed", func() fleet.Spec { return fleet.Spec{Level: protection.LevelSigned} }, false},
		{"rules", func() fleet.Spec { return fleet.Spec{Level: protection.LevelRules} }, false},
		{"traces", func() fleet.Spec { return fleet.Spec{Level: protection.LevelTraces} }, true},
		{"full", func() fleet.Spec { return fleet.Spec{Level: protection.LevelFull} }, false},
		{"adaptive", func() fleet.Spec { return fleet.Spec{Level: protection.LevelAdaptive} }, false},
		{"explicit proof", func() fleet.Spec { return fleet.Spec{Mechanisms: []core.Mechanism{proof.New()}} }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := fleet.New("owner")
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = f.Close() }()
			var entries atomic.Int64
			for _, name := range []string{"home", "w"} {
				spec := tc.spec()
				spec.Host = host.Config{Name: name, Trusted: name == "home", Behavior: traceSpy{entries: &entries}}
				if _, err := f.Add(spec); err != nil {
					t.Fatal(err)
				}
			}
			itinerary(t, testCtx(t), f, "t", "w")
			if got := entries.Load() > 0; got != tc.wants {
				t.Errorf("sessions recorded %d trace entries, want recording = %v", entries.Load(), tc.wants)
			}
		})
	}
}

// TestOpenFailureLeavesNothingBehind: core.NewNode refuses an exchange
// without an Exchanger mechanism — after the pipeline (flight recorder
// WAL) and the stack (vigna WAL) were opened over the data dir. Open
// must close both again.
func TestOpenFailureLeavesNothingBehind(t *testing.T) {
	for _, level := range []protection.Level{protection.LevelSigned, protection.LevelTraces} {
		t.Run(level.String(), func(t *testing.T) {
			check := testutil.NoLeaks(t)
			m, err := fleet.Open(sigcrypto.NewRegistry(), transport.NewInProc(), fleet.Spec{
				Host:     host.Config{Name: "solo"},
				Level:    level,
				DataDir:  t.TempDir(),
				Pipeline: &events.PipelineConfig{},
				Node:     core.NodeConfig{Exchange: core.ExchangeConfig{Peers: []string{"peer"}, Interval: time.Hour}},
			})
			if err == nil {
				_ = m.Close()
				t.Fatal("Open accepted an exchange without an Exchanger mechanism")
			}
			check()
		})
	}
}

// closeProbe is a mechanism that runs a callback when the stack closes.
type closeProbe struct {
	core.BaseMechanism
	onClose func()
}

func (*closeProbe) Name() string   { return "close-probe" }
func (p *closeProbe) Close() error { p.onClose(); return nil }

// TestCloseOrder: when the stack closes, the node already refuses
// deliveries and the pipeline still takes events; afterwards the
// pipeline is closed too.
func TestCloseOrder(t *testing.T) {
	ctx := testCtx(t)
	var m *fleet.Member
	probed := false
	probe := &closeProbe{onClose: func() {
		probed = true
		ag, err := agent.New("late", "owner", `proc main() { done() }`, "main")
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := m.Node.Launch(ctx, ag); !errors.Is(err, core.ErrNodeClosed) {
			t.Errorf("launch while the stack closes: err = %v, want ErrNodeClosed (node closes first)", err)
		}
		// A one-slot subscriber loses two of three events: drops this
		// late in Close must still reach EventDrops.
		m.Pipe.Bus.Subscribe("slow", 1)
		for i := 0; i < 3; i++ {
			if m.Pipe.Publish(events.Event{Kind: "probe"}) == 0 {
				t.Error("pipeline already closed while the stack closes (pipeline closes last)")
			}
		}
	}}
	m, err := fleet.Open(sigcrypto.NewRegistry(), transport.NewInProc(), fleet.Spec{
		Host:       host.Config{Name: "solo"},
		Mechanisms: []core.Mechanism{probe},
		Pipeline:   &events.PipelineConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if !probed {
		t.Fatal("stack was not closed")
	}
	if m.Pipe.Publish(events.Event{Kind: "probe"}) != 0 {
		t.Error("pipeline still open after Close")
	}
	if got := m.EventDrops(); got != 2 {
		t.Errorf("EventDrops after Close = %d, want the 2 drops made while the stack closed", got)
	}
	if err := m.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestCloseRacingDeliveries closes a durable adaptive fleet with
// itineraries in flight at every hop: each of them resolves (completed,
// or ErrNodeClosed where Close caught it), and no store sees a write
// after its WAL closed — that would surface as a persistence error.
func TestCloseRacingDeliveries(t *testing.T) {
	check := testutil.NoLeaks(t)
	ctx := testCtx(t)
	f, err := fleet.New("owner")
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	for _, name := range []string{"home", "w1", "w2"} {
		if _, err := f.Add(fleet.Spec{
			Host:     host.Config{Name: name, Trusted: name == "home"},
			Level:    protection.LevelAdaptive,
			DataDir:  root + "/" + name,
			Pipeline: &events.PipelineConfig{},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Launchers stop launching once closing is set (a Watch on a closed
	// node is a journal write of the test's own making); what they
	// launched before keeps racing Close.
	var mu sync.RWMutex
	closing := false
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				id := fmt.Sprintf("race-%d-%d", g, i)
				wire, err := f.AuditedAgent(id, fleet.RouteCode("home", []string{"w1", "w2"}, 1))
				if err != nil {
					t.Error(err)
					return
				}
				mu.RLock()
				if closing {
					mu.RUnlock()
					return
				}
				receipts := f.Watch(id)
				err = f.Net().SendAgent(ctx, "home", wire)
				mu.RUnlock()
				if err != nil {
					t.Errorf("launch %s: %v", id, err)
					return
				}
				// Every fourth itinerary is awaited, the rest stay in
				// flight behind it. Any terminal outcome will do; hanging
				// would not.
				if i%4 != 3 {
					defer func() { awaitResolved(t, ctx, id, receipts) }()
					continue
				}
				awaitResolved(t, ctx, id, receipts)
			}
		}(g)
	}
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	closing = true
	mu.Unlock()
	if err := f.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	wg.Wait()
	for _, m := range f.Members() {
		if h := m.Node.Health(); h.Degraded {
			t.Errorf("%s: %d persistence errors, the first: %s", m.Name, h.PersistFailures, h.FirstPersistError)
		}
	}
	check()
}

func awaitResolved(t *testing.T, ctx context.Context, id string, receipts []*core.Receipt) {
	if _, err := core.AwaitAny(ctx, receipts...); errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("itinerary %s never resolved", id)
	}
}

// TestReopenKeepsIdentityAndJournal: a member closed and reopened over
// the same DataDir answers for what it did before (journal replayed)
// under the key it had, and works on.
func TestReopenKeepsIdentityAndJournal(t *testing.T) {
	ctx := testCtx(t)
	f, err := fleet.New("owner")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	root := t.TempDir()
	spec := func(name string) fleet.Spec {
		return fleet.Spec{
			Host:    host.Config{Name: name, Trusted: name == "home"},
			Level:   protection.LevelAdaptive,
			DataDir: root + "/" + name,
		}
	}
	for _, name := range []string{"home", "w"} {
		if _, err := f.Add(spec(name)); err != nil {
			t.Fatal(err)
		}
	}
	itinerary(t, ctx, f, "before", "w")
	home := f.Member("home")
	if st := home.Node.Status("before"); !st.Terminal() {
		t.Fatalf("status before restart = %+v, want terminal", st)
	}
	keys := home.Keys

	if err := f.Reopen(home, spec("home")); err == nil {
		t.Fatal("Reopen of an open member succeeded")
	}
	if err := home.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Reopen(home, spec("home")); err != nil {
		t.Fatal(err)
	}
	if home.Keys != keys || home.Host.Keys() != keys {
		t.Error("reopened member changed its signing identity")
	}
	if st := home.Node.Status("before"); !st.Terminal() {
		t.Errorf("status after restart = %+v, want the replayed terminal entry", st)
	}
	itinerary(t, ctx, f, "after", "w")
}

// TestSameResultOnEveryFabric runs one three-host itinerary over the
// in-process network, loopback TCP and a fault-free faultnet fabric.
func TestSameResultOnEveryFabric(t *testing.T) {
	type outcome struct {
		state    canon.Digest
		route    string
		hops     int
		verdicts int
	}
	run := func(t *testing.T, f *fleet.Fleet, err error) outcome {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		check := testutil.NoLeaks(t)
		for _, name := range []string{"home", "w1", "w2"} {
			if _, err := f.Add(fleet.Spec{
				Host:  host.Config{Name: name, Trusted: name == "home"},
				Level: protection.LevelFull,
			}); err != nil {
				t.Fatal(err)
			}
		}
		res := itinerary(t, testCtx(t), f, "same", "w1", "w2")
		for _, v := range res.Verdicts {
			if !v.OK {
				t.Errorf("failed verdict on an honest run: %s", v)
			}
		}
		if err := f.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		check()
		return outcome{canon.HashState(res.Agent.State), fmt.Sprint(res.Agent.Route), res.Agent.Hop, len(res.Verdicts)}
	}
	f, err := fleet.New("owner")
	inproc := run(t, f, err)
	if inproc.hops != 4 || inproc.verdicts == 0 {
		t.Fatalf("in-process run: %+v", inproc)
	}
	f, err = fleet.NewTCP("owner")
	if tcp := run(t, f, err); tcp != inproc {
		t.Errorf("loopback TCP: %+v, in process: %+v", tcp, inproc)
	}
	f, err = fleet.NewFaulty("owner", 1)
	if faulty := run(t, f, err); faulty != inproc {
		t.Errorf("fault-free fabric: %+v, in process: %+v", faulty, inproc)
	}
}

// countingNet counts the agents a member sends.
type countingNet struct {
	transport.Network
	sent *atomic.Int64
}

func (n countingNet) SendAgent(ctx context.Context, host string, wire []byte) error {
	n.sent.Add(1)
	return n.Network.SendAgent(ctx, host, wire)
}

// TestWrapNetOnEveryFabric: an interceptor sees every hop whatever the
// fabric — on a NewFaulty fleet it wraps each member's own view.
func TestWrapNetOnEveryFabric(t *testing.T) {
	for name, open := range map[string]func() (*fleet.Fleet, error){
		"inproc": func() (*fleet.Fleet, error) { return fleet.New("owner") },
		"tcp":    func() (*fleet.Fleet, error) { return fleet.NewTCP("owner") },
		"faulty": func() (*fleet.Fleet, error) { return fleet.NewFaulty("owner", 1) },
	} {
		t.Run(name, func(t *testing.T) {
			f, err := open()
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = f.Close() }()
			var sent atomic.Int64
			f.WrapNet(func(n transport.Network) transport.Network { return countingNet{n, &sent} })
			for _, name := range []string{"home", "w1"} {
				if _, err := f.Add(fleet.Spec{Host: host.Config{Name: name, Trusted: name == "home"}}); err != nil {
					t.Fatal(err)
				}
			}
			itinerary(t, testCtx(t), f, "wrapped", "w1")
			// The owner's launch, home -> w1, w1 -> home.
			if got := sent.Load(); got != 3 {
				t.Errorf("interceptor saw %d sends, want 3", got)
			}
		})
	}
}
