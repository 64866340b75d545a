package host

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/agent"
	"repro/internal/agentlang"
	"repro/internal/sigcrypto"
	"repro/internal/value"
)

func newHost(t *testing.T, name string, mut func(*Config)) *Host {
	t.Helper()
	keys, err := sigcrypto.GenerateKeyPair(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Name:     name,
		Keys:     keys,
		Registry: sigcrypto.NewRegistry(),
	}
	if mut != nil {
		mut(&cfg)
	}
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func newAgent(t *testing.T, code, entry string) *agent.Agent {
	t.Helper()
	a, err := agent.New("ag-1", "alice", code, entry)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewValidation(t *testing.T) {
	keys, err := sigcrypto.GenerateKeyPair("h")
	if err != nil {
		t.Fatal(err)
	}
	reg := sigcrypto.NewRegistry()
	cases := []struct {
		name string
		cfg  Config
	}{
		{"empty name", Config{Keys: keys, Registry: reg}},
		{"nil keys", Config{Name: "h", Registry: reg}},
		{"nil registry", Config{Name: "h", Keys: keys}},
		{"key mismatch", Config{Name: "other", Keys: keys, Registry: reg}},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestNewRegistersKey(t *testing.T) {
	h := newHost(t, "alpha", nil)
	msg := []byte("m")
	if err := h.Registry().Verify(msg, h.Keys().Sign(msg)); err != nil {
		t.Errorf("host key not registered: %v", err)
	}
}

func TestRunSessionBasics(t *testing.T) {
	h := newHost(t, "h1", func(c *Config) {
		c.Resources = map[string]value.Value{"price": value.Int(42)}
	})
	ag := newAgent(t, `
proc main() {
    offer = read("price")
    where = here()
    migrate("h2", "next")
}
proc next() { done() }`, "main")

	rec, err := h.RunSession(context.Background(), ag, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.HostName != "h1" || rec.AgentID != "ag-1" || rec.Hop != 0 {
		t.Errorf("record metadata: %+v", rec)
	}
	if len(rec.Initial) != 0 {
		t.Errorf("initial state not empty: %v", rec.Initial)
	}
	if rec.Resulting["offer"].Int != 42 || rec.Resulting["where"].Str != "h1" {
		t.Errorf("resulting state: %v", rec.Resulting)
	}
	if len(rec.Input) != 2 {
		t.Errorf("input log has %d records, want 2", len(rec.Input))
	}
	if rec.Outcome.Kind != agentlang.OutcomeMigrated {
		t.Error("outcome not migrated")
	}
	// Agent execution state advanced.
	if ag.Hop != 1 || ag.Entry != "next" {
		t.Errorf("agent state: hop=%d entry=%q", ag.Hop, ag.Entry)
	}
	if len(ag.Route) != 1 || ag.Route[0] != "h1" {
		t.Errorf("route: %v", ag.Route)
	}
}

func TestRunSessionSnapshotsAreIsolated(t *testing.T) {
	// Records are copy-on-write snapshots: later mutation of the agent
	// through any platform write path — a further session's indexed
	// writes, Agent.SetVar — must not leak into a returned record.
	h := newHost(t, "h1", nil)
	ag := newAgent(t, `
proc main() { xs = [1] migrate("h1", "second") }
proc second() { xs[0] = 99 done() }`, "main")
	rec1, err := h.RunSession(context.Background(), ag, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec2, err := h.RunSession(context.Background(), ag, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Resulting["xs"].List[0].Int != 99 {
		t.Error("second session's write lost")
	}
	if rec1.Resulting["xs"].List[0].Int != 1 {
		t.Error("first record shares storage with live agent state")
	}
	if rec2.Initial["xs"].List[0].Int != 1 {
		t.Error("second record's initial snapshot saw the session's own write")
	}
	ag.SetVar("xs", value.List(value.Int(7)))
	if rec2.Resulting["xs"].List[0].Int != 99 {
		t.Error("SetVar leaked into record")
	}
}

func TestRunSessionRefusesInvalidAgent(t *testing.T) {
	h := newHost(t, "h1", nil)
	ag := newAgent(t, `proc main() { done() }`, "main")
	ag.Code = `proc main() { hacked = 1 }` // digest now mismatches
	_, err := h.RunSession(context.Background(), ag, SessionOptions{})
	if !errors.Is(err, ErrRefused) {
		t.Errorf("err = %v, want ErrRefused", err)
	}
}

func TestRunSessionUnknownMigrateEntry(t *testing.T) {
	h := newHost(t, "h1", nil)
	ag := newAgent(t, `proc main() { migrate("x", "ghost") }`, "main")
	if _, err := h.RunSession(context.Background(), ag, SessionOptions{}); err == nil {
		t.Error("migrate to unknown entry accepted")
	}
}

func TestAgentTerminates(t *testing.T) {
	h := newHost(t, "h1", nil)
	ag := newAgent(t, `proc main() { x = 1 }`, "main")
	rec, err := h.RunSession(context.Background(), ag, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Outcome.Kind != agentlang.OutcomeDone || ag.Entry != "" || rec.ResultEntry != "" {
		t.Error("termination not reflected")
	}
}

// TestRecvIsLoggedNull: messages have no sender in this
// reproduction, so recv() reads null on every host — and, like every
// input, lands in the session's input log for the checkers to replay.
func TestRecvIsLoggedNull(t *testing.T) {
	h := newHost(t, "h1", nil)
	ag := newAgent(t, `proc main() { a = recv() }`, "main")
	rec, err := h.RunSession(context.Background(), ag, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Resulting["a"].IsNull() {
		t.Errorf("recv() read %s, want null", rec.Resulting["a"])
	}
	if len(rec.Input) != 1 || rec.Input[0].Call != "recv" || !rec.Input[0].Result.IsNull() {
		t.Errorf("input log = %+v, want one recv record reading null", rec.Input)
	}
}

func TestTimeAndRandAreRecordedInput(t *testing.T) {
	h := newHost(t, "h1", nil)
	ag := newAgent(t, `
proc main() {
    t1 = time()
    t2 = time()
    r = rand(100)
}`, "main")
	rec, err := h.RunSession(context.Background(), ag, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Input) != 3 {
		t.Fatalf("input log: %d records, want 3", len(rec.Input))
	}
	if rec.Resulting["t2"].Int <= rec.Resulting["t1"].Int {
		t.Error("default clock not monotonic")
	}
	r := rec.Resulting["r"].Int
	if r < 0 || r >= 100 {
		t.Errorf("rand(100) = %d out of range", r)
	}
}

func TestCustomClockAndFeed(t *testing.T) {
	h := newHost(t, "h1", func(c *Config) {
		c.Clock = func() int64 { return 777 }
		c.Feed = func(agentID, key string) (value.Value, error) {
			return value.Str("fed:" + key), nil
		}
	})
	ag := newAgent(t, `proc main() { t = time() v = read("k") }`, "main")
	rec, err := h.RunSession(context.Background(), ag, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Resulting["t"].Int != 777 || rec.Resulting["v"].Str != "fed:k" {
		t.Errorf("custom clock/feed: %v", rec.Resulting)
	}
}

func TestReadMissingKeyFails(t *testing.T) {
	h := newHost(t, "h1", nil)
	ag := newAgent(t, `proc main() { v = read("missing") }`, "main")
	if _, err := h.RunSession(context.Background(), ag, SessionOptions{}); err == nil {
		t.Error("missing input key did not fail the session")
	}
}

func TestResourceCloneIsolation(t *testing.T) {
	res := value.List(value.Int(1))
	h := newHost(t, "h1", func(c *Config) {
		c.Resources = map[string]value.Value{"db": res}
	})
	ag := newAgent(t, `proc main() { xs = resource("db") xs[0] = 99 }`, "main")
	if _, err := h.RunSession(context.Background(), ag, SessionOptions{}); err != nil {
		t.Fatal(err)
	}
	if res.List[0].Int != 1 {
		t.Error("agent mutated the host's resource store")
	}
}

func TestActionsLedgerAndSink(t *testing.T) {
	var sunk []string
	h := newHost(t, "h1", func(c *Config) {
		c.Sink = func(agentID, action string, args []value.Value) error {
			sunk = append(sunk, action)
			return nil
		}
	})
	ag := newAgent(t, `
proc main() {
    send("partner", "hello")
    act("buy", "book", 42)
}`, "main")
	rec, err := h.RunSession(context.Background(), ag, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	acts := h.Actions("ag-1")
	if len(acts) != 2 || acts[0].Action != "send" || acts[1].Action != "act" {
		t.Errorf("ledger = %+v", acts)
	}
	if len(rec.Outputs) != 2 {
		t.Errorf("record outputs = %+v", rec.Outputs)
	}
	if len(sunk) != 2 {
		t.Errorf("sink saw %v", sunk)
	}
}

func TestSinkErrorAbortsSession(t *testing.T) {
	h := newHost(t, "h1", func(c *Config) {
		c.Sink = func(agentID, action string, args []value.Value) error {
			return errors.New("payment rejected")
		}
	})
	ag := newAgent(t, `proc main() { act("buy", "x") }`, "main")
	_, err := h.RunSession(context.Background(), ag, SessionOptions{})
	if err == nil || !strings.Contains(err.Error(), "payment rejected") {
		t.Errorf("sink error not propagated: %v", err)
	}
}

func TestTraceRecording(t *testing.T) {
	h := newHost(t, "h1", func(c *Config) {
		c.RecordTrace = true
		c.Resources = map[string]value.Value{"k": value.Int(5)}
	})
	ag := newAgent(t, `
proc main() {
    x = read("k")
    y = x + 1
}`, "main")
	rec, err := h.RunSession(context.Background(), ag, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Trace.Len() != 2 {
		t.Fatalf("trace length %d, want 2", rec.Trace.Len())
	}
}

func TestNoTraceByDefault(t *testing.T) {
	h := newHost(t, "h1", nil)
	ag := newAgent(t, `proc main() { x = 1 }`, "main")
	rec, err := h.RunSession(context.Background(), ag, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Trace.Len() != 0 {
		t.Error("trace recorded without RecordTrace")
	}
}

// flagBehavior exercises all three tamper points.
type flagBehavior struct {
	wrapped  bool
	tampered bool
	lied     bool
}

func (b *flagBehavior) WrapEnv(env agentlang.Env) agentlang.Env { b.wrapped = true; return env }
func (b *flagBehavior) TamperState(st value.State) {
	b.tampered = true
	st["injected"] = value.Int(666)
}
func (b *flagBehavior) TamperRecord(rec *SessionRecord) {
	b.lied = true
	rec.Resulting = rec.Resulting.Clone()
}

func TestBehaviorHooksCalled(t *testing.T) {
	beh := &flagBehavior{}
	h := newHost(t, "evil", func(c *Config) { c.Behavior = beh })
	ag := newAgent(t, `proc main() { x = 1 }`, "main")
	rec, err := h.RunSession(context.Background(), ag, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !beh.wrapped || !beh.tampered || !beh.lied {
		t.Errorf("behavior hooks: wrapped=%v tampered=%v lied=%v", beh.wrapped, beh.tampered, beh.lied)
	}
	if ag.State["injected"].Int != 666 {
		t.Error("TamperState changes not applied to agent")
	}
	if rec.Resulting["injected"].Int != 666 {
		t.Error("tampered state not in record")
	}
}

// phaseHook counts proc enters for the ExtraHook path.
type phaseHook struct{ enters int }

func (p *phaseHook) Statement(int, bool, []agentlang.Assignment) {}
func (p *phaseHook) EnterProc(string)                            { p.enters++ }
func (p *phaseHook) ExitProc(string)                             {}

func TestExtraHookAloneAndCombined(t *testing.T) {
	for _, withTrace := range []bool{false, true} {
		ph := &phaseHook{}
		h := newHost(t, "h1", func(c *Config) { c.RecordTrace = withTrace })
		ag := newAgent(t, `proc sub() { return 1 } proc main() { x = sub() }`, "main")
		if _, err := h.RunSession(context.Background(), ag, SessionOptions{ExtraHook: ph}); err != nil {
			t.Fatal(err)
		}
		if ph.enters != 2 {
			t.Errorf("withTrace=%v: EnterProc count = %d, want 2", withTrace, ph.enters)
		}
	}
}

func TestSequentialSessionsOnSameHost(t *testing.T) {
	// An agent migrating back to the same host gets a fresh session with
	// hop bookkeeping intact.
	h := newHost(t, "h1", nil)
	ag := newAgent(t, `
proc main() { n = 1 migrate("h1", "again") }
proc again() { n = n + 1 done() }`, "main")
	if _, err := h.RunSession(context.Background(), ag, SessionOptions{}); err != nil {
		t.Fatal(err)
	}
	rec, err := h.RunSession(context.Background(), ag, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Hop != 1 || rec.Resulting["n"].Int != 2 {
		t.Errorf("second session: hop=%d n=%s", rec.Hop, rec.Resulting["n"])
	}
	if len(ag.Route) != 2 {
		t.Errorf("route = %v", ag.Route)
	}
}

// TestNewRecordsTrustInTheRegistry: a trusted host is marked trusted in
// the registry, an untrusted one is not, and a host configured
// untrusted under a name the registry trusts is refused.
func TestNewRecordsTrustInTheRegistry(t *testing.T) {
	reg := sigcrypto.NewRegistry()
	for _, tc := range []struct {
		name    string
		trusted bool
	}{{"home", true}, {"shop", false}} {
		keys, err := sigcrypto.GenerateKeyPair(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := New(Config{Name: tc.name, Keys: keys, Registry: reg, Trusted: tc.trusted}); err != nil {
			t.Fatal(err)
		}
		if reg.Trusted(tc.name) != tc.trusted {
			t.Errorf("registry trusts %s = %v, want %v", tc.name, reg.Trusted(tc.name), tc.trusted)
		}
	}
	keys, err := sigcrypto.GenerateKeyPair("back")
	if err != nil {
		t.Fatal(err)
	}
	reg.Trust("back")
	if _, err := New(Config{Name: "back", Keys: keys, Registry: reg}); err == nil || !strings.Contains(err.Error(), "configured untrusted") {
		t.Errorf("untrusted host under a trusted name: err = %v", err)
	}
}
