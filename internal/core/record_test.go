package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/host"
	"repro/internal/shardstore"
	"repro/internal/sigcrypto"
	"repro/internal/transport"
	"repro/internal/value"
)

// stampMechanism passes every session it checks and stamps a baggage
// payload on every departure, so a terminal agent carries verdicts and
// more than one baggage entry. It keeps a copy of the last agent it
// saw leave, which is what a forward that then fails resolves with,
// and of every agent whose stay ended at its node (completed or
// quarantined), which is what that outcome resolves with.
type stampMechanism struct {
	BaseMechanism
	mu       sync.Mutex
	departed *agent.Agent
	ended    map[string]*agent.Agent
}

func (*stampMechanism) Name() string { return "stamp" }

func (*stampMechanism) CheckAfterSession(_ context.Context, hc *HostContext, ag *agent.Agent) (*Verdict, error) {
	if ag.Hop == 0 {
		return nil, nil
	}
	prev := ag.Route[len(ag.Route)-1]
	return &Verdict{
		Mechanism: "stamp", Moment: AfterSession,
		CheckedHost: prev, CheckedHop: ag.Hop - 1,
		Checker: hc.Host.Name(), OK: true, Reason: "stamped",
	}, nil
}

func (m *stampMechanism) PrepareDeparture(_ context.Context, _ *HostContext, ag *agent.Agent, _ *host.SessionRecord) error {
	ag.SetBaggage("stamp", []byte(fmt.Sprintf("left at hop %d", ag.Hop)))
	m.mu.Lock()
	m.departed = ag.Clone()
	m.mu.Unlock()
	return nil
}

func (m *stampMechanism) EndStay(_ *HostContext, ag *agent.Agent) {
	m.mu.Lock()
	if m.ended == nil {
		m.ended = map[string]*agent.Agent{}
	}
	m.ended[ag.ID] = ag.Clone()
	m.mu.Unlock()
}

// recordBed is two nodes, r1 and r2, on one in-process network; r2 can
// be made to quarantine every agent it checks.
type recordBed struct {
	stamp *stampMechanism
	nodes map[string]*Node
}

func newRecordBed(t *testing.T, r2Quarantines bool) *recordBed {
	t.Helper()
	b := &recordBed{stamp: &stampMechanism{}, nodes: map[string]*Node{}}
	reg, net := sigcrypto.NewRegistry(), transport.NewInProc()
	for _, name := range []string{"r1", "r2"} {
		keys, err := sigcrypto.GenerateKeyPair(name)
		if err != nil {
			t.Fatal(err)
		}
		h, err := host.New(host.Config{Name: name, Keys: keys, Registry: reg, Trusted: name == "r1"})
		if err != nil {
			t.Fatal(err)
		}
		mechs := []Mechanism{b.stamp}
		if name == "r2" && r2Quarantines {
			mechs = append(mechs, failingMechanism{})
		}
		node, err := NewNode(NodeConfig{Host: h, Net: net, Mechanisms: mechs})
		if err != nil {
			t.Fatal(err)
		}
		net.Register(name, node)
		b.nodes[name] = node
		t.Cleanup(func() { _ = node.Close() })
	}
	return b
}

// launch starts an agent on r1 and waits for its receipt at end.
func (b *recordBed) launch(t *testing.T, id, code, end string) *Receipt {
	t.Helper()
	ag, err := agent.New(id, "owner", code, "main")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rc := b.nodes[end].Watch(id)
	if _, err := b.nodes["r1"].Launch(ctx, ag); err != nil {
		t.Fatal(err)
	}
	select {
	case <-rc.Done():
	case <-ctx.Done():
		t.Fatalf("%s: no terminal outcome at %s", id, end)
	}
	return rc
}

// sameAgent reports how got differs from want in anything a terminal
// result promises: identity, state, execution state, route, baggage.
func sameAgent(got, want *agent.Agent) error {
	switch {
	case got == nil:
		return errors.New("no agent")
	case got.ID != want.ID || got.Owner != want.Owner || got.Code != want.Code || got.CodeDigest != want.CodeDigest:
		return fmt.Errorf("identity %s/%s, want %s/%s", got.ID, got.Owner, want.ID, want.Owner)
	case got.StateDigest() != want.StateDigest():
		return fmt.Errorf("state %v, want %v", got.State, want.State)
	case got.Entry != want.Entry || got.Hop != want.Hop:
		return fmt.Errorf("entry %q hop %d, want %q hop %d", got.Entry, got.Hop, want.Entry, want.Hop)
	case !reflect.DeepEqual(got.Route, want.Route):
		return fmt.Errorf("route %v, want %v", got.Route, want.Route)
	case !reflect.DeepEqual(got.BaggageKeys(), want.BaggageKeys()):
		return fmt.Errorf("baggage keys %v, want %v", got.BaggageKeys(), want.BaggageKeys())
	}
	for _, k := range want.BaggageKeys() {
		if !bytes.Equal(got.Baggage[k], want.Baggage[k]) {
			return fmt.Errorf("baggage %q differs", k)
		}
	}
	return nil
}

// checkResult compares one Result call with the agent the outcome was
// produced from.
func checkResult(rc *Receipt, want *agent.Agent) error {
	res, ok := rc.Result()
	if !ok {
		return errors.New("receipt unresolved")
	}
	if err := sameAgent(res.Agent, want); err != nil {
		return err
	}
	if wantVs := AgentVerdicts(want); len(wantVs) == 0 || !reflect.DeepEqual(res.Verdicts, wantVs) {
		return fmt.Errorf("verdicts %v, want %v", res.Verdicts, wantVs)
	}
	return nil
}

// vandalize changes every part of an agent a result hands out.
func vandalize(ag *agent.Agent) {
	ag.SetVar("tag", value.Str("vandalized"))
	ag.Route[0] = "elsewhere"
	ag.Route = append(ag.Route, "extra")
	for _, p := range ag.Baggage {
		p[0] ^= 0xff
	}
	ag.Baggage["extra"] = []byte("x")
	ag.Entry = "vandalized"
	ag.Hop += 7
}

// TestTerminalResultIsFaithfulPrivateCopy: for a completed, a
// quarantined and a forward-failed outcome, Result returns the agent
// the outcome was produced from — what its stay ended as, or what left
// for the refusing hop — and every call is a private copy: changing
// one leaves the next call, and concurrent callers, untouched.
func TestTerminalResultIsFaithfulPrivateCopy(t *testing.T) {
	const visit = `
proc main() {
    items = [1, "two", true]
    tag = "start"
    migrate("r2", "step")
}
`
	cases := []struct {
		name, code, end string
		quarantine      bool
		want            func(b *recordBed, id string) *agent.Agent
		check           func(t *testing.T, res Result)
	}{
		{
			name: "completed",
			code: visit + `proc step() { tag = "step"
    migrate("r1", "fin") }
proc fin() { done() }`,
			end:  "r1",
			want: func(b *recordBed, id string) *agent.Agent { return b.stamp.ended[id] },
			check: func(t *testing.T, res Result) {
				if res.Err != nil || res.Aborted || res.Agent.Entry != "" {
					t.Fatalf("completed result = %+v (entry %q), want a clean finish with an empty entry", res, res.Agent.Entry)
				}
			},
		},
		{
			name:       "quarantined",
			code:       visit + `proc step() { done() }`,
			end:        "r2",
			quarantine: true,
			want:       func(b *recordBed, id string) *agent.Agent { return b.stamp.ended[id] },
			check: func(t *testing.T, res Result) {
				if !res.Aborted || !errors.Is(res.Err, ErrDetection) {
					t.Fatalf("quarantined result = %+v, want an aborted detection", res)
				}
			},
		},
		{
			name: "forward-failed",
			code: visit + `proc step() { tag = "step"
    migrate("nowhere", "fin") }
proc fin() { done() }`,
			end:  "r2",
			want: func(b *recordBed, _ string) *agent.Agent { return b.stamp.departed },
			check: func(t *testing.T, res Result) {
				var fe *ForwardError
				if !errors.As(res.Err, &fe) || fe.To != "nowhere" || res.Aborted {
					t.Fatalf("forward-failed result = %+v, want a ForwardError to nowhere", res)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := newRecordBed(t, tc.quarantine)
			id := "rec-" + tc.name
			rc := b.launch(t, id, tc.code, tc.end)
			b.stamp.mu.Lock()
			want := tc.want(b, id)
			b.stamp.mu.Unlock()
			if want == nil {
				t.Fatal("the outcome's agent was never captured")
			}
			res, _ := rc.Result()
			tc.check(t, res)
			if err := checkResult(rc, want); err != nil {
				t.Fatalf("result: %v", err)
			}

			vandalize(res.Agent)
			res.Verdicts[0].Reason = "vandalized"
			if err := checkResult(rc, want); err != nil {
				t.Fatalf("result after changing an earlier copy: %v", err)
			}

			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := checkResult(rc, want); err != nil {
						t.Errorf("concurrent result: %v", err)
					}
					if res, _ := rc.Result(); res.Agent != nil {
						vandalize(res.Agent)
					}
				}()
			}
			wg.Wait()
			if err := checkResult(rc, want); err != nil {
				t.Fatalf("result after concurrent callers: %v", err)
			}
		})
	}
}

// TestQuarantineReplaysMarshalledWAL: a quarantine WAL whose records
// are agent.Marshal output — what every earlier release wrote, through
// a store of decoded agents — replays, and the agent reads back
// byte-identical.
func TestQuarantineReplaysMarshalledWAL(t *testing.T) {
	dir := t.TempDir()
	ag, err := agent.New("old-wal", "owner", `proc main() { migrate("checker", "fin") }
proc fin() { done() }`, "main")
	if err != nil {
		t.Fatal(err)
	}
	ag.SetVar("items", value.List(value.Int(1), value.Str("two")))
	ag.Route = []string{"home"}
	ag.Hop = 1
	ag.SetBaggage("stamp", []byte("left at hop 1"))
	want := marshalOrFatal(t, ag)

	w, err := shardstore.OpenWAL(filepath.Join(dir, quarantineDirName), shardstore.WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	old, err := shardstore.NewPersistent(shardstore.Config[*agent.Agent]{}, shardstore.PersistConfig[*agent.Agent]{
		Backend: w,
		Codec: shardstore.Codec[*agent.Agent]{
			Encode: func(a *agent.Agent) ([]byte, error) { return a.Marshal() },
			Decode: agent.Unmarshal,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	old.Put(ag.ID, ag)
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	b := newDurableBed(t, func(cfg *NodeConfig) { cfg.DataDir = dir })
	got, err := b.checker.Quarantined(ag.ID)
	if err != nil {
		t.Fatalf("agent from a marshalled WAL: %v", err)
	}
	if !bytes.Equal(marshalOrFatal(t, got), want) {
		t.Fatal("agent replayed from a marshalled WAL is not byte-identical")
	}
}

// TestQuarantinedIsTheOriginal: the held agent, what the receipt
// returns, the evicted agent's spill file and LoadEvidence all carry
// the agent exactly as it was quarantined.
func TestQuarantinedIsTheOriginal(t *testing.T) {
	stamp := &stampMechanism{}
	ShrinkRetention(t, 0, 1, 0)
	b := newDurableBed(t, func(cfg *NodeConfig) { cfg.Mechanisms = append(cfg.Mechanisms, stamp) })
	first := "orig-1"
	res := b.runToCheck(first)
	stamp.mu.Lock()
	want := marshalOrFatal(t, stamp.ended[first])
	stamp.mu.Unlock()
	if !bytes.Equal(marshalOrFatal(t, res.Agent), want) {
		t.Fatal("receipt's agent differs from the quarantined original")
	}
	held, err := b.checker.Quarantined(first)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalOrFatal(t, held), want) {
		t.Fatal("Quarantined differs from the quarantined original")
	}
	record, ok := b.checker.quarantine.Get(first)
	if !ok || !bytes.Equal(record, want) {
		t.Fatal("the quarantine store does not hold the original's encoding")
	}

	// A shard mate overflows the quarantine bound and evicts first.
	b.runToCheck(shardMateID(first))
	_, err = b.checker.Quarantined(first)
	var evErr *QuarantineEvictedError
	if !errors.As(err, &evErr) || evErr.Evidence == "" {
		t.Fatalf("evicted agent error = %v, want an evidence path", err)
	}
	spilled, err := os.ReadFile(evErr.Evidence)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(spilled, record) {
		t.Fatal("spill file is not the held record byte for byte")
	}
	loaded, err := LoadEvidence(evErr.Evidence)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalOrFatal(t, loaded), record) {
		t.Fatal("LoadEvidence does not round-trip the spilled record")
	}
}

// TestJournalReplayAfterReopen: a reopened node's journal answers for a
// completed and a quarantined agent as it did before the restart —
// same statuses, receipts resolved to the same outcomes — except that
// a replayed receipt carries no agent.
func TestJournalReplayAfterReopen(t *testing.T) {
	b := newDurableBed(t, nil)
	ag, err := agent.New("done-here", "owner", `proc main() { done() }`, "main")
	if err != nil {
		t.Fatal(err)
	}
	rc := b.checker.Watch(ag.ID)
	if _, err := b.checker.Launch(b.ctx, ag); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Wait(b.ctx); err != nil {
		t.Fatalf("completing at the checker: %v", err)
	}
	b.runToCheck("caught-here")

	before := map[string]AgentStatus{}
	for _, id := range []string{"done-here", "caught-here"} {
		before[id] = b.checker.Status(id)
		if res, _ := b.checker.Watch(id).Result(); res.Agent == nil {
			t.Fatalf("%s: live receipt carries no agent", id)
		}
	}
	b.crashChecker()
	b.reopenChecker()

	for id, st := range before {
		if got := b.checker.Status(id); got != st {
			t.Errorf("%s: status after reopen = %+v, want %+v", id, got, st)
		}
	}
	res, ok := b.checker.Watch("done-here").Result()
	if !ok || res.Err != nil || res.Aborted || res.Agent != nil || res.Verdicts != nil {
		t.Errorf("replayed completion = %+v (ok=%v), want a clean outcome without an agent", res, ok)
	}
	res, ok = b.checker.Watch("caught-here").Result()
	if !ok || !res.Aborted || !errors.Is(res.Err, ErrDetection) || res.Agent != nil {
		t.Errorf("replayed quarantine = %+v (ok=%v), want an aborted detection without an agent", res, ok)
	}
}
