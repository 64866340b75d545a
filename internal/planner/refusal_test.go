package planner

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/host"
	"repro/internal/policy"
	"repro/internal/protection"
	"repro/internal/transport"
)

// holdBehavior pins a host's worker in its first session until
// released.
type holdBehavior struct {
	attack.Honest
	release chan struct{}
	running chan struct{}
}

func (b *holdBehavior) TamperRecord(*host.SessionRecord) {
	select {
	case b.running <- struct{}{}:
	default:
	}
	<-b.release
}

// refusals produces, on an in-process or a loopback TCP fleet, the
// three failures a sender acts on: a forward that an admission policy
// refused, a forward that a full intake fast-failed, and a call to an
// unknown method.
func refusals(t *testing.T, tcp bool) map[string]error {
	t.Helper()
	open := fleet.New
	if tcp {
		open = fleet.NewTCP
	}
	f, err := open("owner")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	add := func(spec fleet.Spec) *fleet.Member {
		m, err := f.Add(spec)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	sender := add(fleet.Spec{Host: host.Config{Name: "sender"}})
	shunning := add(fleet.Spec{
		Host:       host.Config{Name: "shunning"},
		Level:      protection.LevelAdaptive,
		Protection: protection.Options{AdmissionThreshold: policy.DefaultAdmissionThreshold},
	})
	shunning.Stack.Ledger.Observe("sender", false, 2*policy.DefaultAdmissionThreshold)
	hold := &holdBehavior{release: make(chan struct{}), running: make(chan struct{}, 1)}
	full := add(fleet.Spec{
		Host: host.Config{Name: "full", Behavior: hold},
		Node: core.NodeConfig{RefuseWhenFull: true, Workers: 1, QueueDepth: 1},
	})
	t.Cleanup(func() { close(hold.release) })

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	mk := func(id, code string) *agent.Agent {
		ag, err := agent.New(id, "owner", code, "main")
		if err != nil {
			t.Fatal(err)
		}
		return ag
	}
	// Hold full's one worker, and fill its depth-1 queue behind it.
	if _, err := full.Node.Launch(ctx, mk("pin", "proc main() { done() }")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-hold.running:
	case <-ctx.Done():
		t.Fatal("the held session never started")
	}
	if _, err := full.Node.Launch(ctx, mk("park", "proc main() { done() }")); err != nil {
		t.Fatal(err)
	}
	forward := func(id, to string) error {
		rc, err := sender.Node.Launch(ctx, mk(id, `proc main() { migrate("`+to+`", "fin") }`+"\nproc fin() { done() }"))
		if err != nil {
			t.Fatal(err)
		}
		_, err = rc.Wait(ctx)
		return err
	}
	_, unknown := f.Net().Call(ctx, "sender", "ghost/ping", nil)
	return map[string]error{
		"admission refused": forward("to-shunning", "shunning"),
		"intake full":       forward("to-full", "full"),
		"unknown method":    unknown,
	}
}

// TestRefusalsKeepIdentityOverTCP pins one error semantics on both
// fabrics: each refusal satisfies errors.Is against its sentinel over
// TCP exactly as in process, and the executor's classify reads the
// same divergence from it — ban the shunned sender, spill off the full
// receiver, give up on an unknown method.
func TestRefusalsKeepIdentityOverTCP(t *testing.T) {
	type reading struct {
		divergence int
		terminal   bool
	}
	want := map[string]struct {
		sentinel error
		reading
	}{
		"admission refused": {core.ErrAdmissionRefused, reading{divergeBan, false}},
		"intake full":       {core.ErrIntakeFull, reading{divergeSpillover, false}},
		"unknown method":    {transport.ErrUnknownMethod, reading{divergeNone, true}},
	}
	for _, tcp := range []bool{false, true} {
		for name, err := range refusals(t, tcp) {
			w := want[name]
			if !errors.Is(err, w.sentinel) {
				t.Errorf("tcp=%v: %s: %v is not %v", tcp, name, err, w.sentinel)
			}
			var re *transport.RemoteError
			if crossed := errors.As(err, &re); crossed != tcp {
				t.Errorf("tcp=%v: %s: %v crossed a TCP hop: %v", tcp, name, err, crossed)
			}
			e := &Executor{Planner: New(Config{Home: "home"})}
			var got reading
			got.divergence, got.terminal = e.classify("home", "agent", attemptOutcome{}, err, &RunResult{})
			if got != w.reading {
				t.Errorf("tcp=%v: %s: classify = %+v, want %+v", tcp, name, got, w.reading)
			}
		}
	}
}
