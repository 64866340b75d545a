package core_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/host"
	"repro/internal/sigcrypto"
	"repro/internal/transport"
)

// TestNodeHealthBuiltin pins the node/health surface: a memory-only
// node reports healthy, recorded persistence failures flip it to
// degraded with sticky first-error detail, and the reply round-trips
// through the built-in call path agentctl status uses.
func TestNodeHealthBuiltin(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	reg := sigcrypto.NewRegistry()
	net := transport.NewInProc()
	keys, err := sigcrypto.GenerateKeyPair("n")
	if err != nil {
		t.Fatal(err)
	}
	h, err := host.New(host.Config{Name: "n", Keys: keys, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	node, err := core.NewNode(core.NodeConfig{Host: h, Net: net})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })
	net.Register("n", node)

	body, err := net.Call(ctx, "n", core.NodeCallNamespace+"/health", core.HealthCallBody())
	if err != nil {
		t.Fatalf("health call: %v", err)
	}
	rep, err := core.DecodeHealthReply(body)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Host != "n" || rep.Durable || rep.Degraded || rep.PersistFailures != 0 {
		t.Fatalf("fresh memory-only node health = %+v", rep)
	}

	// Two failures: the first error's message is sticky, the counter
	// and last-seen timestamp track the most recent.
	node.NotePersistError(errors.New("wal append: disk full"))
	node.NotePersistError(errors.New("wal append: still full"))
	node.NotePersistError(nil) // nil is ignored, not counted

	body, err = net.Call(ctx, "n", core.NodeCallNamespace+"/health", core.HealthCallBody())
	if err != nil {
		t.Fatalf("health call after failures: %v", err)
	}
	rep, err = core.DecodeHealthReply(body)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || rep.PersistFailures != 2 {
		t.Fatalf("degraded health = %+v", rep)
	}
	if rep.FirstPersistError != "wal append: disk full" {
		t.Fatalf("first error not sticky: %q", rep.FirstPersistError)
	}
	if rep.FirstPersistUnixNano == 0 || rep.LastPersistUnixNano < rep.FirstPersistUnixNano {
		t.Fatalf("failure timestamps inconsistent: first=%d last=%d",
			rep.FirstPersistUnixNano, rep.LastPersistUnixNano)
	}
}

// TestNodeHealthDurableNode pins that a node opened with a DataDir
// reports Durable and healthy until a persistence failure is recorded
// — the posture agentctl status watches for.
func TestNodeHealthDurableNode(t *testing.T) {
	reg := sigcrypto.NewRegistry()
	net := transport.NewInProc()
	keys, err := sigcrypto.GenerateKeyPair("d")
	if err != nil {
		t.Fatal(err)
	}
	h, err := host.New(host.Config{Name: "d", Keys: keys, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	node, err := core.NewNode(core.NodeConfig{Host: h, Net: net, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })
	net.Register("d", node)

	if rep := node.Health(); !rep.Durable || rep.Degraded {
		t.Fatalf("durable node started degraded: %+v", rep)
	}
	// Simulate what the stores do on a write failure: they call
	// NotePersistError, which records the failure and publishes it.
	// (Driving a real WAL failure needs filesystem fault injection;
	// the sink wiring is covered here, the once-only semantics by the
	// shardstore tests.)
	node.NotePersistError(errors.New("journal wal: write failed"))
	if rep := node.Health(); !rep.Degraded || rep.PersistFailures != 1 {
		t.Fatalf("health after store error = %+v", rep)
	}
}

// TestNotePersistErrorPublishes: a failure reported from outside the
// node's own stores (the protection stack's ledger or vigna WAL) reaches
// the event bus once, as the node's own store failures do.
func TestNotePersistErrorPublishes(t *testing.T) {
	reg := sigcrypto.NewRegistry()
	net := transport.NewInProc()
	keys, err := sigcrypto.GenerateKeyPair("p")
	if err != nil {
		t.Fatal(err)
	}
	h, err := host.New(host.Config{Name: "p", Keys: keys, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := events.Open(events.PipelineConfig{Node: "p"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pipe.Close() })
	node, err := core.NewNode(core.NodeConfig{Host: h, Net: net, Events: pipe})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })

	node.NotePersistError(errors.New("vigna wal: write failed"))
	evs, _, _ := pipe.Bus.ReadSince(0, 0)
	var got []events.Event
	for _, ev := range evs {
		if ev.Kind == events.KindPersistError {
			got = append(got, ev)
		}
	}
	if len(got) != 1 || got[0].Field("error") != "vigna wal: write failed" {
		t.Fatalf("persist-error events = %+v, want one carrying the error", got)
	}
}
