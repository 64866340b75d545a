package core_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/sigcrypto"
	"repro/internal/transport"
)

// TestForwardToFullHostRecordsRefuser pins the bugfix this PR ships: a
// mailbox-full refusal at an intermediate hop must be attributable. The
// sender's journal entry for the failed forward records WHICH host was
// full (RefusedBy), and the receipt error classifies as intake-full —
// so "that host is overloaded" is distinguishable from "that host
// tampered" without parsing error strings.
func TestForwardToFullHostRecordsRefuser(t *testing.T) {
	reg := sigcrypto.NewRegistry()
	net := transport.NewInProc()
	stall := &stallBehavior{release: make(chan struct{}), running: make(chan struct{}, 1)}
	defer close(stall.release)

	mk := func(name string, b host.Behavior, refuseWhenFull bool) *core.Node {
		keys, err := sigcrypto.GenerateKeyPair(name)
		if err != nil {
			t.Fatal(err)
		}
		h, err := host.New(host.Config{Name: name, Keys: keys, Registry: reg, Behavior: b})
		if err != nil {
			t.Fatal(err)
		}
		node, err := core.NewNode(core.NodeConfig{
			Host:           h,
			Net:            net,
			RefuseWhenFull: refuseWhenFull,
			Workers:        1,
			QueueDepth:     1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = node.Close() })
		net.Register(name, node)
		return node
	}
	sender := mk("a", nil, false)
	full := mk("b", stall, true)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Saturate b: one agent pinned in-session, one parked in its
	// depth-1 queue.
	if _, err := full.Launch(ctx, travelledAgent(t, "pin", "")); err != nil {
		t.Fatalf("pin launch: %v", err)
	}
	select {
	case <-stall.running:
	case <-time.After(5 * time.Second):
		t.Fatal("pin session never started")
	}
	if _, err := full.Launch(ctx, travelledAgent(t, "park", "")); err != nil {
		t.Fatalf("park launch: %v", err)
	}

	// Now forward into the wall: an agent launched at a that migrates
	// to b bounces off the full queue, and a's journal says so.
	ag, err := agent.New("bounce", "owner",
		"proc main() { migrate(\"b\", \"fin\") }\nproc fin() { done() }", "main")
	if err != nil {
		t.Fatal(err)
	}
	rc, err := sender.Launch(ctx, ag)
	if err != nil {
		t.Fatalf("launch at sender: %v", err)
	}
	if _, err := rc.Wait(ctx); err == nil {
		t.Fatal("forward into full host unexpectedly succeeded")
	} else if !errors.Is(err, core.ErrIntakeFull) {
		t.Fatalf("receipt err = %v, want intake-full classification", err)
	}
	st := sender.Status("bounce")
	if st.Phase != core.PhaseFailed {
		t.Fatalf("sender journal phase = %q, want failed", st.Phase)
	}
	if st.RefusedBy != "b" {
		t.Fatalf("sender journal RefusedBy = %q, want the full host b", st.RefusedBy)
	}
}
