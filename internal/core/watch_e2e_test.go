package core_test

import (
	"context"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/fleet"
	"repro/internal/host"
	"repro/internal/protection"
	"repro/internal/value"
)

// TestWatchStreamsQuarantineOverTCP is the `agentctl watch` acceptance
// drill (REPRO_E2E_WATCH=1, see ci.yml): a TCP fleet with an event
// pipeline per node, a watcher tailing every node's journal through
// cursor polls of the node/events built-in — exactly agentctl's loop —
// while a tampering host cheats. The quarantine must arrive on the
// stream, not just in the quarantine store.
func TestWatchStreamsQuarantineOverTCP(t *testing.T) {
	if os.Getenv("REPRO_E2E_WATCH") == "" {
		t.Skip("set REPRO_E2E_WATCH=1 to run the watch streaming e2e test")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	f, err := fleet.NewTCP("owner")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })

	names := []string{"home", "mid", "back"}
	for i, name := range names {
		cfg := host.Config{
			Name:      name,
			Trusted:   i != 1,
			Resources: map[string]value.Value{"data": value.Int(int64(10 * (i + 1)))},
		}
		if name == "mid" {
			cfg.Behavior = attack.DataManipulation{Var: "acc", Val: value.Int(-1)}
		}
		if _, err := f.Add(fleet.Spec{
			Host:     cfg,
			Level:    protection.LevelFull,
			Pipeline: &events.PipelineConfig{},
		}); err != nil {
			t.Fatal(err)
		}
	}
	net := f.Net()

	// The watcher: per-node cursor polls over TCP, started before the
	// launch so the stream covers the whole journey.
	watchCtx, stopWatch := context.WithCancel(ctx)
	defer stopWatch()
	type hit struct {
		node string
		ev   events.Event
	}
	var (
		mu   sync.Mutex
		seen []hit
	)
	quarantineSeen := make(chan events.Event, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cursors := make(map[string]uint64, len(names))
		ticker := time.NewTicker(50 * time.Millisecond)
		defer ticker.Stop()
		for {
			for _, peer := range names {
				body, err := net.Call(watchCtx, peer, core.NodeCallNamespace+"/events", core.EventsCallBody(cursors[peer], 0))
				if err != nil {
					continue // node busy or watcher stopping; next tick retries
				}
				r, err := core.DecodeEventsReply(body)
				if err != nil || !r.Enabled {
					continue
				}
				if r.Missed > 0 && cursors[peer] > 0 {
					t.Errorf("watcher missed %d events on %s with an idle fleet", r.Missed, peer)
				}
				for _, ev := range r.Events {
					mu.Lock()
					seen = append(seen, hit{node: peer, ev: ev})
					mu.Unlock()
					if ev.Kind == events.KindQuarantine && ev.Agent == "watched-agent" {
						select {
						case quarantineSeen <- ev:
						default:
						}
					}
				}
				cursors[peer] = r.Next
			}
			select {
			case <-watchCtx.Done():
				return
			case <-ticker.C:
			}
		}
	}()

	ag, err := agent.New("watched-agent", "owner", `
proc main() {
    acc = resource("data")
    migrate("mid", "step")
}
proc step() {
    acc = acc + resource("data")
    migrate("back", "fin")
}
proc fin() {
    acc = acc + resource("data")
    done()
}`, "main")
	if err != nil {
		t.Fatal(err)
	}
	wire, err := ag.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SendAgent(ctx, "home", wire); err != nil {
		t.Fatal(err)
	}

	// The tampered journey must surface as a quarantine ON THE STREAM.
	var qev events.Event
	select {
	case qev = <-quarantineSeen:
	case <-ctx.Done():
		t.Fatal("quarantine event never arrived on the watch stream")
	}
	if qev.Node != "back" {
		t.Errorf("quarantine streamed from %q, want the detecting node %q", qev.Node, "back")
	}
	stopWatch()
	wg.Wait()

	// The stream also carried the journey's intake and the failed
	// verdict blaming the tamperer.
	var sawIntake, sawBlame bool
	mu.Lock()
	defer mu.Unlock()
	for _, h := range seen {
		if h.ev.Agent != "watched-agent" {
			continue
		}
		if h.ev.Kind == events.KindIntake {
			sawIntake = true
		}
		if h.ev.Kind == events.KindVerdict && h.ev.Field("ok") == "false" && h.ev.Host == "mid" {
			sawBlame = true
		}
	}
	if !sawIntake || !sawBlame {
		t.Errorf("stream incomplete: intake=%v blame=%v (%d events total)", sawIntake, sawBlame, len(seen))
	}
}
