package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/events"
)

// TestLogEventsPrintsFailure: a journey that fails at this host (its
// forward refused or unreachable) gets a log line with the reason and,
// when the event names it, the hop that refused.
func TestLogEventsPrintsFailure(t *testing.T) {
	bus := events.NewBus(events.BusConfig{Node: "shop"})
	sub := bus.Subscribe("agenthost-log", logCapacity)
	bus.Publish(events.Event{Kind: events.KindFailed, Agent: "a1", Host: "back",
		Fields: map[string]string{"reason": "forward to back failed", "refused-by": "back"}})
	bus.Publish(events.Event{Kind: events.KindFailed, Agent: "a2",
		Fields: map[string]string{"reason": "node closed"}})
	bus.Close()

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	logEvents("shop", nil, sub)
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"agenthost shop: agent a1 failed: forward to back failed (refused-by back)\n",
		"agenthost shop: agent a2 failed: node closed\n",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("log lacks %q; got:\n%s", want, out)
		}
	}
}
