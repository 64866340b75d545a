package events

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestSnapshotReflectsPriorPublishes pins the registry's synchronous
// contract: a snapshot taken after a publish returns (happens-before)
// always reflects that event, no sleeps needed.
func TestSnapshotReflectsPriorPublishes(t *testing.T) {
	clock := time.Unix(0, 1000)
	bus := NewBus(BusConfig{Node: "n1", Now: func() time.Time { return clock }})
	reg := NewRegistry(bus)
	defer func() { bus.Close(); reg.Close() }()

	bus.Publish(Event{Kind: KindIntake, Agent: "a1"})
	clock = clock.Add(40 * time.Millisecond)
	bus.Publish(Event{Kind: KindVerdict, Agent: "a1", Host: "evil", Fields: map[string]string{"ok": "false"}})
	bus.Publish(Event{Kind: KindQuarantine, Agent: "a1", Host: "evil"})
	bus.Publish(Event{Kind: KindExchangeRound, Host: "peer", Fields: map[string]string{"ok": "true", "merged": "3"}})
	bus.Publish(Event{Kind: KindGossipMerge, Fields: map[string]string{"entries": "2"}})

	s := reg.Snapshot()
	if got := s.Counter("events_total"); got != 5 {
		t.Fatalf("events_total = %d, want 5", got)
	}
	if got := s.Counter("verdict_failed_total"); got != 1 {
		t.Fatalf("verdict_failed_total = %d, want 1", got)
	}
	if got := s.Counter(KindQuarantine + "_total"); got != 1 {
		t.Fatalf("quarantine_total = %d, want 1", got)
	}
	if got := s.Counter("exchange_entries_merged_total"); got != 3 {
		t.Fatalf("exchange_entries_merged_total = %d, want 3", got)
	}
	if got := s.Counter("gossip_entries_merged_total"); got != 2 {
		t.Fatalf("gossip_entries_merged_total = %d, want 2", got)
	}
	h, ok := s.Histograms["journey_ms"]
	if !ok || h.Count != 1 {
		t.Fatalf("journey_ms = %+v (ok=%v), want one observation", h, ok)
	}
	// 40ms lands in the le=50 bucket.
	if h.Sum != 40 {
		t.Fatalf("journey_ms sum = %v, want 40", h.Sum)
	}
	if s.Published != 5 {
		t.Fatalf("snapshot published = %d, want 5", s.Published)
	}
}

// TestJourneyMeasuresRoundTrip pins journey_ms to a home's whole round
// trip: an agent launched at t=0, forwarded at t=5, back for its last
// session at t=35 and complete at t=40 is one 40 ms journey. The return
// is a second intake of the same agent; it must not restart the clock.
func TestJourneyMeasuresRoundTrip(t *testing.T) {
	clock := time.Unix(0, 0)
	bus := NewBus(BusConfig{Node: "home", Now: func() time.Time { return clock }})
	reg := NewRegistry(bus)
	defer func() { bus.Close(); reg.Close() }()

	at := func(ms int) { clock = time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	bus.Publish(Event{Kind: KindIntake, Agent: "a1"})
	at(5)
	bus.Publish(Event{Kind: KindForward, Agent: "a1", Host: "w1"})
	at(35)
	bus.Publish(Event{Kind: KindIntake, Agent: "a1"})
	at(40)
	bus.Publish(Event{Kind: KindComplete, Agent: "a1"})

	h := reg.Snapshot().Histograms["journey_ms"]
	if h.Count != 1 || h.Sum != 40 {
		t.Fatalf("journey_ms count=%d sum=%v, want one 40 ms journey", h.Count, h.Sum)
	}
}

// TestFinishedJourneysFreeTrackingSlots pins the journey bound to
// journeys still in flight: journeyTrackMax journeys that start and
// finish behind an open one must not push it out of tracking.
func TestFinishedJourneysFreeTrackingSlots(t *testing.T) {
	clock := time.Unix(0, 0)
	bus := NewBus(BusConfig{Node: "home", Now: func() time.Time { return clock }})
	reg := NewRegistry(bus)
	defer func() { bus.Close(); reg.Close() }()

	bus.Publish(Event{Kind: KindIntake, Agent: "open"})
	for i := 0; i < journeyTrackMax; i++ {
		id := fmt.Sprintf("short-%d", i)
		bus.Publish(Event{Kind: KindIntake, Agent: id})
		bus.Publish(Event{Kind: KindComplete, Agent: id})
		if i%512 == 0 {
			reg.Snapshot() // drain: the registry's ring holds 4096 events
		}
	}
	clock = clock.Add(7 * time.Millisecond)
	bus.Publish(Event{Kind: KindQuarantine, Agent: "open"})

	h := reg.Snapshot().Histograms["journey_ms"]
	if want := int64(journeyTrackMax + 1); h.Count != want || h.Sum != 7 {
		t.Fatalf("journey_ms count=%d sum=%v, want %d journeys summing to 7 ms", h.Count, h.Sum, want)
	}
}

// TestCountersMonotoneAcrossConcurrentSnapshots hammers the registry
// with concurrent publishers while snapshotting, asserting counters
// never move backwards and converge on the exact publish total.
func TestCountersMonotoneAcrossConcurrentSnapshots(t *testing.T) {
	bus := NewBus(BusConfig{Node: "n1"})
	reg := NewRegistry(bus)
	defer func() { bus.Close(); reg.Close() }()

	const publishers = 4
	const perPublisher = 300
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				bus.Publish(Event{Kind: KindVerdict, Agent: fmt.Sprintf("a-%d-%d", p, i), Fields: map[string]string{"ok": "true"}})
			}
		}(p)
	}

	stop := make(chan struct{})
	go func() { wg.Wait(); close(stop) }()
	var last int64
	for sampling := true; sampling; {
		select {
		case <-stop:
			sampling = false
		default:
		}
		s := reg.Snapshot()
		if got := s.Counter("events_total"); got < last {
			t.Fatalf("events_total went backwards: %d after %d", got, last)
		} else {
			last = got
		}
	}

	final := reg.Snapshot()
	if got := final.Counter("events_total"); got != publishers*perPublisher {
		t.Fatalf("final events_total = %d, want %d", got, publishers*perPublisher)
	}
	if got := final.Counter(KindVerdict + "_total"); got != publishers*perPublisher {
		t.Fatalf("final verdict_total = %d, want %d", got, publishers*perPublisher)
	}
	if drops := final.Drops(); drops != 0 {
		// The drain goroutine plus synchronous snapshot drains should
		// keep a 4096-ring ahead of 1200 events; a drop here means the
		// accounting, not the scheduler, is broken.
		t.Fatalf("metrics subscriber dropped %d events", drops)
	}
}
