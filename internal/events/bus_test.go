package events

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestPublishNeverBlocksOnSlowSubscriber pins the bus contract the hot
// paths rely on: a subscriber that never drains cannot block Publish.
// Run under -race in CI; the assertions also pin the drop accounting
// exactly (received - dropped = ring capacity once the ring is full).
func TestPublishNeverBlocksOnSlowSubscriber(t *testing.T) {
	bus := NewBus(BusConfig{Node: "n1"})
	defer bus.Close()

	const ringCap = 8
	sub := bus.Subscribe("stuck", ringCap) // never drained until the end

	const publishers = 4
	const perPublisher = 500
	const total = publishers * perPublisher

	done := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				if seq := bus.Publish(Event{Kind: KindIntake, Agent: fmt.Sprintf("a-%d-%d", p, i)}); seq == 0 {
					t.Error("publish on open bus returned 0")
					return
				}
			}
		}(p)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("publishers blocked on an undrained subscriber")
	}

	received, dropped := sub.Stats()
	if received != total {
		t.Fatalf("received = %d, want %d", received, total)
	}
	if dropped != total-ringCap {
		t.Fatalf("dropped = %d, want %d (total %d - ring %d)", dropped, total-ringCap, total, ringCap)
	}
	evs := sub.Drain()
	if len(evs) != ringCap {
		t.Fatalf("drain returned %d events, want the newest %d", len(evs), ringCap)
	}
	// The survivors are the newest events in publish order.
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("ring survivors not contiguous: seq %d follows %d", evs[i].Seq, evs[i-1].Seq)
		}
	}
	if evs[len(evs)-1].Seq != total {
		t.Fatalf("newest survivor seq = %d, want %d", evs[len(evs)-1].Seq, total)
	}
	if stats := bus.Stats(); stats.Published != total {
		t.Fatalf("bus published = %d, want %d", stats.Published, total)
	}
}

// TestSubscriberSeesPublishOrder pins that a drained subscriber
// observes the bus's total order: sequence numbers are dense and
// monotone even with concurrent publishers.
func TestSubscriberSeesPublishOrder(t *testing.T) {
	bus := NewBus(BusConfig{Node: "n1"})
	defer bus.Close()
	sub := bus.Subscribe("reader", 4096)

	const total = 2000
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < total/4; i++ {
				bus.Publish(Event{Kind: KindIntake})
			}
		}()
	}
	wg.Wait()

	evs := sub.Drain()
	if len(evs) != total {
		t.Fatalf("drained %d events, want %d", len(evs), total)
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
	}
}

// TestCursorResumeAcrossJournalWrap drives a watcher cursor through a
// journal ring (DefaultJournalSize) smaller than the event stream: batches chain via the
// resume cursor, and a cursor that fell off the ring reports exactly
// how many events were missed instead of hiding the gap.
func TestCursorResumeAcrossJournalWrap(t *testing.T) {
	const ringSize = DefaultJournalSize
	bus := NewBus(BusConfig{Node: "n1"})
	defer bus.Close()

	// Fill well past the ring: events 1..3072, ring retains 2049..3072.
	const total = 3 * ringSize
	for i := 0; i < total; i++ {
		bus.Publish(Event{Kind: KindIntake, Agent: fmt.Sprintf("a%d", i)})
	}

	// A cursor from the beginning: the wrapped-off prefix is reported.
	evs, next, missed := bus.ReadSince(1, 4)
	if missed != total-ringSize {
		t.Fatalf("missed = %d, want %d", missed, total-ringSize)
	}
	if len(evs) != 4 || evs[0].Seq != total-ringSize+1 {
		t.Fatalf("first batch starts at seq %d (len %d), want %d", evs[0].Seq, len(evs), total-ringSize+1)
	}

	// Chain the remaining batches: no further misses, dense coverage.
	got := len(evs)
	last := evs[len(evs)-1].Seq
	for {
		evs, next2, missed := bus.ReadSince(next, 4)
		if missed != 0 {
			t.Fatalf("resume from %d missed %d events", next, missed)
		}
		if len(evs) == 0 {
			break
		}
		for _, ev := range evs {
			if ev.Seq != last+1 {
				t.Fatalf("gap in resumed stream: seq %d after %d", ev.Seq, last)
			}
			last = ev.Seq
		}
		got += len(evs)
		next = next2
	}
	if got != ringSize || last != total {
		t.Fatalf("resumed %d events ending at %d, want %d ending at %d", got, last, ringSize, total)
	}

	// The tail cursor sees only what is published after it.
	tail := bus.NextSeq()
	bus.Publish(Event{Kind: KindQuarantine, Agent: "late"})
	evs, _, missed = bus.ReadSince(tail, 0)
	if missed != 0 || len(evs) != 1 || evs[0].Kind != KindQuarantine {
		t.Fatalf("tail cursor read = %d events (missed %d), want exactly the late quarantine", len(evs), missed)
	}
}

// TestPublishAfterCloseReturnsZero pins the closed-bus behaviour
// producers rely on (no panic, seq 0).
func TestPublishAfterCloseReturnsZero(t *testing.T) {
	bus := NewBus(BusConfig{Node: "n1"})
	sub := bus.Subscribe("s", 4)
	bus.Close()
	if seq := bus.Publish(Event{Kind: KindIntake}); seq != 0 {
		t.Fatalf("publish after close returned %d, want 0", seq)
	}
	if !sub.Closed() {
		t.Fatal("subscription not marked closed by bus close")
	}
}
