package events

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
	"weak"
)

// TestRingMatchesQueueModel drives a subscription through interleaved
// publishes, drains and Stats calls and holds it, at every step, to a
// drop-oldest slice queue of the same capacity: the same events in the
// same order, the same received and dropped counts. The capacities put
// bursts across every doubling of the ring and against its bound.
func TestRingMatchesQueueModel(t *testing.T) {
	for _, capacity := range []int{1, 3, 15, 16, 17, 33, 100, 257} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			bus := NewBus(BusConfig{Node: "n1"})
			defer bus.Close()
			sub := bus.Subscribe("model", capacity)
			rng := rand.New(rand.NewSource(int64(capacity)))
			var queue []uint64
			var received, dropped uint64
			for step := 0; step < 400; step++ {
				switch op := rng.Intn(4); {
				case op < 2:
					for range rng.Intn(2*capacity + 2) {
						seq := bus.Publish(Event{Kind: KindIntake})
						received++
						queue = append(queue, seq)
						if len(queue) > capacity {
							queue = queue[1:]
							dropped++
						}
					}
				case op == 2:
					var got []uint64
					for _, ev := range sub.Drain() {
						got = append(got, ev.Seq)
					}
					if !slices.Equal(got, queue) {
						t.Fatalf("step %d: drained %v, model holds %v", step, got, queue)
					}
					queue = nil
				}
				if r, d := sub.Stats(); r != received || d != dropped {
					t.Fatalf("step %d: stats received %d dropped %d, model %d and %d", step, r, d, received, dropped)
				}
				if len(sub.buf) > capacity {
					t.Fatalf("step %d: ring has %d slots, capacity %d", step, len(sub.buf), capacity)
				}
			}
		})
	}
}

// TestDrainedEventNotRetained: once drained, and once the journal has
// moved past it, an event's Fields map is garbage. A ring that keeps the
// last event written to each slot would hold it until the slot is
// written again.
func TestDrainedEventNotRetained(t *testing.T) {
	bus := NewBus(BusConfig{Node: "n1"})
	defer bus.Close()
	sub := bus.Subscribe("s", 64)
	for range 5 {
		bus.Publish(Event{Kind: KindIntake})
	}
	fields := publishWithFields(bus)
	if got := len(sub.Drain()); got != 6 {
		t.Fatalf("drained %d events, want 6", got)
	}
	// Move the event out of the cursor journal, draining as we go, so
	// only the subscription's ring could still hold it.
	for range DefaultJournalSize {
		bus.Publish(Event{Kind: KindIntake})
		sub.Drain()
	}
	runtime.GC()
	if fields.Value() != nil {
		t.Fatal("a drained event's Fields map is still reachable")
	}
}

// publishWithFields publishes an event with a fresh Fields map and
// returns a weak pointer to the map, keeping no strong reference.
//
//go:noinline
func publishWithFields(bus *Bus) weak.Pointer[byte] {
	fields := map[string]string{"reason": strings.Repeat("r", 64)}
	bus.Publish(Event{Kind: KindVerdict, Fields: fields})
	return weak.Make((*byte)(reflect.ValueOf(fields).UnsafePointer()))
}

// TestReadSinceAcrossJournalGrowth: a journal that grows on use
// answers every ReadSince exactly as a journal allocated at its full
// size does, at each doubling and past the bound.
func TestReadSinceAcrossJournalGrowth(t *testing.T) {
	clock := func() time.Time { return time.Unix(1, 0) }
	for _, first := range []uint64{0, 1000} {
		grown := NewBus(BusConfig{Node: "n1", Now: clock, FirstSeq: first})
		full := NewBus(BusConfig{Node: "n1", Now: clock, FirstSeq: first})
		full.ring = make([]Event, DefaultJournalSize)
		published := 0
		for _, upTo := range []int{1, 15, 16, 17, 32, 33, 100, 511, 512, 513, 1023, 1024, 1025, 2500} {
			for ; published < upTo; published++ {
				ev := Event{Kind: KindIntake, Agent: fmt.Sprint("a", published)}
				grown.Publish(ev)
				full.Publish(ev)
			}
			next := full.NextSeq()
			for _, cursor := range []uint64{0, 1, first, first + 1, next - 1025, next - 1024, next - 17, next - 16, next - 1, next, next + 3} {
				for _, max := range []int{0, 1, 7, 2000} {
					evs, n, missed := grown.ReadSince(cursor, max)
					wevs, wn, wmissed := full.ReadSince(cursor, max)
					if n != wn || missed != wmissed || !reflect.DeepEqual(evs, wevs) {
						t.Fatalf("first %d, %d published, ReadSince(%d, %d) = %d events, next %d, missed %d; full ring: %d, %d, %d",
							first, published, cursor, max, len(evs), n, missed, len(wevs), wn, wmissed)
					}
				}
			}
			if want := min(max(firstRingLen, published), DefaultJournalSize); len(grown.ring) > 2*want {
				t.Fatalf("%d published: journal has %d slots", published, len(grown.ring))
			}
		}
		grown.Close()
		full.Close()
	}
}

// TestIdlePipelineFootprint: opening a memory-only pipeline allocates
// what its structures need, not its rings' bounds (about 450 KiB when
// every ring was allocated at its capacity).
func TestIdlePipelineFootprint(t *testing.T) {
	const limit = 32 << 10
	least := uint64(1 << 62)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := Open(PipelineConfig{Node: "n1"})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if least >= limit {
		t.Fatalf("a memory-only events.Open allocates %d bytes, want under %d", least, limit)
	}
	t.Logf("a memory-only events.Open allocates %d bytes", least)
}

// TestClippedStringsCopied: an over-long string in a published event
// is cut to a copy, so the journal and the rings never keep a large
// source string (a peer's reply text, say) alive through a window.
func TestClippedStringsCopied(t *testing.T) {
	bus := NewBus(BusConfig{Node: "n1"})
	defer bus.Close()
	big := strings.Repeat("x", 1<<20)
	bus.Publish(Event{Kind: KindFailed, Agent: big, Host: big, Fields: map[string]string{"error": big, big: "v"}})
	evs, _, _ := bus.ReadSince(0, 1)
	if len(evs) != 1 {
		t.Fatalf("read %d events, want 1", len(evs))
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(big)))
	hi := lo + uintptr(len(big))
	check := func(what, s string) {
		if len(s) != MaxEventStringLen {
			t.Errorf("%s has %d bytes, want %d", what, len(s), MaxEventStringLen)
		}
		if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); lo <= p && p < hi {
			t.Errorf("%s is a window into the published string", what)
		}
	}
	ev := evs[0]
	check("agent", ev.Agent)
	check("host", ev.Host)
	check("field value", ev.Field("error"))
	for k := range ev.Fields {
		if k != "error" {
			check("field key", k)
		}
	}
}

// TestConcurrentDrainAcrossGrowth races four publishers against a
// draining consumer, a journal reader and a Stats reader while both
// rings grow from empty: the consumer sees publish order with no
// repeats, and received − dropped is exactly what it got. CI runs it
// under -race many times.
func TestConcurrentDrainAcrossGrowth(t *testing.T) {
	bus := NewBus(BusConfig{Node: "n1"})
	sub := bus.Subscribe("consumer", 300)
	const publishers, each = 4, 1000
	var wg sync.WaitGroup
	for range publishers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range each {
				bus.Publish(Event{Kind: KindIntake})
			}
		}()
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		cursor := uint64(1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			evs, next, _ := bus.ReadSince(cursor, 64)
			for i, ev := range evs {
				if i > 0 && ev.Seq != evs[i-1].Seq+1 {
					t.Errorf("journal batch not dense: seq %d after %d", ev.Seq, evs[i-1].Seq)
				}
			}
			cursor = next
			sub.Stats()
		}
	}()
	var got uint64
	last := uint64(0)
	drain := func() {
		for _, ev := range sub.Drain() {
			if ev.Seq <= last {
				t.Fatalf("drained seq %d after %d", ev.Seq, last)
			}
			last = ev.Seq
			got++
		}
	}
	published := make(chan struct{})
	go func() { wg.Wait(); close(published) }()
	for done := false; !done; {
		select {
		case <-published:
			done = true
		case <-sub.Ready():
		}
		drain()
	}
	close(stop)
	readers.Wait()
	drain()
	received, dropped := sub.Stats()
	if received != publishers*each || received-dropped != got {
		t.Fatalf("received %d, dropped %d, consumed %d; want %d received and received − dropped consumed", received, dropped, got, publishers*each)
	}
	bus.Close()
}
