package events

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// TestEventCodecRoundTrip pins the canonical event wire format: every
// field survives encode/decode byte-for-byte.
func TestEventCodecRoundTrip(t *testing.T) {
	ev := Event{
		Seq:      42,
		Kind:     KindVerdict,
		Node:     "checker",
		Agent:    "shopper-7",
		Host:     "evil",
		UnixNano: 1712345678900,
		Fields:   map[string]string{"ok": "false", "mechanism": "appraisal", "reason": "total != hops"},
	}
	got, err := DecodeEvent(EncodeEvent(ev))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ev) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, ev)
	}

	// Fieldless events round-trip to nil fields, not an empty map.
	bare := Event{Seq: 1, Kind: KindIntake, Node: "n", UnixNano: 7}
	got, err = DecodeEvent(EncodeEvent(bare))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, bare) {
		t.Fatalf("bare round trip mismatch: got %+v", got)
	}

	if _, err := DecodeEvent([]byte("garbage")); err == nil {
		t.Fatal("garbage decoded without error")
	}
}

// TestFlightReplayAcrossReopen is the crash drill at package level:
// events recorded through one pipeline life are served — original
// sequence numbers intact — by the next life over the same directory,
// and the reopened bus continues the sequence instead of reusing it.
func TestFlightReplayAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	clock := time.Unix(0, 1)
	cfg := PipelineConfig{Node: "n1", DataDir: dir, Now: func() time.Time { return clock }}

	pipe, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const firstLife = 10
	for i := 0; i < firstLife; i++ {
		pipe.Publish(Event{Kind: KindIntake, Agent: fmt.Sprintf("a%d", i)})
	}
	pipe.Publish(Event{Kind: KindQuarantine, Agent: "a9", Host: "evil"})
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}

	pipe, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pipe.Close() }()

	replayed := pipe.Flight.Events()
	if len(replayed) != firstLife+1 {
		t.Fatalf("replayed %d events, want %d", len(replayed), firstLife+1)
	}
	for i, ev := range replayed {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("replayed event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
	}
	if last := replayed[len(replayed)-1]; last.Kind != KindQuarantine || last.Host != "evil" {
		t.Fatalf("pre-crash quarantine lost: last replayed = %+v", last)
	}

	// New events continue the recovered sequence.
	if seq := pipe.Publish(Event{Kind: KindIntake, Agent: "fresh"}); seq != firstLife+2 {
		t.Fatalf("post-reopen seq = %d, want %d", seq, firstLife+2)
	}
}

// TestRecorderTrimsWindow pins the ring bound: only the newest
// flightCapacity events survive, deleted entries are gone from the
// store.
func TestRecorderTrimsWindow(t *testing.T) {
	saved := flightCapacity
	t.Cleanup(func() { flightCapacity = saved })
	flightCapacity = 8
	dir := t.TempDir()
	rec, err := OpenRecorder(dir, RecorderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	bus := NewBus(BusConfig{Node: "n1"})
	rec.Attach(bus)

	const total = 30
	for i := 0; i < total; i++ {
		bus.Publish(Event{Kind: KindIntake, Agent: fmt.Sprintf("a%d", i)})
	}
	bus.Close()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the surviving window is exactly the newest 8.
	rec, err = OpenRecorder(dir, RecorderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rec.Close() }()
	evs := rec.Events()
	if len(evs) != 8 {
		t.Fatalf("window holds %d events, want 8", len(evs))
	}
	if evs[0].Seq != total-8+1 || evs[len(evs)-1].Seq != total {
		t.Fatalf("window [%d,%d], want [%d,%d]", evs[0].Seq, evs[len(evs)-1].Seq, total-8+1, total)
	}
	if rec.NextSeq() != total+1 {
		t.Fatalf("NextSeq = %d, want %d", rec.NextSeq(), total+1)
	}
}
