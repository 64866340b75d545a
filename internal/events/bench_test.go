package events

import "testing"

// BenchmarkPublish publishes a verdict-shaped event to a bus with two
// subscribers, both drained every 64 events as a consumer that keeps
// up would be; ns/op and allocs/op include the journal write, both
// pushes and the drains' share.
func BenchmarkPublish(b *testing.B) {
	bus := NewBus(BusConfig{Node: "n1"})
	defer bus.Close()
	subs := []*Subscription{bus.Subscribe("metrics", metricsRingSize), bus.Subscribe("flight", DefaultFlightCapacity)}
	fields := map[string]string{"mechanism": "refproto", "ok": "true"}
	b.ReportAllocs()
	n := 0
	for b.Loop() {
		bus.Publish(Event{Kind: KindVerdict, Agent: "agent-1", Host: "w01", Fields: fields})
		if n++; n%64 == 0 {
			for _, s := range subs {
				s.Drain()
			}
		}
	}
}

// BenchmarkOpenPipeline opens and closes a memory-only pipeline: the
// bus, its journal and the metrics registry with its subscription and
// goroutine. B/op is what a node's event plane costs before its first
// event.
func BenchmarkOpenPipeline(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		p, err := Open(PipelineConfig{Node: "n1"})
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
