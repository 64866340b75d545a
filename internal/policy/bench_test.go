package policy

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// BenchmarkGossipHop is one protected hop as the gossip mechanism sees
// it: an agent arrives carrying a full bag of maxGossipEntries signed
// entries from four observers and departs with gossipShareLimit of this
// node's own extracts added. "cold" empties both memos before every
// hop — every signature checked, every extract signed, what each hop
// cost before the memos; "warm" is the steady state of a node that has
// seen these entries and whose ledger is not being raised (its records
// sit at or below the merge cap; BenchmarkDepartureAboveCap covers the
// records above it).
func BenchmarkGossipHop(b *testing.B) {
	ctx := context.Background()
	observers := []string{"o0", "o1", "o2", "o3"}
	bed := newGossipBed(b, append(observers, "node")...)
	now := time.Now()
	var arriving []GossipEntry
	for _, o := range observers {
		for i := 0; i < maxGossipEntries/len(observers); i++ {
			arriving = append(arriving, signedBy(bed.hosts[o], fmt.Sprintf("suspect-%d", i), 1+float64(i), now))
		}
	}
	baggage, err := encodeEntries(arriving)
	if err != nil {
		b.Fatal(err)
	}
	node, hc := bed.mechs["node"], bed.hosts["node"]
	for i := 0; i < gossipShareLimit; i++ {
		bed.leds["node"].Observe(fmt.Sprintf("suspect-%d", i), false, 1+float64(i%7))
	}
	ag := mkGossipAgent(b)
	hop := func() {
		ag.SetBaggage(GossipMechanismName, baggage)
		if _, err := node.CheckAfterSession(ctx, hc, ag); err != nil {
			b.Fatal(err)
		}
		if err := node.PrepareDeparture(ctx, hc, ag, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			node.own.young, node.own.old = nil, nil
			node.seen.young, node.seen.old = nil, nil
			hop()
		}
	})
	b.Run("warm", func(b *testing.B) {
		hop()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hop()
		}
	})
	b.Run("relays", benchmarkRelayHop)
}

// benchmarkRelayHop is a hop on a fleet where gossip relays: the bag
// holds 32 originals, each beside its 0.9-damped relay from another
// observer, and the node's own records were raised by merging the
// originals, so its own extracts are relays too. Both memos are emptied
// before every hop, as in "cold": signs/op and verifies/op are what one
// hop needs signed and checked.
func benchmarkRelayHop(b *testing.B) {
	ctx := context.Background()
	observers := []string{"o0", "o1", "o2", "o3"}
	_, now := testClock(time.Unix(4_000_000, 0))
	nodes := newClockedBed(b, DefaultHalfLife, now, append(observers, "node")...)
	node := nodes[len(nodes)-1]
	var originals, arriving []GossipEntry
	for j := 0; j < maxGossipEntries/2; j++ {
		suspect := fmt.Sprintf("suspect-%d", j)
		s := 1 + float64(j%7)
		original := signedBy(nodes[j%len(observers)].hc, suspect, s, now())
		relay := signedBy(nodes[(j+1)%len(observers)].hc, suspect, gossipDamping*s, now())
		originals = append(originals, original)
		arriving = append(arriving, original, relay)
	}
	node.g.mergeVerified(node.hc.Host.Registry(), node.name, originals)
	baggage, err := encodeEntries(arriving)
	if err != nil {
		b.Fatal(err)
	}
	ag := mkGossipAgent(b)
	signed, verified := node.g.extractsSigned.Load(), node.g.verifyMisses.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node.g.own.young, node.g.own.old = nil, nil
		node.g.seen.young, node.g.seen.old = nil, nil
		ag.SetBaggage(GossipMechanismName, baggage)
		if _, err := node.g.CheckAfterSession(ctx, node.hc, ag); err != nil {
			b.Fatal(err)
		}
		if err := node.g.PrepareDeparture(ctx, node.hc, ag, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(node.g.extractsSigned.Load()-signed)/float64(b.N), "signs/op")
	b.ReportMetric(float64(node.g.verifyMisses.Load()-verified)/float64(b.N), "verifies/op")
}

// BenchmarkDepartureAboveCap is the departure stage of a node whose
// ledger holds k records above the merge cap — every first-hand
// observer of a cheater under sustained attack is in this state. Each
// departing agent carries a full bag of maxGossipEntries entries from
// four observers, which the node verifies once, and the node's clock
// moves 10 ms per departure (100 departures a second, one grid cell
// every 469). signs/op is own extracts signed per departure, about
// k·10 ms/cell; re-stamping at every departure signed k. verifies/op is
// signature checks per departure.
func BenchmarkDepartureAboveCap(b *testing.B) {
	ctx := context.Background()
	observers := []string{"o0", "o1", "o2", "o3"}
	for _, k := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			clock, now := testClock(time.Unix(4_000_000, 0))
			nodes := newClockedBed(b, DefaultHalfLife, now, append(observers, "node")...)
			node := nodes[len(nodes)-1]
			var arriving []GossipEntry
			for i, o := range nodes[:len(observers)] {
				for j := 0; j < maxGossipEntries/len(observers); j++ {
					arriving = append(arriving, signedBy(o.hc, fmt.Sprintf("suspect-%d", j), 1+float64(i+j), now()))
				}
			}
			baggage, err := encodeEntries(arriving)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < k; i++ {
				node.led.Observe(fmt.Sprintf("cheater-%d", i), false, 2*maxMergeSuspicion)
			}
			ag := mkGossipAgent(b)
			depart := func() {
				ag.SetBaggage(GossipMechanismName, baggage)
				if err := node.g.PrepareDeparture(ctx, node.hc, ag, nil); err != nil {
					b.Fatal(err)
				}
				*clock = clock.Add(10 * time.Millisecond)
			}
			depart()
			signed, verified := node.g.extractsSigned.Load(), node.g.verifyMisses.Load()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				depart()
			}
			b.StopTimer()
			b.ReportMetric(float64(node.g.extractsSigned.Load()-signed)/float64(b.N), "signs/op")
			b.ReportMetric(float64(node.g.verifyMisses.Load()-verified)/float64(b.N), "verifies/op")
		})
	}
}
