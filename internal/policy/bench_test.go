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
// sit at or below the merge cap: above it an extract is stamped and
// signed on every departure whatever the memo holds).
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
}
