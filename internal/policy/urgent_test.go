package policy

import (
	"context"
	"testing"

	"repro/internal/transport"
)

// TestUrgentBaggageProviderThresholdAndCap pins the provider half of
// urgent piggybacking: only entries at or above the urgent threshold
// ride, at most maxUrgentEntries of them, most suspect first, and the
// encoded form is rebuilt only when the ledger version moves.
func TestUrgentBaggageProviderThresholdAndCap(t *testing.T) {
	bed := newExBed(t, 2, [][]string{nil, nil}, nil)
	b := bed.nodes[1]
	b.g.SetUrgentThreshold(2.0)

	// Nothing urgent yet: below-threshold entries produce no baggage.
	b.led.Observe("mild", false, 1.0)
	if bg := b.g.UrgentReplyBaggage(b.hc); bg != nil {
		t.Fatalf("below-threshold ledger produced baggage (%d bytes)", len(bg))
	}

	// Over the cap: 12 quarantine-level hosts, only maxUrgentEntries
	// ride, and they are the most suspect ones.
	for i := 0; i < 12; i++ {
		b.led.Observe(exName(100+i), false, 3.0+float64(i))
	}
	bg := b.g.UrgentReplyBaggage(b.hc)
	if bg == nil {
		t.Fatal("quarantine-level ledger produced no baggage")
	}
	entries, err := decodeEntriesBounded(bg, maxGossipEntries)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != maxUrgentEntries {
		t.Fatalf("baggage carries %d entries, want cap %d", len(entries), maxUrgentEntries)
	}
	for _, e := range entries {
		if e.Suspicion < 2.0 {
			t.Fatalf("below-threshold entry %q (%.2f) rode urgent baggage", e.Host, e.Suspicion)
		}
	}
	// The worst offender is always aboard.
	found := false
	for _, e := range entries {
		if e.Host == exName(111) {
			found = true
		}
	}
	if !found {
		t.Fatal("most-suspect host missing from urgent baggage")
	}

	// Same ledger version ⇒ the cached encoding is returned as-is.
	if again := b.g.UrgentReplyBaggage(b.hc); &again[0] != &bg[0] {
		t.Fatal("unchanged ledger version rebuilt the urgent baggage")
	}
	// A raising observation bumps the version and invalidates the cache.
	b.led.Observe("fresh-cheat", false, 7.5)
	entries, err = decodeEntriesBounded(b.g.UrgentReplyBaggage(b.hc), maxGossipEntries)
	if err != nil {
		t.Fatal(err)
	}
	found = false
	for _, e := range entries {
		if e.Host == "fresh-cheat" {
			found = true
		}
	}
	if !found {
		t.Fatal("fresh detection did not reach the rebuilt urgent baggage")
	}
}

// TestUrgentBaggageMergeIdempotentReplay pins the merger half: urgent
// baggage lands through the shared verify-then-Merge (damping applies),
// and replaying the same baggage any number of times changes nothing —
// the decayed-max merge makes the urgent fast path replay-proof.
func TestUrgentBaggageMergeIdempotentReplay(t *testing.T) {
	bed := newExBed(t, 2, [][]string{nil, nil}, nil)
	a, b := bed.nodes[0], bed.nodes[1]
	b.g.SetUrgentThreshold(2.0)
	b.led.Observe("mallory", false, 3.0)

	bg := b.g.UrgentReplyBaggage(b.hc)
	if bg == nil {
		t.Fatal("no urgent baggage for a quarantine-level entry")
	}
	if got := a.g.MergeUrgentBaggage(a.hc, bg); got != 1 {
		t.Fatalf("merged %d entries, want 1", got)
	}
	want := a.led.Suspicion("mallory")
	// Damped second-hand evidence: 3.0 × gossipDamping.
	if want <= 2.6 || want > 3.0 {
		t.Fatalf("merged suspicion %.3f, want damped ~%.3f", want, 3.0*gossipDamping)
	}
	for i := 0; i < 3; i++ {
		a.g.MergeUrgentBaggage(a.hc, bg)
	}
	if got := a.led.Suspicion("mallory"); got != want {
		t.Fatalf("replayed urgent baggage moved the ledger: %v -> %v", want, got)
	}

	// Malformed baggage merges nothing and never errors the carrier.
	if got := a.g.MergeUrgentBaggage(a.hc, []byte("garbage")); got != 0 {
		t.Fatalf("garbage baggage merged %d entries", got)
	}
	st, _ := a.g.ExchangeStats()
	if st.UrgentMerged < 1 {
		t.Fatalf("urgent merge counter = %d, want >= 1", st.UrgentMerged)
	}
	bst, _ := b.g.ExchangeStats()
	if bst.UrgentSent < 1 {
		t.Fatalf("urgent sent counter = %d, want >= 1", bst.UrgentSent)
	}
}

// TestUrgentBaggageAttribution pins per-signer attribution through the
// batch verify path: a forged entry travelling with valid ones is
// dropped alone — the exchange's offer/delta bundles ride the same
// mergeVerified, so this holds the line for all three ingestion paths.
func TestUrgentBaggageAttribution(t *testing.T) {
	bed := newExBed(t, 2, [][]string{nil, nil}, nil)
	a, b := bed.nodes[0], bed.nodes[1]
	b.g.SetUrgentThreshold(2.0)
	b.led.Observe("honest-victim", false, 4.0)
	b.led.Observe("real-cheat", false, 5.0)

	entries, err := decodeEntriesBounded(b.g.UrgentReplyBaggage(b.hc), maxGossipEntries)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("want 2 entries, got %d", len(entries))
	}
	// Tamper one entry after signing: its signature no longer binds.
	for i := range entries {
		if entries[i].Host == "honest-victim" {
			entries[i].Suspicion = maxMergeSuspicion
		}
	}
	forged, err := encodeEntries(entries)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.g.MergeUrgentBaggage(a.hc, forged); got != 1 {
		t.Fatalf("merged %d entries, want only the intact one", got)
	}
	if got := a.led.Suspicion("honest-victim"); got != 0 {
		t.Fatalf("forged entry merged (suspicion %.3f)", got)
	}
	if got := a.led.Suspicion("real-cheat"); got <= 0 {
		t.Fatal("intact entry dropped with the forged one")
	}
}

// TestExchangeRoundCarriesUrgentBaggage pins the one-RPC exposure
// property at the protocol layer: when a responder wraps its replies
// with urgent baggage (as core.Node does for every mechanism call), an
// exchange initiator merges the detection off the very reply that
// carried its round — no second RPC, no waiting for its own pull to
// select that entry.
func TestExchangeRoundCarriesUrgentBaggage(t *testing.T) {
	ctx := context.Background()
	bed := newExBed(t, 2, [][]string{{exName(1)}, nil}, func(i int) bool { return i == 0 })
	a, b := bed.nodes[0], bed.nodes[1]
	b.g.SetUrgentThreshold(2.0)
	b.led.Observe("urgent-cheat", false, 6.0)

	// Register B behind a wrapper that mimics the node's reply path:
	// every served call gets the urgent envelope.
	bed.net.Register(b.name, urgentWrapEndpoint{gossipEndpoint{hc: b.hc, g: b.g}})

	if err := a.x.Step(ctx); err != nil {
		t.Fatal(err)
	}
	// The initiator opens the envelope before it reads the delta, so the
	// pull carries the same extract but finds nothing left to raise:
	// the detection came in the envelope.
	st, _ := a.g.ExchangeStats()
	if st.EntriesReceived == 0 || st.EntriesMerged != 0 {
		t.Fatalf("delta carried %d entries and merged %d; the test no longer isolates the envelope", st.EntriesReceived, st.EntriesMerged)
	}
	if st.UrgentMerged == 0 {
		t.Fatalf("initiator merged no urgent entries off the reply envelope: %+v", st)
	}
}

// urgentWrapEndpoint wraps every successful reply with the mechanism's
// urgent baggage — the shape core.Node gives mechanism-namespace calls.
type urgentWrapEndpoint struct {
	gossipEndpoint
}

func (e urgentWrapEndpoint) HandleCall(ctx context.Context, method string, body []byte) ([]byte, error) {
	reply, err := e.gossipEndpoint.HandleCall(ctx, method, body)
	if err != nil {
		return reply, err
	}
	if bg := e.g.UrgentReplyBaggage(e.hc); len(bg) > 0 {
		reply = transport.WrapReply(reply, bg)
	}
	return reply, nil
}
