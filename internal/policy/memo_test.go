package policy

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/sigcrypto"
)

// The two per-node memos of the gossip mechanism (gossip.go): own
// extracts are signed once per raise of the ledger record behind them,
// received entries are verified once per node. These tests hold the
// line the memos must not move: what is accepted, what reaches the
// ledger, and what a receiver ends up believing.

// stored counts a memo's entries; one promoted out of the old
// generation is counted twice until the next turnover.
func stored[K comparable, V any](c *memo[K, V]) int { return len(c.young) + len(c.old) }

// signedBy returns observer's signed claim that host had suspicion s at
// time at.
func signedBy(observer *core.HostContext, host string, s float64, at time.Time) GossipEntry {
	e := GossipEntry{Observer: observer.Host.Name(), Host: host, Suspicion: s, AtUnixNano: at.UnixNano()}
	e.Sig = observer.Host.Keys().SignDigest(e.bindingDigest())
	return e
}

// arrive puts entries through node name's arrival filter with nothing
// left out, as departure does, merges what passes and returns it: what
// the node would re-carry on departure.
func (bed *gossipBed) arrive(name string, entries ...GossipEntry) []GossipEntry {
	return bed.mechs[name].verifyAll(bed.hosts[name].Host.Registry(), name, entries)
}

// verifyAll checks every admissible entry, whether it could raise a
// record or not, and merges what verifies: ingestion before arrival
// learned to skip the entries that decide nothing.
func (m *Gossip) verifyAll(reg *sigcrypto.Registry, self string, entries []GossipEntry) []GossipEntry {
	keep := m.verified(reg, self, entries, nil)
	m.merge(keep)
	return keep
}

// TestVerifyMemoFlippedSignatureByte: the memo is keyed by the
// signature bytes too, so the same claim under a signature one bit off
// is verified afresh and dropped — and the failure is not remembered
// either way.
func TestVerifyMemoFlippedSignatureByte(t *testing.T) {
	bed := newGossipBed(t, "a", "b")
	good := signedBy(bed.hosts["a"], "mallory", 2, time.Now())
	if kept := bed.arrive("b", good); len(kept) != 1 {
		t.Fatalf("valid entry kept %d times, want 1", len(kept))
	}
	before := bed.leds["b"].Version()

	bad := good
	bad.Sig.Sig = append([]byte(nil), good.Sig.Sig...)
	bad.Sig.Sig[17] ^= 0x40
	for i := 0; i < 2; i++ {
		misses := bed.mechs["b"].verifyMisses.Load()
		if kept := bed.arrive("b", bad); len(kept) != 0 {
			t.Fatalf("round %d: entry with a flipped signature byte was kept", i)
		}
		if got := bed.mechs["b"].verifyMisses.Load() - misses; got != 1 {
			t.Fatalf("round %d: %d verifications for the flipped entry, want 1 (failures are never cached)", i, got)
		}
	}
	if got := bed.leds["b"].Version(); got != before {
		t.Fatalf("ledger version moved %d -> %d on a bad signature", before, got)
	}
	// The good bytes are still vouched for.
	hits := bed.mechs["b"].verifyHits.Load()
	if kept := bed.arrive("b", good); len(kept) != 1 || bed.mechs["b"].verifyHits.Load() != hits+1 {
		t.Fatal("valid entry no longer served from the memo after a forged sibling")
	}
}

// TestVerifyMemoOldSignatureNewClaim: a signature this node has
// verified says nothing about a claim it was not made over. Changing
// suspicion, time or subject under the old signature changes the
// binding digest, hence the memo key, and the real check drops it.
func TestVerifyMemoOldSignatureNewClaim(t *testing.T) {
	bed := newGossipBed(t, "a", "b")
	good := signedBy(bed.hosts["a"], "mallory", 1, time.Now().Add(-time.Minute))
	if kept := bed.arrive("b", good); len(kept) != 1 {
		t.Fatal("valid entry dropped")
	}
	tampered := map[string]func(*GossipEntry){
		"suspicion": func(e *GossipEntry) { e.Suspicion = maxMergeSuspicion },
		"time":      func(e *GossipEntry) { e.AtUnixNano = time.Now().UnixNano() },
		"host":      func(e *GossipEntry) { e.Host = "victim" },
	}
	for name, change := range tampered {
		e := good
		change(&e)
		if kept := bed.arrive("b", e); len(kept) != 0 {
			t.Errorf("%s changed under the old signature: entry kept", name)
		}
	}
	if got := bed.leds["b"].Suspicion("victim"); got != 0 {
		t.Errorf("victim charged %v from a re-labelled claim", got)
	}
	if got, want := bed.leds["b"].Suspicion("mallory"), 0.9; got > want {
		t.Errorf("mallory at %v, above the one genuine claim's %v", got, want)
	}
}

// TestVerifyMemoRelabelledObserver: a claim valid for observer a,
// presented as observer b's, never gets as far as the memo when the
// signature still names a, and fails the real check when it names b.
func TestVerifyMemoRelabelledObserver(t *testing.T) {
	bed := newGossipBed(t, "a", "b", "c")
	good := signedBy(bed.hosts["a"], "mallory", 2, time.Now())
	if kept := bed.arrive("c", good); len(kept) != 1 {
		t.Fatal("valid entry dropped")
	}
	g := bed.mechs["c"]
	hits, misses, size := g.verifyHits.Load(), g.verifyMisses.Load(), stored(&g.seen)

	relabelled := good
	relabelled.Observer = "b"
	if kept := bed.arrive("c", relabelled); len(kept) != 0 {
		t.Fatal("entry signed by a kept as b's observation")
	}
	if g.verifyHits.Load() != hits || g.verifyMisses.Load() != misses || stored(&g.seen) != size {
		t.Fatal("signer != observer reached the memo or the verifier; the structural filter comes first")
	}

	relabelled.Sig.Signer = "b"
	if kept := bed.arrive("c", relabelled); len(kept) != 0 {
		t.Fatal("a's signature kept under b's name")
	}
	if g.verifyHits.Load() != hits {
		t.Fatal("relabelled entry was served from the memo")
	}
	if g.verifyMisses.Load() != misses+1 || stored(&g.seen) != size {
		t.Fatal("relabelled entry was not verified afresh, or its failure was remembered")
	}
}

// TestMemosArePerNode: two nodes over one registry share nothing. What
// node a has verified, node b verifies for itself on first sight — and
// a memo entry planted at a (standing in for any way a's memo could be
// wrong) buys nothing at b.
func TestMemosArePerNode(t *testing.T) {
	bed := newGossipBed(t, "a", "b", "c")
	now := time.Now()
	var entries []GossipEntry
	for i := 0; i < 8; i++ {
		entries = append(entries, signedBy(bed.hosts["c"], fmt.Sprintf("suspect-%d", i), 1, now))
	}
	bed.arrive("a", entries...)
	bed.arrive("a", entries...)
	if a := bed.mechs["a"]; a.verifyMisses.Load() != 8 || a.verifyHits.Load() != 8 {
		t.Fatalf("node a: %d verified, %d from memo; want 8 and 8", a.verifyMisses.Load(), a.verifyHits.Load())
	}
	bed.arrive("b", entries...)
	if b := bed.mechs["b"]; b.verifyMisses.Load() != 8 || b.verifyHits.Load() != 0 {
		t.Fatalf("node b's first sight: %d verified, %d from memo; want 8 and 0", b.verifyMisses.Load(), b.verifyHits.Load())
	}

	forged := GossipEntry{Observer: "c", Host: "victim", Suspicion: 5, AtUnixNano: now.UnixNano(),
		Sig: sigcrypto.Signature{Signer: "c", Sig: bytes.Repeat([]byte{7}, 64)}}
	bed.mechs["a"].seen.put(seenKey(forged.bindingDigest(), forged.Sig.Sig), struct{}{})
	if kept := bed.arrive("a", forged); len(kept) != 1 {
		t.Fatal("planted memo entry not consulted: the test no longer shows what it means to")
	}
	if kept := bed.arrive("b", forged); len(kept) != 0 || bed.leds["b"].Suspicion("victim") != 0 {
		t.Fatal("node b accepted an entry only node a's memo vouched for")
	}
}

// TestMemosAreBounded: ten times as many distinct valid entries as the
// verify memo holds, and every host a full ledger tracks passing
// through the extract memo, never take either past twice memoGenSize.
func TestMemosAreBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("signs and verifies 10 240 entries")
	}
	const bound = 2 * memoGenSize
	bed := newGossipBed(t, "a", "b")
	now := time.Now()
	for i := 0; i < 10*bound; i += maxGossipEntries {
		batch := make([]GossipEntry, maxGossipEntries)
		for j := range batch {
			batch[j] = signedBy(bed.hosts["a"], fmt.Sprintf("suspect-%d", i+j), 1, now)
		}
		if kept := bed.arrive("b", batch...); len(kept) != len(batch) {
			t.Fatalf("batch at %d: kept %d of %d valid entries", i, len(kept), len(batch))
		}
		if n := stored(&bed.mechs["b"].seen); n > bound {
			t.Fatalf("verify memo holds %d entries after %d, bound %d", n, i+len(batch), bound)
		}
	}
	// b's ledger now tracks up to its capacity of hosts worth sharing;
	// every one of them passes through the extract memo.
	g, hc := bed.mechs["b"], bed.hosts["b"]
	rows := bed.leds["b"].rows()
	if len(rows) < 2*bound {
		t.Fatalf("only %d ledger rows to share, want at least %d", len(rows), 2*bound)
	}
	for i := 0; i+gossipShareLimit <= len(rows); i += gossipShareLimit {
		g.extracts(rows[i:i+gossipShareLimit], "b", hc.Host.Keys(), gossipShareLimit, nil)
		if n := stored(&g.own); n > bound {
			t.Fatalf("extract memo holds %d entries, bound %d", n, bound)
		}
	}
}

// TestTerminalAgentsRetainNothing: an agent that is checked and never
// departs (quarantined, completed) used to leave its verified entries
// behind. What a node retains for gossip now depends on the entries it
// has seen, not on how many agents carried them.
func TestTerminalAgentsRetainNothing(t *testing.T) {
	ctx := context.Background()
	retainedAfter := func(agents int) int {
		bed := newGossipBed(t, "src", "node")
		now := time.Now()
		var entries []GossipEntry
		for i := 0; i < maxGossipEntries; i++ {
			entries = append(entries, signedBy(bed.hosts["src"], fmt.Sprintf("suspect-%d", i), 1, now))
		}
		for i := 0; i < agents; i++ {
			ag, err := agent.New(fmt.Sprintf("terminal-%d", i), "owner", `proc main() { done() }`, "main")
			if err != nil {
				t.Fatal(err)
			}
			setEntries(t, ag, entries)
			if _, err := bed.mechs["node"].CheckAfterSession(ctx, bed.hosts["node"], ag); err != nil {
				t.Fatal(err)
			}
		}
		return stored(&bed.mechs["node"].seen) + stored(&bed.mechs["node"].own)
	}
	few, many := retainedAfter(4), retainedAfter(400)
	if few != many || many > maxGossipEntries {
		t.Fatalf("retained %d entries after 4 terminal agents, %d after 400; want equal and at most %d", few, many, maxGossipEntries)
	}
}

// TestDepartureCarriesOnlyWhatThisNodeVerified pins the re-carry rule
// now that departure puts the baggage through the arrival filter itself
// instead of reading a per-agent store: genuine entries travel on,
// whether arrival had reason to verify them or not, and entries that do
// not verify never do. Once arrival has merged genuine, the node's own
// extract about mallory is a relay of it, damped: beside genuine it is
// neither signed nor carried, and on an agent that does not carry
// genuine it is signed and carried.
func TestDepartureCarriesOnlyWhatThisNodeVerified(t *testing.T) {
	ctx := context.Background()
	bed := newGossipBed(t, "src", "node")
	node, hc := bed.mechs["node"], bed.hosts["node"]
	genuine := signedBy(bed.hosts["src"], "mallory", 2, time.Now())
	stale := signedBy(bed.hosts["src"], "mallory", 1, time.Now().Add(-time.Hour)) // raises nothing once genuine is in
	forged := signedBy(bed.hosts["src"], "victim", 2, time.Now())
	forged.Sig.Sig[3] ^= 1

	// depart runs an agent carrying bag through the node and counts, in
	// what it leaves with, src's genuine entry and the node's own extract
	// about mallory, and the extracts the node signed on the way.
	depart := func(arrivalRan bool, bag ...GossipEntry) (carried, own int, signed int64) {
		t.Helper()
		ag := mkGossipAgent(t)
		setEntries(t, ag, bag)
		if arrivalRan {
			if _, err := node.CheckAfterSession(ctx, hc, ag); err != nil {
				t.Fatal(err)
			}
		}
		before := node.extractsSigned.Load()
		if err := node.PrepareDeparture(ctx, hc, ag, nil); err != nil {
			t.Fatal(err)
		}
		data, _ := ag.GetBaggage(GossipMechanismName)
		for _, e := range decodeEntries(data) {
			switch {
			case e.Host == "victim":
				t.Fatalf("arrival ran=%v: a forged entry was carried onward", arrivalRan)
			case e.Observer == "src" && bytes.Equal(e.Sig.Sig, genuine.Sig.Sig):
				carried++
			case e.Observer == "node" && e.Host == "mallory":
				own++
			}
		}
		return carried, own, node.extractsSigned.Load() - before
	}

	// stale shares genuine's (observer, host) and is older: the newer one
	// travels.
	if carried, own, _ := depart(false, genuine, stale, forged); carried != 1 || own != 0 {
		t.Fatalf("arrival skipped: src's entry carried %d times, node's own extract %d times; want 1 and 0", carried, own)
	}
	if carried, own, signed := depart(true, genuine, stale, forged); carried != 1 || own != 0 || signed != 0 {
		t.Fatalf("beside the original: src's entry carried %d times, the node's relay carried %d times and %d extracts signed; want 1, 0 and 0", carried, own, signed)
	}
	if carried, own, signed := depart(false, stale, forged); carried != 0 || own != 1 || signed != 1 {
		t.Fatalf("without the original: src's entry carried %d times, the node's relay carried %d times and %d extracts signed; want 0, 1 and 1", carried, own, signed)
	}
	if got := bed.leds["node"].Suspicion("victim"); got != 0 {
		t.Fatalf("victim charged %v", got)
	}
}

// TestArrivalChecksOnlyWhatCouldRaise is the property arrival rests on
// now that it leaves alone the entries that would raise nothing. Two
// mechanisms with a ledger each serve one host on one clock. Random
// bundles — genuine, forged, duplicated, self-reported, future-dated,
// over the cap — reach both: one through CheckAfterSession and
// PrepareDeparture, the other through verifyAll, which verifies and
// merges every entry as arrival used to, before its departure. After
// every bundle both ledgers read the same, bit for bit, and both agents
// leave with the same bytes; and the first has checked fewer
// signatures.
func TestArrivalChecksOnlyWhatCouldRaise(t *testing.T) {
	ctx := context.Background()
	clock, now := testClock(time.Unix(6_000_000, 0))
	const halfLife = 10 * time.Minute
	nodes := newClockedBed(t, halfLife, now, "node", "o0", "o1", "o2")
	hc, observers := nodes[0].hc, nodes[1:]
	lazy, lazyLed := nodes[0].g, nodes[0].led
	eagerLed := NewLedger(LedgerConfig{HalfLife: halfLife, Now: now})
	eager := NewGossip(eagerLed)
	eager.SetClock(now)
	subjects := []string{"s0", "s1", "s2", "s3", "s4", "s5", "node", "o0"}

	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		*clock = clock.Add(time.Duration(rng.Int63n(int64(halfLife) / 8)))
		if round%5 == 0 { // a first-hand raise between arrivals
			subject, w := subjects[rng.Intn(6)], rng.Float64()*3
			lazyLed.Observe(subject, false, w)
			eagerLed.Observe(subject, false, w)
		}
		var bundle []GossipEntry
		for n := 1 + rng.Intn(24); n > 0; n-- {
			at := now().Add(-time.Duration(rng.Int63n(int64(halfLife))))
			if rng.Intn(10) == 0 {
				at = now().Add(time.Minute) // future-dated
			}
			o := observers[rng.Intn(len(observers))]
			e := signedBy(o.hc, subjects[rng.Intn(len(subjects))], 0.05+rng.Float64()*12, at)
			switch rng.Intn(8) {
			case 0: // forged
				e.Sig.Sig[rng.Intn(len(e.Sig.Sig))] ^= 1
			case 1: // altered after signing
				e.Suspicion *= 2
			case 2: // the same (observer, host) twice, the older one genuine too
				bundle = append(bundle, signedBy(o.hc, e.Host, e.Suspicion/2, at.Add(-time.Minute)))
			}
			bundle = append(bundle, e)
		}
		enc, err := encodeEntries(bundle)
		if err != nil {
			t.Fatal(err)
		}
		lazyAg, eagerAg := mkGossipAgent(t), mkGossipAgent(t)
		lazyAg.SetBaggage(GossipMechanismName, enc)
		eagerAg.SetBaggage(GossipMechanismName, enc)

		if _, err := lazy.CheckAfterSession(ctx, hc, lazyAg); err != nil {
			t.Fatal(err)
		}
		eager.verifyAll(hc.Host.Registry(), "node", bundle)
		if lazyLed.Version() != eagerLed.Version() {
			t.Fatalf("round %d: %d raises where verifying everything made %d", round, lazyLed.Version(), eagerLed.Version())
		}
		for _, subject := range subjects {
			if got, want := lazyLed.Suspicion(subject), eagerLed.Suspicion(subject); got != want {
				t.Fatalf("round %d: %s at %v, %v after verifying everything", round, subject, got, want)
			}
		}
		if round%3 == 0 {
			continue // the agent ends here
		}
		if err := lazy.PrepareDeparture(ctx, hc, lazyAg, nil); err != nil {
			t.Fatal(err)
		}
		if err := eager.PrepareDeparture(ctx, hc, eagerAg, nil); err != nil {
			t.Fatal(err)
		}
		got, _ := lazyAg.GetBaggage(GossipMechanismName)
		want, _ := eagerAg.GetBaggage(GossipMechanismName)
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: departure baggage differs:\n got %+v\nwant %+v", round, decodeEntries(got), decodeEntries(want))
		}
	}
	l, e := lazy.verifyMisses.Load(), eager.verifyMisses.Load()
	t.Logf("%d signatures checked, %d when verifying everything on arrival", l, e)
	if l >= e {
		t.Fatal("nothing was saved")
	}
}

// TestExtractLiesOnRecordCurve states what an extract's time means: not
// "now" but the record's raise point, at or before now, on the curve
// the record reads along — wherever a clean observation has re-based
// the stored point since.
func TestExtractLiesOnRecordCurve(t *testing.T) {
	clock, now := testClock(time.Unix(2_000_000, 0))
	const halfLife = 10 * time.Minute
	a := newClockedBed(t, halfLife, now, "a")[0]
	a.led.Observe("mallory", false, 3)
	raisedAt := now()
	*clock = clock.Add(7 * time.Minute)
	a.led.Observe("mallory", true, 0) // re-bases the stored point, raises nothing
	*clock = clock.Add(4 * time.Minute)

	out := a.g.extracts(a.led.rows(), a.name, a.hc.Host.Keys(), gossipShareLimit, nil)
	if len(out) != 1 {
		t.Fatalf("%d extracts, want 1", len(out))
	}
	e := out[0]
	if e.Suspicion != 3 || e.AtUnixNano != raisedAt.UnixNano() {
		t.Fatalf("extract (%v, %v), want the raise point (3, %v)", e.Suspicion, time.Unix(0, e.AtUnixNano), raisedAt)
	}
	onCurve := e.Suspicion * math.Exp2(-float64(now().Sub(raisedAt))/float64(halfLife))
	if want := a.led.Suspicion("mallory"); math.Abs(onCurve-want) > 1e-12*want {
		t.Fatalf("claim decayed to now = %v, record reads %v", onCurve, want)
	}
	if err := a.hc.Host.Registry().VerifyDigest(e.bindingDigest(), e.Sig); err != nil {
		t.Fatalf("extract does not verify: %v", err)
	}
}

// newClockedBed builds gossip nodes over one registry, one half-life
// and one settable clock.
func newClockedBed(t testing.TB, halfLife time.Duration, now func() time.Time, names ...string) []*exNode {
	t.Helper()
	reg := sigcrypto.NewRegistry()
	var nodes []*exNode
	for _, name := range names {
		keys, err := sigcrypto.GenerateKeyPair(name)
		if err != nil {
			t.Fatal(err)
		}
		h, err := host.New(host.Config{Name: name, Keys: keys, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		led := NewLedger(LedgerConfig{HalfLife: halfLife, Now: now})
		g := NewGossip(led)
		g.SetClock(now)
		nodes = append(nodes, &exNode{name: name, hc: &core.HostContext{Host: h}, g: g, led: led})
	}
	return nodes
}

// memoless returns what n would emit with both memos empty: a second
// mechanism over the same ledger, keys and clock.
func memoless(n *exNode, now func() time.Time) []GossipEntry {
	g := NewGossip(n.led)
	g.SetClock(now)
	return g.extracts(n.led.rows(), n.name, n.hc.Host.Keys(), gossipShareLimit, nil)
}

// TestExtractReuseEquivalence is the property the extract memo rests
// on. A sender's ledger goes through a random schedule of raises
// (first-hand failures and adopted gossip, below and above the merge
// cap), clean observations and departures at random intervals, some of
// them bursts inside one grid cell. At every departure:
//
//   - what the sender emits is, byte for byte, what a mechanism with no
//     memo emits from the same ledger: the memo never decides what is
//     propagated;
//   - a receiver hearing it ends up where a receiver of extracts
//     re-stamped at every departure (suspicion decayed to now, now)
//     does: to within 1e-9 relative for a subject whose record has not
//     been above the cap, and within restamped·2^(-1/64) ≤ got ≤
//     restamped for one that has — never above, and at most one grid
//     cell of decay below;
//   - an extract is a point of its record's curve: the raise point, or
//     above the cap the later of it and the start of the current cell;
//   - it is re-signed exactly when that point moved — a raise since the
//     last departure, to a claim that reads higher, or above the cap a
//     new cell — and otherwise reissued.
func TestExtractReuseEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	subjects := []string{"s0", "s1", "s2", "s3", "s4"}
	oneCell := math.Exp2(-1.0 / 64)
	var reissued, overCap, overCapReissued int
	for trial := 0; trial < 24; trial++ {
		halfLife := time.Duration(1+rng.Intn(60)) * time.Minute
		cell := extractCell(halfLife)
		clock, now := testClock(time.Unix(3_000_000, 0))
		nodes := newClockedBed(t, halfLife, now, "sender", "other", "r-reuse", "r-restamp")
		sender, other, rReuse, rRestamp := nodes[0], nodes[1], nodes[2], nodes[3]
		decayTo := func(e GossipEntry, at time.Time) float64 {
			return e.Suspicion * math.Exp2(-float64(at.Sub(time.Unix(0, e.AtUnixNano)))/float64(halfLife))
		}
		// Trials alternate between staying under the cap and being free
		// to cross it.
		maxWeight := 0.4
		if trial%2 == 1 {
			maxWeight = 12
		}
		last := map[string]GossipEntry{}
		raisedSince := map[string]bool{}
		wasOverCap := map[string]bool{}

		for step := 0; step < 60; step++ {
			gap := int64(halfLife) / 4
			if rng.Intn(4) == 0 {
				gap = cell // a burst of departures inside one cell
			}
			*clock = clock.Add(time.Duration(rng.Int63n(gap)))
			subject := subjects[rng.Intn(len(subjects))]
			switch rng.Intn(4) {
			case 0: // first-hand raise
				sender.led.Observe(subject, false, 0.1+rng.Float64()*maxWeight)
				raisedSince[subject] = true
			case 1: // second-hand raise, if the claim is adoptable
				claim := signedBy(other.hc, subject, 0.2+rng.Float64()*maxWeight, now())
				before := sender.led.Version()
				sender.g.mergeVerified(sender.hc.Host.Registry(), sender.name, []GossipEntry{claim})
				if sender.led.Version() != before {
					raisedSince[subject] = true
				}
			case 2: // clean observation: re-bases the record, raises nothing
				sender.led.Observe(subject, true, 0)
			}
			if rng.Intn(3) != 0 {
				continue
			}

			// Departure.
			rows := sender.led.rows()
			emitted := sender.g.extracts(rows, sender.name, sender.hc.Host.Keys(), gossipShareLimit, nil)
			if want := memoless(sender, now); !reflect.DeepEqual(emitted, want) {
				t.Fatalf("trial %d step %d: the memo changed what is sent:\n got %+v\nwant %+v", trial, step, emitted, want)
			}
			var restamped []GossipEntry
			point := map[string]ledgerRow{}
			for _, row := range rows {
				point[row.Host] = row
				if row.raised > maxMergeSuspicion {
					wasOverCap[row.Host] = true
				}
				if row.Suspicion >= minGossipSuspicion {
					restamped = append(restamped, signedBy(sender.hc, row.Host, row.Suspicion, now()))
				}
			}
			rReuse.g.mergeVerified(rReuse.hc.Host.Registry(), rReuse.name, emitted)
			rRestamp.g.mergeVerified(rRestamp.hc.Host.Registry(), rRestamp.name, restamped)
			for _, subject := range subjects {
				got, want := rReuse.led.Suspicion(subject), rRestamp.led.Suspicion(subject)
				if !wasOverCap[subject] && math.Abs(got-want) > 1e-9*want {
					t.Fatalf("trial %d step %d %s: receiver at %v, receiver of re-stamped extracts at %v", trial, step, subject, got, want)
				}
				if wasOverCap[subject] && (got > want*(1+1e-9) || got < want*oneCell*(1-1e-9)) {
					t.Fatalf("trial %d step %d %s: receiver at %v, outside [%v, %v] from re-stamped extracts", trial, step, subject, got, want*oneCell, want)
				}
			}

			grid := now().UnixNano() / cell * cell
			for _, e := range emitted {
				prev, had := last[e.Host]
				last[e.Host] = e
				raised := raisedSince[e.Host]
				raisedSince[e.Host] = false
				row := point[e.Host]
				above := row.raised > maxMergeSuspicion
				wantAt := row.raisedAtUnixNano
				if above {
					overCap++
					wantAt = max(wantAt, grid)
				}
				onCurve := row.raised * math.Exp2(-float64(e.AtUnixNano-row.raisedAtUnixNano)/float64(halfLife))
				if e.AtUnixNano != wantAt || math.Abs(e.Suspicion-onCurve) > 1e-12*onCurve {
					t.Fatalf("trial %d step %d: %s extract (%v, %v), want the curve at %v", trial, step, e.Host, e.Suspicion, e.AtUnixNano, wantAt)
				}
				if !had {
					continue
				}
				moved := e.Suspicion != prev.Suspicion || e.AtUnixNano != prev.AtUnixNano
				newCell := above && e.AtUnixNano == grid && prev.AtUnixNano < grid
				switch same := bytes.Equal(prev.Sig.Sig, e.Sig.Sig); {
				case same == moved:
					t.Fatalf("trial %d step %d: %s claim point moved=%v but signature reused=%v", trial, step, e.Host, moved, same)
				case moved && !raised && !newCell:
					t.Fatalf("trial %d step %d: %s re-signed with no raise since the last departure and no new cell", trial, step, e.Host)
				case raised && !moved:
					t.Fatalf("trial %d step %d: %s raised since the last departure but its old extract was reissued", trial, step, e.Host)
				case raised && decayTo(e, now()) <= decayTo(prev, now()):
					t.Fatalf("trial %d step %d: %s raised but the new extract reads %v, the old one %v", trial, step, e.Host, decayTo(e, now()), decayTo(prev, now()))
				case !moved:
					reissued++
					if above {
						overCapReissued++
					}
				}
			}
		}
	}
	t.Logf("%d extracts reissued (%d of them above the cap), %d above the cap", reissued, overCapReissued, overCap)
	if reissued < 100 || overCap < 100 || overCapReissued < 10 {
		t.Fatalf("%d extracts reissued, %d above the cap, %d reissued there: the schedule no longer exercises all three", reissued, overCap, overCapReissued)
	}
}

// TestExtractAboveCapSignedOncePerCell: above the merge cap an extract
// is the record's curve at the start of the current grid cell, so a
// sender departing 100 times a second for three cells signs each
// subject once per cell plus once per raise, and reissues the rest. A
// receiver hearing every departure is never more than one cell of
// decay below the damped cap.
func TestExtractAboveCapSignedOncePerCell(t *testing.T) {
	const halfLife = DefaultHalfLife
	cell := extractCell(halfLife)
	start := time.Unix(4_000_000, 0)
	start = start.Add(-time.Duration(start.UnixNano() % cell)) // a cell boundary
	clock, now := testClock(start)
	nodes := newClockedBed(t, halfLife, now, "sender", "receiver")
	sender, receiver := nodes[0], nodes[1]
	subjects := []string{"mallory", "trudy", "eve"}
	for i, s := range subjects {
		sender.led.Observe(s, false, float64(2+i)*maxMergeSuspicion)
	}
	floor := gossipDamping * maxMergeSuspicion * math.Exp2(-1.0/64)

	raises := 0
	cells := map[int64]bool{}
	signed0 := sender.g.extractsSigned.Load()
	for i := 0; now().Sub(start) < 3*time.Duration(cell); i++ {
		if i%500 == 250 { // a raise mid-cell
			sender.led.Observe(subjects[i%len(subjects)], false, 0)
			raises++
		}
		cells[now().UnixNano()/cell] = true
		out := sender.g.extracts(sender.led.rows(), sender.name, sender.hc.Host.Keys(), gossipShareLimit, nil)
		if len(out) != len(subjects) {
			t.Fatalf("departure %d: %d extracts, want %d", i, len(out), len(subjects))
		}
		receiver.g.mergeVerified(receiver.hc.Host.Registry(), receiver.name, out)
		for _, s := range subjects {
			if got := receiver.led.Suspicion(s); got < floor*(1-1e-12) {
				t.Fatalf("departure %d: receiver holds %s at %v, below %v while the sender reads %v", i, s, got, floor, sender.led.Suspicion(s))
			}
		}
		*clock = clock.Add(10 * time.Millisecond)
	}
	signed := sender.g.extractsSigned.Load() - signed0
	if bound := int64(len(subjects)*len(cells) + raises); signed > bound || signed < int64(len(cells)) {
		t.Fatalf("%d signatures over %d cells and %d raises; want at least one per cell and at most %d", signed, len(cells), raises, bound)
	}
	t.Logf("%d signatures, %d reissued, over %d cells and %d raises", signed, sender.g.extractsReused.Load(), len(cells), raises)
}

// TestExtractSurvivesRestart: the raise point is not persisted, so a
// reopened ledger signs from the stored point instead — another point
// on the same curve, and the same value at a receiver.
func TestExtractSurvivesRestart(t *testing.T) {
	clock, now := testClock(time.Unix(5_000_000, 0))
	dir := t.TempDir()
	nodes := newClockedBed(t, time.Hour, now, "sender", "r-before", "r-after")
	sender := nodes[0]
	extract := func(l *Ledger) []GossipEntry {
		g := NewGossip(l)
		g.SetClock(now)
		return g.extracts(l.rows(), sender.name, sender.hc.Host.Keys(), gossipShareLimit, nil)
	}

	l := openDurableLedger(t, dir, now)
	l.Observe("mallory", false, 3)
	*clock = clock.Add(20 * time.Minute)
	l.Observe("mallory", true, 0)
	*clock = clock.Add(20 * time.Minute)
	before := extract(l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l = openDurableLedger(t, dir, now)
	defer l.Close()
	after := extract(l)
	if len(before) != 1 || len(after) != 1 {
		t.Fatalf("%d extracts before the restart, %d after; want 1 and 1", len(before), len(after))
	}

	*clock = clock.Add(20 * time.Minute)
	nodes[1].g.mergeVerified(nodes[1].hc.Host.Registry(), nodes[1].name, before)
	nodes[2].g.mergeVerified(nodes[2].hc.Host.Registry(), nodes[2].name, after)
	got, want := nodes[2].led.Suspicion("mallory"), nodes[1].led.Suspicion("mallory")
	if want <= 0 || math.Abs(got-want) > 1e-9*want {
		t.Fatalf("receiver of the post-restart extract at %v, of the pre-restart one at %v", got, want)
	}
}

// TestLedgerMergeNotAdoptedWritesNothing: a claim that cannot raise the
// record appends nothing to a durable ledger, bumps no version, and
// leaves the suspicion where re-basing the record would have left it.
func TestLedgerMergeNotAdoptedWritesNothing(t *testing.T) {
	clock, now := testClock(time.Unix(1_000_000, 0))
	l := openDurableLedger(t, t.TempDir(), now)
	defer l.Close()
	l.Observe("mallory", false, 2)
	*clock = clock.Add(20 * time.Minute)

	stats, ok := l.store.BackendStats()
	if !ok {
		t.Fatal("durable ledger reports no backend")
	}
	version, before := l.Version(), l.Suspicion("mallory")
	// What the old path stored: the local value decayed to now.
	rebased := 2 * math.Exp2(-20.0/60.0)

	l.Merge("mallory", 1.0, now())                     // weaker
	l.Merge("mallory", 2.0, now().Add(-2*time.Hour))   // stronger once, long decayed
	l.Merge("mallory", before/gossipDamping, now())    // exactly our own value after damping
	l.Merge("mallory", maxMergeSuspicion, time.Time{}) // ancient

	after, _ := l.store.BackendStats()
	if after.Appends != stats.Appends {
		t.Errorf("non-adoptable merges appended %d WAL records", after.Appends-stats.Appends)
	}
	if got := l.Version(); got != version {
		t.Errorf("non-adoptable merges moved the version %d -> %d", version, got)
	}
	if got := l.Suspicion("mallory"); math.Abs(got-rebased) > 1e-12 {
		t.Errorf("suspicion %v after non-adoptable merges, re-based record would read %v", got, rebased)
	}
	// And an adoptable one still lands.
	l.Merge("mallory", 5.0, now())
	if got, want := l.Suspicion("mallory"), 5.0*gossipDamping; math.Abs(got-want) > 1e-12 {
		t.Errorf("adoptable merge: suspicion %v, want %v", got, want)
	}
	if l.Version() != version+1 {
		t.Errorf("adoptable merge moved the version by %d, want 1", l.Version()-version)
	}
}

// TestGossipMemosConcurrent drives arrivals, departures and exchange
// rounds on one pair of nodes at once; it exists for the race detector.
func TestGossipMemosConcurrent(t *testing.T) {
	ctx := context.Background()
	bed := newExBed(t, 2, [][]string{{exName(1)}, {exName(0)}}, nil)
	a, b := bed.nodes[0], bed.nodes[1]
	for i := 0; i < 24; i++ {
		a.led.Observe(fmt.Sprintf("suspect-%d", i), false, 1+float64(i%3))
	}
	seedAgent := mkGossipAgent(t)
	if err := a.g.PrepareDeparture(ctx, a.hc, seedAgent, nil); err != nil {
		t.Fatal(err)
	}
	baggage, _ := seedAgent.GetBaggage(GossipMechanismName)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				ag, err := agent.New(fmt.Sprintf("racer-%d-%d", w, i), "owner", `proc main() { done() }`, "main")
				if err != nil {
					t.Error(err)
					return
				}
				ag.SetBaggage(GossipMechanismName, baggage)
				if _, err := b.g.CheckAfterSession(ctx, b.hc, ag); err != nil {
					t.Error(err)
				}
				if err := b.g.PrepareDeparture(ctx, b.hc, ag, nil); err != nil {
					t.Error(err)
				}
				if i%5 == 0 {
					a.led.Observe(fmt.Sprintf("suspect-%d", (w+i)%24), false, 0.5)
					_ = a.x.Step(ctx)
					_ = b.x.Step(ctx)
				}
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < 24; i++ {
		if b.led.Suspicion(fmt.Sprintf("suspect-%d", i)) <= 0 {
			t.Fatalf("suspect-%d never reached b", i)
		}
	}
}
