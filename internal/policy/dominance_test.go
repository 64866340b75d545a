package policy

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/agentlang"
	"repro/internal/host"
	"repro/internal/sigcrypto"
)

// The property dominance rests on (filter.go): leaving out the claims an
// accepted claim dominates changes no ledger. Two copies of one small
// fleet — a node and the receiver its agents go to next — run on one
// registry and one virtual clock. One copy runs the mechanism; the
// other runs the filter as it was before dominance, kept here as the
// reference: every admissible entry checked, the verified ones merged
// in input order, and at departure every verified entry compacted,
// joined by every own extract, signed, and sorted. The same bags reach
// both, and after arrival, departure and the next receiver's arrival:
//
//   - every ledger reads, bit for bit, what the reference's reads, now
//     and at five later times;
//   - the departing bag is a subset of the reference's, and the receiver
//     merges each entry it leaves out to no more than some entry it
//     carries and the receiver does not drop as its own;
//   - nothing carried or merged fails its signature check.
//
// The receiver is one of the bags' observers, and holds no record behind
// the claims it signed: it stands for a host that lost its ledger, which
// relearns second-hand what the relays of its own claims say.
//
// The clock is frozen within a hop, the bags stay under the
// maxGossipEntries cap and every node holds every key: clock skew, a
// binding cap and key skew are where the invariant has its exceptions
// (DESIGN §5).

// domWorld is one copy of the fleet: the node and its next receiver.
type domWorld struct{ node, recv *exNode }

// domBed holds both copies and what they share.
type domBed struct {
	clock    *time.Time
	now      func() time.Time
	halfLife time.Duration
	// span is the half-life, or ten minutes with decay off: the scale
	// of the bags' timestamps.
	span      time.Duration
	observers []*exNode
	subjects  []string
	mech, ref domWorld

	// Totals over the bed's life, for the test to show that dominance
	// was exercised: reference entries dropped from departing bags, and
	// the signature checks the reference made, without a verify memo.
	dropped, refChecks int
}

func newDomBed(t testing.TB, halfLife time.Duration, observers, subjects int) *domBed {
	t.Helper()
	clock, now := testClock(time.Unix(9_000_000, 0))
	names := []string{"node", "recv"}
	for i := 0; i < observers; i++ {
		names = append(names, fmt.Sprintf("o%d", i))
	}
	nodes := newClockedBed(t, halfLife, now, names...)
	twin := func(n *exNode) *exNode {
		led := NewLedger(LedgerConfig{HalfLife: halfLife, Now: now})
		g := NewGossip(led)
		g.SetClock(now)
		return &exNode{name: n.name, hc: n.hc, g: g, led: led}
	}
	bed := &domBed{
		clock:     clock,
		now:       now,
		halfLife:  halfLife,
		span:      halfLife,
		observers: nodes[1:],
		mech:      domWorld{node: nodes[0], recv: nodes[1]},
		ref:       domWorld{node: twin(nodes[0]), recv: twin(nodes[1])},
	}
	if halfLife < 0 {
		bed.span = 10 * time.Minute
	}
	for i := 0; i < subjects; i++ {
		bed.subjects = append(bed.subjects, fmt.Sprintf("h%d", i))
	}
	// Claims about the receiver reach the node, and the receiver hears
	// about the node.
	bed.subjects = append(bed.subjects, "recv", "node")
	return bed
}

// observe is a first-hand raise at the node, in both copies.
func (bed *domBed) observe(subject string, weight float64) {
	bed.mech.node.led.Observe(subject, false, weight)
	bed.ref.node.led.Observe(subject, false, weight)
}

// randomBag draws a bag from rng: claims below and above the merge cap,
// some forged, some the same (observer, host) pair twice, some 0.9
// relays of another claim, some tied exactly with another observer's
// claim, a few dated ahead. forged reports which entries were forged.
func (bed *domBed) randomBag(rng *rand.Rand) (bag []GossipEntry, forged []bool) {
	add := func(e GossipEntry, bad bool) {
		if bad {
			e.Sig.Sig[rng.Intn(len(e.Sig.Sig))] ^= 1 << rng.Intn(8)
		}
		bag = append(bag, e)
		forged = append(forged, bad)
	}
	for n := 1 + rng.Intn(28); n > 0; n-- {
		o := bed.observers[rng.Intn(len(bed.observers))]
		subject := bed.subjects[rng.Intn(len(bed.subjects))]
		at := bed.now().Add(-time.Duration(rng.Int63n(int64(2 * bed.span))))
		if rng.Intn(12) == 0 {
			at = bed.now().Add(time.Duration(1 + rng.Int63n(int64(bed.span)/4)))
		}
		s := 0.05 + rng.Float64()*14
		e := signedBy(o.hc, subject, s, at)
		add(e, rng.Intn(7) == 0)
		other := bed.observers[rng.Intn(len(bed.observers))]
		switch rng.Intn(6) {
		case 0: // the same pair again, older, genuine
			add(signedBy(o.hc, subject, 0.05+rng.Float64()*14, at.Add(-time.Duration(rng.Int63n(int64(bed.span))))), false)
		case 1: // another observer's relay of it, damped, stamped later
			add(signedBy(other.hc, subject, gossipDamping*s, at.Add(time.Duration(rng.Int63n(int64(time.Minute))))), rng.Intn(5) == 0)
		case 2: // another observer's claim tied with it
			add(signedBy(other.hc, subject, s, at), rng.Intn(5) == 0)
		}
	}
	rng.Shuffle(len(bag), func(i, j int) {
		bag[i], bag[j] = bag[j], bag[i]
		forged[i], forged[j] = forged[j], forged[i]
	})
	return bag, forged
}

// referenceAdmits is the admission rule, the same at both copies: the
// structural checks of admissible, then the ledger's reading of the
// claim (claimed), which refuses a suspicion that is not finite and
// positive and a date more than one extract cell past the clock.
func referenceAdmits(n *exNode, e *GossipEntry) (curve, bool) {
	if !admissible(e, n.name) {
		return curve{}, false
	}
	return n.led.claim(e.Suspicion, e.AtUnixNano, n.led.now())
}

// referenceVerified is the filter before dominance: every admitted
// entry that wanted accepts (all with wanted nil) is checked, and the
// ones that verify are kept in input order.
func referenceVerified(n *exNode, entries []GossipEntry, wanted func(*GossipEntry) bool) []GossipEntry {
	var out []GossipEntry
	for i := range entries {
		e := &entries[i]
		if _, ok := referenceAdmits(n, e); !ok || (wanted != nil && !wanted(e)) {
			continue
		}
		if n.hc.Host.Registry().VerifyDigest(e.bindingDigest(), e.Sig) == nil {
			out = append(out, *e)
		}
	}
	return out
}

// referenceArrive is the reference's ingestion: verify what would
// raise a record, merge it, and return what it checked.
func referenceArrive(n *exNode, entries []GossipEntry) (checked int) {
	raises := func(e *GossipEntry) bool {
		c, ok := referenceAdmits(n, e)
		return ok && n.led.adoptable(e.Host, c, n.led.now())
	}
	for i := range entries {
		if raises(&entries[i]) {
			checked++
		}
	}
	n.g.merge(referenceVerified(n, entries, raises))
	return checked
}

// referenceDepart is the reference's departure: every verified entry,
// newest per (observer, host), joined by every own extract signed,
// most suspect first, capped.
func referenceDepart(n *exNode, arrived []GossipEntry) []GossipEntry {
	entries := referenceVerified(n, arrived, nil)
	slices.SortStableFunc(entries, func(a, b GossipEntry) int {
		if c := strings.Compare(a.Observer, b.Observer); c != 0 {
			return c
		}
		if c := strings.Compare(a.Host, b.Host); c != 0 {
			return c
		}
		return cmp.Compare(b.AtUnixNano, a.AtUnixNano)
	})
	entries = slices.CompactFunc(entries, func(a, b GossipEntry) bool {
		return a.Observer == b.Observer && a.Host == b.Host
	})
	entries = append(entries, n.g.extracts(n.led.rows(), n.name, n.hc.Host.Keys(), gossipShareLimit, nil)...)
	slices.SortFunc(entries, func(a, b GossipEntry) int {
		if c := cmp.Compare(b.Suspicion, a.Suspicion); c != 0 {
			return c
		}
		if c := strings.Compare(a.Host, b.Host); c != 0 {
			return c
		}
		return strings.Compare(a.Observer, b.Observer)
	})
	return entries[:min(len(entries), maxGossipEntries)]
}

// sameEntry compares two entries field by field, signature bytes
// included.
func sameEntry(a, b GossipEntry) bool {
	return a.Observer == b.Observer && a.Host == b.Host && a.AtUnixNano == b.AtUnixNano &&
		math.Float64bits(a.Suspicion) == math.Float64bits(b.Suspicion) &&
		a.Sig.Signer == b.Sig.Signer && string(a.Sig.Sig) == string(b.Sig.Sig)
}

// hop runs bag through both copies — arrival at the node, departure
// unless terminal, arrival at the receiver — and checks the property
// after each stage.
func (bed *domBed) hop(t testing.TB, bag []GossipEntry, terminal bool) {
	t.Helper()
	mech, ref := bed.mech, bed.ref
	verifies := func(e GossipEntry) bool {
		return mech.node.hc.Host.Registry().VerifyDigest(e.bindingDigest(), e.Sig) == nil
	}

	for _, e := range mech.node.g.mergeVerified(mech.node.hc.Host.Registry(), mech.node.name, bag) {
		if !verifies(e) {
			t.Fatalf("the node merged an entry that does not verify: %+v", e)
		}
		bed.notAhead(t, "the node merged", e)
	}
	bed.refChecks += referenceArrive(ref.node, bag)
	bed.sameLedgers(t, "node after arrival", mech.node.led, ref.node.led)
	if terminal {
		return
	}

	carried := departTo(t, mech.node, mech.recv.name, bag)
	want := referenceDepart(ref.node, bag)
	for i := range bag {
		if _, ok := referenceAdmits(ref.node, &bag[i]); ok {
			bed.refChecks++
		}
	}
	if len(want) >= maxGossipEntries {
		t.Fatalf("the reference bag holds %d entries: the cap binds, and the test no longer compares like with like", len(want))
	}
	for _, e := range carried {
		if !verifies(e) {
			t.Fatalf("an entry that does not verify was carried: %+v", e)
		}
		bed.notAhead(t, "carried", e)
		if !slices.ContainsFunc(want, func(w GossipEntry) bool { return sameEntry(e, w) }) {
			t.Fatalf("carried an entry the reference does not: %+v", e)
		}
	}
	for _, w := range want {
		if slices.ContainsFunc(carried, func(e GossipEntry) bool { return sameEntry(e, w) }) {
			continue
		}
		bed.dropped++
		if !slices.ContainsFunc(carried, func(e GossipEntry) bool { return e.Observer != mech.recv.name && bed.outweighs(e, w) }) {
			t.Fatalf("dropped %+v, which no carried entry the receiver merges outweighs", w)
		}
	}
	bed.sameLedgers(t, "node after departure", mech.node.led, ref.node.led)

	for _, e := range mech.recv.g.mergeVerified(mech.recv.hc.Host.Registry(), mech.recv.name, carried) {
		if !verifies(e) {
			t.Fatalf("the receiver merged an entry that does not verify: %+v", e)
		}
		bed.notAhead(t, "the receiver merged", e)
	}
	bed.refChecks += referenceArrive(ref.recv, want)
	bed.sameLedgers(t, "receiver", mech.recv.led, ref.recv.led)
}

// notAhead fails when e is dated more than a 64th of the half-life past
// the bed's clock, with decay on.
func (bed *domBed) notAhead(t testing.TB, what string, e GossipEntry) {
	t.Helper()
	if ahead := time.Unix(0, e.AtUnixNano).Sub(bed.now()); bed.halfLife > 0 && ahead > bed.halfLife/64 {
		t.Fatalf("%s a claim dated %v ahead, past the allowance of %v: %+v", what, ahead, bed.halfLife/64, e)
	}
}

// claimValue is what ledger l merges claim e to at time at; 0 when it
// refuses the claim.
func claimValue(l *Ledger, e GossipEntry, at time.Time) float64 {
	c, ok := l.claim(e.Suspicion, e.AtUnixNano, at.UnixNano())
	if !ok {
		return 0
	}
	return c.value(at.UnixNano()) * gossipDamping
}

// outweighs reports whether a receiver on the bed's clock, from now on,
// merges claim e to at least what it merges claim w to, to within the
// merge slack. Both claims read flat until their dates and decay at one
// rate after, so comparing them now, at each date still ahead and once
// past both covers every later time.
func (bed *domBed) outweighs(e, w GossipEntry) bool {
	if e.Host != w.Host {
		return false
	}
	l, now := bed.mech.node.led, bed.now()
	eAt, wAt := time.Unix(0, e.AtUnixNano), time.Unix(0, w.AtUnixNano)
	for _, at := range []time.Time{now, eAt, wAt, now.Add(4 * bed.span)} {
		if at.Before(now) {
			continue
		}
		if claimValue(l, e, at) < claimValue(l, w, at)*(1-mergeSlack) {
			return false
		}
	}
	return true
}

// sameLedgers compares every subject's suspicion in got and want, bit
// for bit, now and at five later times.
func (bed *domBed) sameLedgers(t testing.TB, where string, got, want *Ledger) {
	t.Helper()
	start := *bed.clock
	defer func() { *bed.clock = start }()
	for _, later := range []time.Duration{0, time.Second, bed.span / 7, bed.span, 3 * bed.span} {
		*bed.clock = start.Add(later)
		for _, s := range bed.subjects {
			if g, w := got.Suspicion(s), want.Suspicion(s); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s, %v later: %s at %v, the reference at %v", where, later, s, g, w)
			}
		}
	}
}

func TestDominanceKeepsLedgers(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var dropped, refChecks, needed, dominated int64
	for trial := 0; trial < 16; trial++ {
		halfLife := time.Duration(2+rng.Intn(30)) * time.Minute
		if trial%4 == 3 {
			halfLife = -1 // decay off
		}
		bed := newDomBed(t, halfLife, 3+rng.Intn(4), 2+rng.Intn(4))
		for round := 0; round < 40; round++ {
			*bed.clock = bed.clock.Add(time.Duration(rng.Int63n(int64(bed.span) / 3)))
			if rng.Intn(4) == 0 {
				bed.observe(bed.subjects[rng.Intn(len(bed.subjects)-1)], rng.Float64()*12)
			}
			bag, _ := bed.randomBag(rng)
			bed.hop(t, bag, rng.Intn(4) == 0)
		}
		dropped += int64(bed.dropped)
		refChecks += int64(bed.refChecks)
		for _, n := range []*exNode{bed.mech.node, bed.mech.recv} {
			needed += n.g.verifyMisses.Load() + n.g.verifyHits.Load()
		}
		dominated += bed.mech.node.g.claimsDominated.Load() + bed.mech.recv.g.claimsDominated.Load()
	}
	t.Logf("%d entries the reference carried were dropped, %d claims dominated; %d signatures needed (checked or vouched for by the memo), %d checked by the reference",
		dropped, dominated, needed, refChecks)
	if dropped < 200 || dominated < 400 || needed >= refChecks {
		t.Fatalf("%d dropped, %d dominated, %d signatures needed against %d: the bags no longer exercise dominance", dropped, dominated, needed, refChecks)
	}
}

// TestCapKeepsDominators is the binding cap (exception 3 of the
// invariant): above the merge cap a dominator can rank below the entry
// it displaced, and must still travel wherever that entry would have.
// b claims 100 about x and ranks first; a, a second newer, claims 8.5,
// clamps alike and dominates b, and ranks last behind 65 entries that
// fill the cap.
func TestCapKeepsDominators(t *testing.T) {
	ctx := context.Background()
	_, now := testClock(time.Unix(9_500_000, 0))
	nodes := newClockedBed(t, DefaultHalfLife, now, "node", "oa", "ob", "of")
	node, oa, ob, of := nodes[0], nodes[1], nodes[2], nodes[3]
	a := signedBy(oa.hc, "x", 8.5, now().Add(-time.Minute))
	b := signedBy(ob.hc, "x", 100, now().Add(-time.Minute-time.Second))
	bag := []GossipEntry{b, a}
	for i := len(bag); i < maxGossipEntries; i++ {
		bag = append(bag, signedBy(of.hc, fmt.Sprintf("f%d", i), 50, now()))
	}
	for i := 0; i < 3; i++ {
		node.led.Observe(fmt.Sprintf("g%d", i), false, 60)
	}
	if want := referenceDepart(node, bag); !sameEntry(want[0], b) || slices.ContainsFunc(want, func(e GossipEntry) bool { return sameEntry(e, a) }) {
		t.Fatal("checking everything no longer carries b and cuts a: the test does not bind the cap where it means to")
	}
	ag := mkGossipAgent(t)
	setEntries(t, ag, bag)
	if err := node.g.PrepareDeparture(ctx, node.hc, ag, nil); err != nil {
		t.Fatal(err)
	}
	data, _ := ag.GetBaggage(GossipMechanismName)
	carried := decodeEntries(data)
	if len(carried) != maxGossipEntries {
		t.Fatalf("%d entries carried, want the cap's %d", len(carried), maxGossipEntries)
	}
	if !slices.ContainsFunc(carried, func(e GossipEntry) bool { return sameEntry(e, a) }) {
		t.Fatal("b was dropped as dominated by a, and the cap then cut a: nothing about x travels")
	}
}

// relayBed is a node about to depart with a bag holding oa's claim a
// about x and ob's relay b of it, which a dominates.
func relayBed(t *testing.T) (node, oa, ob *exNode, bag []GossipEntry, now func() time.Time) {
	t.Helper()
	_, now = testClock(time.Unix(9_700_000, 0))
	nodes := newClockedBed(t, DefaultHalfLife, now, "node", "oa", "ob")
	node, oa, ob = nodes[0], nodes[1], nodes[2]
	a := signedBy(oa.hc, "x", 4, now().Add(-time.Minute))
	b := signedBy(ob.hc, "x", gossipDamping*4, now().Add(-time.Minute+time.Second))
	ca, _ := node.led.claim(a.Suspicion, a.AtUnixNano, now().UnixNano())
	cb, _ := node.led.claim(b.Suspicion, b.AtUnixNano, now().UnixNano())
	if !ca.outweighs(cb) {
		t.Fatal("a does not dominate b: the bed no longer tests what it means to")
	}
	return node, oa, ob, []GossipEntry{a, b}, now
}

// departTo runs an agent carrying bag through node's departure towards
// next and returns what it carries.
func departTo(t testing.TB, node *exNode, next string, bag []GossipEntry) []GossipEntry {
	t.Helper()
	enc, err := encodeEntries(bag)
	if err != nil {
		t.Fatal(err)
	}
	ag := mkGossipAgent(t)
	ag.SetBaggage(GossipMechanismName, enc)
	rec := &host.SessionRecord{Outcome: agentlang.Outcome{Kind: agentlang.OutcomeMigrated, MigrateHost: next}}
	if err := node.g.PrepareDeparture(context.Background(), node.hc, ag, rec); err != nil {
		t.Fatal(err)
	}
	data, _ := ag.GetBaggage(GossipMechanismName)
	return decodeEntries(data)
}

// TestNextHopHearsRelaysOfItsOwnClaims: a receiver drops the claims it
// observed itself, so a claim the next hop observed must not displace
// another observer's relay of it. oa signed a and has since lost the
// record behind it (its ledger is empty, as after a restart without a
// data dir). Towards any other host the node carries a alone; towards
// oa it carries b too, and oa relearns x from b as it did before
// dominance.
func TestNextHopHearsRelaysOfItsOwnClaims(t *testing.T) {
	node, oa, _, bag, now := relayBed(t)
	if got := departTo(t, node, "elsewhere", bag); len(got) != 1 || !sameEntry(got[0], bag[0]) {
		t.Fatalf("towards another host: carried %+v, want a alone", got)
	}
	got := departTo(t, node, oa.name, bag)
	if len(got) != 2 {
		t.Fatalf("towards oa: carried %+v, want a and b", got)
	}
	oa.g.mergeVerified(oa.hc.Host.Registry(), oa.name, got)
	b := bag[1]
	if got, want := oa.led.Suspicion("x"), claimValue(oa.led, b, now()); got != want {
		t.Fatalf("oa reads x at %v, want b's %v", got, want)
	}
}

// TestDominanceAssumesSharedKeys pins the key-set exception of the
// invariant (DESIGN §5): dominance is decided at the sender, which
// assumes every receiver holds every observer's key. recv has loaded
// ob's key but not oa's, as a host whose -keydir has not been reloaded:
// it fails a, and b, which a displaced and recv could have verified, is
// not in the bag. Once recv registers oa's key, the same bag raises x.
func TestDominanceAssumesSharedKeys(t *testing.T) {
	node, oa, ob, bag, now := relayBed(t)
	reg := sigcrypto.NewRegistry()
	keys, err := sigcrypto.GenerateKeyPair("recv")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := host.New(host.Config{Name: "recv", Keys: keys, Registry: reg}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(ob.name, ob.hc.Host.Keys().Public()); err != nil {
		t.Fatal(err)
	}
	led := NewLedger(LedgerConfig{HalfLife: DefaultHalfLife, Now: now})
	recv := NewGossip(led)
	recv.SetClock(now)

	carried := departTo(t, node, "recv", bag)
	if len(carried) != 1 || !sameEntry(carried[0], bag[0]) {
		t.Fatalf("carried %+v, want a alone", carried)
	}
	if err := reg.VerifyDigest(bag[1].bindingDigest(), bag[1].Sig); err != nil {
		t.Fatalf("recv cannot verify b either (%v): the test no longer shows what dominance costs it", err)
	}
	if recv.mergeVerified(reg, "recv", carried); led.Suspicion("x") != 0 {
		t.Fatalf("recv merged a without oa's key: x at %v", led.Suspicion("x"))
	}
	if err := reg.Register(oa.name, oa.hc.Host.Keys().Public()); err != nil {
		t.Fatal(err)
	}
	if recv.mergeVerified(reg, "recv", carried); led.Suspicion("x") == 0 {
		t.Fatal("recv holds oa's key now and still did not merge a")
	}
}

// fuzzBag turns decoded entries into a bag over the bed's principals:
// observer and host are the principals of the decoded names, or picked
// by the names' length when the bed has no such principal, a
// positive finite suspicion is quantized to 1/1024 in (0, 32] and the
// time to whole milliseconds from four half-lives back to one ahead
// (so that two claims are either tied exactly or apart by far more than
// the merge slack), and each entry is signed by its observer unless the
// first byte of its signature is odd: then it keeps the signature it
// came with.
func (bed *domBed) fuzzBag(decoded []GossipEntry) []GossipEntry {
	h := int64(bed.span)
	bag := make([]GossipEntry, 0, len(decoded))
	pick := func(name string, names []string) int {
		if i := slices.Index(names, name); i >= 0 {
			return i
		}
		return len(name) % len(names)
	}
	var observers []string
	for _, o := range bed.observers {
		observers = append(observers, o.name)
	}
	for _, d := range decoded {
		o := bed.observers[pick(d.Observer, observers)]
		e := GossipEntry{Observer: o.name, Host: bed.subjects[pick(d.Host, bed.subjects)], Suspicion: d.Suspicion}
		if s := d.Suspicion; s > 0 && !math.IsInf(s, 0) {
			e.Suspicion = float64(math.Float64bits(s)%32768+1) / 1024
		}
		ms := int64(time.Millisecond)
		e.AtUnixNano = bed.now().UnixNano() - 4*h + int64(uint64(d.AtUnixNano)%uint64(5*h/ms))*ms
		if len(d.Sig.Sig) > 0 && d.Sig.Sig[0]&1 == 1 {
			e.Sig = d.Sig
			e.Sig.Signer = o.name
		} else {
			e.Sig = o.hc.Host.Keys().SignDigest(e.bindingDigest())
		}
		bag = append(bag, e)
	}
	return bag
}

// FuzzGossipFilter runs the property of TestDominanceKeepsLedgers on
// bags the fuzzer writes: an encoded entry list, mapped onto a fresh
// bed (fuzzBag), one hop through both copies.
func FuzzGossipFilter(f *testing.F) {
	const halfLife = 10 * time.Minute
	seed := newDomBed(f, halfLife, 4, 3)
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 8; i++ {
		bag, forged := seed.randomBag(rng)
		for j := range bag {
			// fuzzBag reads the first signature byte as the forged flag.
			bag[j].Sig.Sig[0] = bag[j].Sig.Sig[0]&^1 | byte(btoi(forged[j]))
		}
		enc, err := encodeEntries(bag)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := decodeEntriesBounded(data, maxGossipEntries)
		if err != nil {
			return
		}
		bed := newDomBed(t, halfLife, 4, 3)
		bed.observe("h0", 3)
		bed.observe("h1", 2*maxMergeSuspicion)
		bag := bed.fuzzBag(decoded)
		bed.strengthOrders(t, bag)
		bed.hop(t, bag, false)
	})
}

// strengthOrders fails when strength ranks an admitted claim of bag
// below one it outweighs. The margin is rounding: log2 v + at/h sums
// terms near 1.5e4 here, a few 1e-12 apart in the last bit, and two
// claims that close may be picked in either order, which keeps both.
func (bed *domBed) strengthOrders(t testing.TB, bag []GossipEntry) {
	t.Helper()
	var claims []curve
	for i := range bag {
		if c, ok := referenceAdmits(bed.mech.node, &bag[i]); ok {
			claims = append(claims, c)
		}
	}
	for _, a := range claims {
		for _, b := range claims {
			if a.outweighs(b) && a.strength() < b.strength()-1e-9 {
				t.Fatalf("%+v outweighs %+v but ranks below it: strength %v < %v", a, b, a.strength(), b.strength())
			}
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestAheadClaimDominatesNothing pins the date rule of dominance: a
// claim dated ahead of the departing node's clock, though inside the
// allowance, outweighs a claim with a sound date and still does not
// displace it. A receiver whose clock lags the node's by a little more
// than the rest of the allowance refuses the dated-ahead claim, and
// reads x from the other.
func TestAheadClaimDominatesNothing(t *testing.T) {
	clock, now := testClock(time.Unix(9_800_000, 0))
	nodes := newClockedBed(t, DefaultHalfLife, now, "node", "oa", "ob", "recv")
	node, oa, ob, recv := nodes[0], nodes[1], nodes[2], nodes[3]
	cell := time.Duration(curve{h: int64(DefaultHalfLife)}.cell())
	ahead := signedBy(oa.hc, "x", 4, now().Add(cell/2))
	sound := signedBy(ob.hc, "x", 3, now().Add(-time.Second))
	ca, _ := node.led.claim(ahead.Suspicion, ahead.AtUnixNano, now().UnixNano())
	cs, _ := node.led.claim(sound.Suspicion, sound.AtUnixNano, now().UnixNano())
	if !ca.outweighs(cs) {
		t.Fatal("the dated-ahead claim does not outweigh the other: the test no longer tests the date rule")
	}
	carried := departTo(t, node, recv.name, []GossipEntry{ahead, sound})
	if !slices.ContainsFunc(carried, func(e GossipEntry) bool { return sameEntry(e, sound) }) {
		t.Fatalf("carried %+v: the claim dated ahead displaced the one with a sound date", carried)
	}
	*clock = now().Add(-cell/2 - time.Second)
	recv.g.mergeVerified(recv.hc.Host.Registry(), recv.name, carried)
	if got, want := recv.led.Suspicion("x"), claimValue(recv.led, sound, now()); got != want {
		t.Fatalf("the lagging receiver reads x at %v, want the sound claim's %v", got, want)
	}
}
