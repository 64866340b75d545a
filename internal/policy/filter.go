package policy

import (
	"cmp"
	"crypto/sha256"
	"slices"
	"strings"

	"repro/internal/sigcrypto"
)

// The gossip filter: the structural checks of admissible and the
// ledger's admission of the claim (claimed), then each signature under
// the observer's registered key, through the verify memo, in one
// VerifyBatch. Arrival checks every admitted entry that could raise a
// record (Gossip.verified); departure also leaves out what the bag it
// builds makes redundant (claimFilter.run).
//
// Most of what a bag carries about a host adds nothing to what another
// entry of the same bag already says: a relay (an observer re-signing,
// damped, a claim it merged) travels beside the claim it came from, and
// a departing node's own extract of a record it raised from the bag
// restates, damped, the claim that raised it. At departure such an
// entry is neither checked, signed nor carried.
//
// Every claim is a point of a decay curve (curve.go), clamped to the
// merge cap, and a receiver merges the curve read at its time. A claim a
// dominates a claim b when a is about the same host, is not dated after
// the judging node's clock, and outweighs b: read at every time, a says
// at least what b does, whatever the receiver's clock, and max-merge
// makes b redundant. The date rule keeps the dominator admissible at
// every receiver whose clock lags this one by less than the allowance
// (curve.cell): a claim dated ahead, inside the allowance here, could be
// refused further on and take the claims it displaced with it. The
// receiver's merge rule is untouched.
//
// That presumes the receiver merges a. A receiver drops the claims it
// observed itself (admissible), so a claim whose observer is the agent's
// next hop dominates nothing: the bag still brings that host the relays
// of its own claims it holds, should the host have lost the record
// behind them (DESIGN §5, exception 5).
// And a receiver that lacks a's key (a -keydir not yet reloaded) fails
// a: the rule assumes one key set fleet-wide.
//
// Arrival applies no dominance. The sender has already dropped what its
// bag made redundant, so arrival would find little to leave out (under
// 1 % of its checks on the yardstick's workloads), and leaving it out
// would change how many raises a ledger counts.

// bagOrder is the order of a departing bag, whose head the
// maxGossipEntries cap keeps: most suspect first, then by host and
// observer.
func bagOrder(a, b *GossipEntry) int {
	if c := cmp.Compare(b.Suspicion, a.Suspicion); c != 0 {
		return c
	}
	if c := strings.Compare(a.Host, b.Host); c != 0 {
		return c
	}
	return strings.Compare(a.Observer, b.Observer)
}

type checkState uint8

const (
	unchecked checkState = iota
	valid                // verified, vouched for by the verify memo, or this node's own
	invalid              // failed its signature check
)

type mark uint8

const (
	unmarked  mark = iota
	accepted       // carried, once every accepted claim is valid
	dominated      // an accepted claim dominates it
	shadowed       // a newer entry of its (observer, host) pair heads it
)

// candidate is one admitted claim before the filter.
type candidate struct {
	e     *GossipEntry
	c     curve
	own   bool
	state checkState

	// Set by lineUp, at departure.
	strength float64
	// order is the claim's position in bagOrder.
	order int
	// group is the index in claimFilter.groups of the claim's (observer,
	// host) pair when the bag holds more than one entry of it; -1
	// otherwise.
	group int

	// Set by pick.
	mark mark
	// rank is the best order among the claim and the claims it
	// dominated: an accepted claim is carried at the place of the best
	// claim it stands for, so the cap never cuts a dominator while the
	// claim it displaced would have travelled.
	rank int
}

// claimFilter is one run of the gossip filter over a list of claims.
type claimFilter struct {
	m    *Gossip
	now  int64
	cand []candidate

	// The rest serve departure alone.
	//
	// next is the agent's next hop when known: a claim it observed
	// dominates nothing, because it will not merge that claim.
	next string
	// strongest indexes cand, strongest claim first, this node's own
	// claims first among equals.
	strongest []int
	// groups lists each (observer, host) pair the bag carries more than
	// one entry of, newest first and the first to arrive first among
	// equals: compaction carries the first of them that verifies. heads
	// holds each group's first member not known invalid, as of the last
	// pick.
	groups [][]int
	heads  []int
	// acc is the last pick's accepted claims.
	acc []int
}

// newFilter lines up the admitted claims among entries that wanted
// accepts (all of them when wanted is nil), after own: this node's own
// unsigned claims, valid without a check.
func (m *Gossip) newFilter(self string, own, entries []GossipEntry, wanted func(host string, c curve, now int64) bool) *claimFilter {
	f := &claimFilter{m: m, now: m.ledger.now()}
	f.cand = make([]candidate, 0, len(own)+len(entries))
	for i := range own {
		if c, ok := m.ledger.claim(own[i].Suspicion, own[i].AtUnixNano, f.now); ok {
			f.cand = append(f.cand, candidate{e: &own[i], c: c, own: true, state: valid})
		}
	}
	for i := range entries {
		e := &entries[i]
		if !admissible(e, self) {
			continue
		}
		if c, ok := m.ledger.claim(e.Suspicion, e.AtUnixNano, f.now); ok && (wanted == nil || wanted(e.Host, c, f.now)) {
			f.cand = append(f.cand, candidate{e: e, c: c})
		}
	}
	return f
}

// checkAll checks every candidate not yet checked.
func (f *claimFilter) checkAll(reg *sigcrypto.Registry) bool {
	var need []int
	for i := range f.cand {
		if f.cand[i].state == unchecked {
			need = append(need, i)
		}
	}
	return f.check(reg, need)
}

// run is the departure filter; it returns the claims to carry. Each
// (observer, host) pair is compacted to its newest valid entry, then
// the pick goes strongest first and accepts every claim no claim
// accepted before it dominates, taking unchecked claims as valid, and
// the signatures the picks rest on are checked in one VerifyBatch. If
// every one passes, the picks are valid and everything left out is
// dominated by one of them or compacted behind a newer valid entry of
// its pair. If one fails, every claim still unchecked is checked in a
// second batch and the pick runs again with every state known: junk
// never suppresses a genuine claim, and a bag of junk costs at most the
// checks verifying every entry did.
func (f *claimFilter) run(reg *sigcrypto.Registry) []int {
	f.lineUp()
	f.pick()
	var need []int
	for _, i := range f.acc {
		if f.cand[i].state == unchecked {
			need = append(need, i)
		}
	}
	for g, h := range f.heads {
		if f.probe(g, h) {
			need = append(need, h)
		}
	}
	if !f.check(reg, need) {
		f.checkAll(reg)
		f.pick()
	}
	n := 0
	for i := range f.cand {
		if c := &f.cand[i]; c.mark == dominated && (c.own || c.state == unchecked) {
			n++
		}
	}
	f.m.claimsDominated.Add(int64(n))
	return f.acc
}

// lineUp orders the candidates for run: by strength, by bagOrder, and
// by (observer, host) pair for compaction. Own claims pair with no
// arriving entry: admissible drops every entry observed by this node.
func (f *claimFilter) lineUp() {
	idx := make([]int, len(f.cand))
	for i := range f.cand {
		idx[i] = i
		f.cand[i].strength = f.cand[i].c.strength()
		f.cand[i].group = -1
	}
	f.strongest = slices.Clone(idx)
	slices.SortStableFunc(f.strongest, func(i, j int) int { return cmp.Compare(f.cand[j].strength, f.cand[i].strength) })
	slices.SortStableFunc(idx, func(i, j int) int { return bagOrder(f.cand[i].e, f.cand[j].e) })
	for pos, i := range idx {
		f.cand[i].order = pos
	}
	slices.SortStableFunc(idx, func(i, j int) int {
		a, b := f.cand[i].e, f.cand[j].e
		if c := strings.Compare(a.Observer, b.Observer); c != 0 {
			return c
		}
		if c := strings.Compare(a.Host, b.Host); c != 0 {
			return c
		}
		if c := cmp.Compare(b.AtUnixNano, a.AtUnixNano); c != 0 {
			return c
		}
		return cmp.Compare(i, j)
	})
	for lo := 0; lo < len(idx); {
		hi := lo + 1
		for hi < len(idx) && f.cand[idx[hi]].e.Observer == f.cand[idx[lo]].e.Observer && f.cand[idx[hi]].e.Host == f.cand[idx[lo]].e.Host {
			hi++
		}
		if hi-lo > 1 {
			for _, i := range idx[lo:hi] {
				f.cand[i].group = len(f.groups)
			}
			f.groups = append(f.groups, idx[lo:hi])
		}
		lo = hi
	}
	f.heads = make([]int, len(f.groups))
}

// pick selects the accepted claims, taking unchecked claims as valid.
func (f *claimFilter) pick() {
	for g, members := range f.groups {
		f.heads[g] = -1
		for _, i := range members {
			if f.cand[i].state != invalid {
				f.heads[g] = i
				break
			}
		}
	}
	f.acc = f.acc[:0]
	for _, i := range f.strongest {
		c := &f.cand[i]
		c.mark, c.rank = unmarked, c.order
		if c.state == invalid {
			continue
		}
		if d := f.dominator(c); d >= 0 {
			c.mark = dominated
			f.cand[d].rank = min(f.cand[d].rank, c.order)
			continue
		}
		if c.group >= 0 && f.heads[c.group] != i {
			c.mark = shadowed
			continue
		}
		c.mark = accepted
		f.acc = append(f.acc, i)
	}
}

// dominator returns the first claim accepted so far that dominates c,
// or -1. A claim the next hop observed dominates nothing.
func (f *claimFilter) dominator(c *candidate) int {
	for _, j := range f.acc {
		a := &f.cand[j]
		if a.e.Host == c.e.Host && a.e.Observer != f.next && a.c.at <= f.now && a.c.outweighs(c.c) {
			return j
		}
	}
	return -1
}

// probe reports whether the head h of group g must be checked although
// a claim dominates it: compaction drops the rest of its pair only
// behind a valid head, so while h is unchecked, a member of its pair
// that nothing dominates depends on h's signature.
func (f *claimFilter) probe(g, h int) bool {
	if h < 0 || f.cand[h].mark != dominated || f.cand[h].state != unchecked {
		return false
	}
	for _, i := range f.groups[g] {
		if f.cand[i].mark == shadowed {
			return true
		}
	}
	return false
}

// check resolves the signatures of the candidates need lists: the
// verify memo vouches for what this node has verified before, and the
// rest go through one VerifyBatch. It reports whether every one of them
// is valid.
func (f *claimFilter) check(reg *sigcrypto.Registry, need []int) bool {
	var fresh []int
	var keys [][sha256.Size]byte
	var batch []sigcrypto.BatchEntry
	hits := 0
	for _, i := range need {
		c := &f.cand[i]
		if c.state != unchecked {
			continue
		}
		d := c.e.bindingDigest()
		k := seenKey(d, c.e.Sig.Sig)
		if _, ok := f.m.seen.get(k); ok {
			c.state = valid
			hits++
			continue
		}
		fresh = append(fresh, i)
		keys = append(keys, k)
		batch = append(batch, sigcrypto.DigestEntry(d, c.e.Sig))
	}
	f.m.verifyHits.Add(int64(hits))
	f.m.verifyMisses.Add(int64(len(batch)))
	// The only place a gossip signature is checked (nil means every entry
	// verified; failures are re-checked through the scalar Verify, so
	// per-signer attribution is the scalar path's).
	errs := reg.VerifyBatch(batch)
	ok := true
	for j, i := range fresh {
		if errs == nil || errs[j] == nil {
			f.cand[i].state = valid
			f.m.seen.put(keys[j], struct{}{})
		} else {
			f.cand[i].state = invalid
			ok = false
		}
	}
	return ok
}
