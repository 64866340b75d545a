package policy

import "math"

// curve is one point (v, at) of a suspicion decay curve: the curve reads
// v until at and halves every half-life h after it (h ≤ 0: no decay). A
// ledger record, a peer's claim and an extract this node signs of its
// own record are all such points, and what one is worth over time — read
// at a time, against another point, in the filter's order, on the
// extract grid — is decided here and nowhere else.
type curve struct {
	v  float64
	at int64 // Unix ns
	h  int64 // half-life in ns
}

// claimed is the one way to read a peer's claim, suspicion s at
// atUnixNano, on a ledger of half-life h judging at now. It refuses
// (false) a suspicion that is not finite and positive, and a date more
// than cell() past now: a receiver on a clock in step with the
// observer's never sees one, and otherwise the claim would read
// undecayed until that date — for as long as honest hosts carry it on.
// With decay off a date carries no weight and refuses nothing. The
// value is clamped to maxMergeSuspicion: a single claim can put a host
// under full scrutiny but cannot defame it for longer than a maximal
// claim decays in.
func claimed(s float64, atUnixNano, now, h int64) (curve, bool) {
	if !(s > 0) || math.IsInf(s, 1) {
		return curve{}, false
	}
	c := curve{v: min(s, maxMergeSuspicion), at: atUnixNano, h: h}
	if h > 0 && c.at > now && uint64(c.at)-uint64(now) > uint64(c.cell()) {
		return curve{}, false
	}
	return c, true
}

// value is the curve read at now: v until its date, decayed after.
func (c curve) value(now int64) float64 {
	if c.h <= 0 || c.v == 0 || now <= c.at {
		return c.v
	}
	// The difference of two int64s fits a uint64 exactly: a date of
	// math.MinInt64 is simply very old.
	return c.v * math.Exp2(-float64(uint64(now)-uint64(c.at))/float64(c.h))
}

// outweighs reports whether c reads at least what o does at every time.
// Both read flat until their dates and decay at one rate after, so it
// is enough that c, read at o's date, is at least o's value.
func (c curve) outweighs(o curve) bool { return c.value(o.at) >= o.v }

// strength orders curves consistently with outweighs: log2 v + at/h
// (log2 v with decay off) is never lower for a curve than for one it
// outweighs. Rounding can misorder two curves of nearly equal strength,
// which at worst keeps both.
func (c curve) strength() float64 {
	s := math.Log2(c.v)
	if c.h > 0 {
		s += float64(c.at) / float64(c.h)
	}
	return s
}

// adopt is what a record that reads local at now reads after merging
// claim c: c read at now and damped, when that clears local by
// mergeSlack (true); false when the merge would raise nothing.
func (c curve) adopt(local float64, now int64) (float64, bool) {
	remote := c.value(now) * gossipDamping
	return remote, remote > local*(1+mergeSlack)
}

// cell is the extract grid step and the allowance a claim's date may
// run ahead of a receiver's clock: a 64th of the half-life, 4.7 s at
// the default five minutes. Derived, not configured.
func (c curve) cell() int64 { return max(c.h/64, 1) }

// snap is the point of a record's curve an extract of it claims at now:
// c itself, its raise point, while it is at or below the merge cap or
// decay is off, otherwise the curve read at the start of now's grid cell
// when that is later than c.
//
// A record moves along one decay curve until it is raised, and a
// receiver decays a claim from its date, so any point of the curve no
// later than now says what a re-stamped (current value, now) claim
// would — as long as the point is at or below maxMergeSuspicion. Above
// the cap a receiver clamps the claim before it decays it, so a point
// is worth less there the older it is — the raise point by up to
// h·log2(v/cap), the whole time a record of v spends above the cap.
// Sampled on the grid, a claim is signed once per cell and per raise,
// and a receiver adopts at most 2^(-1/64), 1.1 %, less than from a
// claim stamped at signing; and because every above-cap observer samples
// the same grid point, their claims about one host clamp to the same
// value and raise a receiver once per cell, not once per arrival.
func (c curve) snap(now int64) curve {
	if c.v <= maxMergeSuspicion || c.h <= 0 {
		return c
	}
	grid := now - now%c.cell()
	if grid <= c.at {
		return c
	}
	return curve{v: c.value(grid), at: grid, h: c.h}
}
