package policy

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/agent"
)

// The threat argument for what an observer signs about a host above the
// merge cap, as two properties over random schedules on a virtual
// clock. Each is checked under two claim rules: re-stamping (the
// record's current value, stamped now, signed at every departure — the
// rule before grid-stamped extracts, kept here as the reference) and
// the mechanism's own extracts. The receiver's rule is the ledger's in
// both; only what the observer signs differs.
//
//   - Hold: while an observer's first-hand record of a host is at or
//     above the quarantine threshold, every receiver that merged, within
//     T, a claim the observer made on that record's current curve (since
//     its last raise) still holds the host at or above the escalation
//     threshold. T is h·log2(0.9·cap/escalate), 3.85 half-lives at the
//     defaults, for re-stamping, and one grid cell less for extracts.
//   - Defamation bound: from a liar's claims alone an honest host drops
//     below the quarantine threshold at every receiver within two
//     half-lives of the liar's last send plus the allowance, whatever the
//     liar signs and however long honest hosts carry it on. A claim dated
//     ahead reads undecayed until its date, and a receiver refuses one
//     dated more than the allowance (one extract cell) past its clock.

// claimRule turns an observer's ledger record of subject into the claim
// it signs at a departure at now; false means nothing worth sharing.
type claimRule struct {
	name  string
	claim func(obs *exNode, subject string, now time.Time) (GossipEntry, bool)
	// holdLoss is how much sooner than T a receiver may lose its hold.
	holdLoss time.Duration
}

var claimRules = []claimRule{
	{name: "restamp", claim: restampedClaim},
	{name: "extract", claim: extractedClaim, holdLoss: time.Duration(curve{h: int64(DefaultHalfLife)}.cell())},
}

// restampedClaim is the reference rule: the record's value now, stamped
// now.
func restampedClaim(obs *exNode, subject string, now time.Time) (GossipEntry, bool) {
	s := obs.led.Suspicion(subject)
	if s < minGossipSuspicion {
		return GossipEntry{}, false
	}
	return signedBy(obs.hc, subject, s, now), true
}

// extractedClaim is the mechanism's own extract of the record.
func extractedClaim(obs *exNode, subject string, _ time.Time) (GossipEntry, bool) {
	for _, e := range obs.g.extracts(obs.led.rows(), obs.name, obs.hc.Host.Keys(), gossipShareLimit, nil) {
		if e.Host == subject {
			return e, true
		}
	}
	return GossipEntry{}, false
}

// randomGap is a step of the virtual clock: none, inside one grid
// cell, a few cells, or up to half a half-life.
func randomGap(rng *rand.Rand, halfLife time.Duration) time.Duration {
	cell := curve{h: int64(halfLife)}.cell()
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return time.Duration(rng.Int63n(cell))
	case 2:
		return time.Duration(rng.Int63n(8 * cell))
	}
	return time.Duration(rng.Int63n(int64(halfLife) / 2))
}

func TestGossipHoldsCheaterAboveCap(t *testing.T) {
	const halfLife = DefaultHalfLife
	const quarantine, escalate = DefaultQuarantineThreshold, DefaultEscalateThreshold
	hold := time.Duration(float64(halfLife) * math.Log2(gossipDamping*maxMergeSuspicion/escalate))
	weights := []float64{1, 3, 9, 30, 100}
	for _, rule := range claimRules {
		t.Run(rule.name, func(t *testing.T) {
			T := hold - rule.holdLoss
			rng := rand.New(rand.NewSource(29))
			var checks, atEdge int
			worst := math.Inf(1)
			for trial := 0; trial < 40; trial++ {
				clock, now := testClock(time.Unix(7_000_000, rng.Int63n(int64(time.Second))))
				nodes := newClockedBed(t, halfLife, now, "observer", "r0", "r1", "r2")
				obs, receivers := nodes[0], nodes[1:]
				raises := 0
				// heard[i] is when receiver i last merged a claim, and epoch[i]
				// how many raises the observer's record had seen then.
				heard := make([]time.Time, len(receivers))
				epoch := make([]int, len(receivers))
				check := func() {
					if obs.led.Suspicion("H") < quarantine {
						return
					}
					for i, r := range receivers {
						if heard[i].IsZero() || epoch[i] != raises || now().Sub(heard[i]) > T {
							continue
						}
						checks++
						if now().Sub(heard[i]) == T {
							atEdge++
						}
						got := r.led.Suspicion("H")
						worst = math.Min(worst, got/escalate)
						if got < escalate*(1-1e-9) {
							t.Fatalf("trial %d: observer at %v, receiver %s at %v below %v, %v after the claim it merged",
								trial, obs.led.Suspicion("H"), r.name, got, escalate, now().Sub(heard[i]))
						}
					}
				}
				for step := 0; step < 120; step++ {
					switch rng.Intn(6) {
					case 0: // a first-hand raise, from just over the threshold to far above the cap
						obs.led.Observe("H", false, weights[rng.Intn(len(weights))]*(0.5+rng.Float64()))
						raises++
					case 1, 2: // a departure whose claim one receiver merges
						if e, ok := rule.claim(obs, "H", now()); ok {
							i := rng.Intn(len(receivers))
							r := receivers[i]
							r.g.mergeVerified(r.hc.Host.Registry(), r.name, []GossipEntry{e})
							heard[i], epoch[i] = now(), raises
						}
					case 3: // the edge: exactly T after some receiver's claim
						if i := rng.Intn(len(receivers)); !heard[i].IsZero() && now().Before(heard[i].Add(T)) {
							*clock = heard[i].Add(T)
						}
					}
					check()
					*clock = clock.Add(randomGap(rng, halfLife))
					check()
				}
			}
			t.Logf("T = %v: %d checks, %d exactly at T, weakest receiver at %.6f × escalate", T, checks, atEdge, worst)
			if atEdge < 20 {
				t.Fatalf("only %d checks at the edge: the schedule no longer tests T", atEdge)
			}
		})
	}
}

func TestGossipDefamationBound(t *testing.T) {
	ctx := context.Background()
	const halfLife = DefaultHalfLife
	const quarantine = DefaultQuarantineThreshold
	const k = 2
	allowance := time.Duration(curve{h: int64(halfLife)}.cell())
	lies := []float64{maxMergeSuspicion, 1e3, 1e300, math.MaxFloat64}
	for _, rule := range claimRules {
		t.Run(rule.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			reached := 0
			for trial := 0; trial < 40; trial++ {
				clock, now := testClock(time.Unix(8_000_000, rng.Int63n(int64(time.Second))))
				nodes := newClockedBed(t, halfLife, now, "liar", "r0", "r1", "r2", "r3")
				liar, receivers := nodes[0], nodes[1:]
				agents := []*agent.Agent{mkGossipAgent(t), mkGossipAgent(t), mkGossipAgent(t)}
				// visit runs an agent through a receiver: arrival merges
				// what raises, departure re-carries every entry that
				// verifies — the liar's too — beside the receiver's own
				// extracts. wander sends a random agent to a random one.
				visit := func(ag *agent.Agent, r *exNode) {
					if _, err := r.g.CheckAfterSession(ctx, r.hc, ag); err != nil {
						t.Fatal(err)
					}
					if err := r.g.PrepareDeparture(ctx, r.hc, ag, nil); err != nil {
						t.Fatal(err)
					}
				}
				wander := func() { visit(agents[rng.Intn(len(agents))], receivers[rng.Intn(len(receivers))]) }
				// last is when the liar last sent a claim, whatever date
				// it put on it.
				var last time.Time
				lie := func(ag *agent.Agent, e GossipEntry) {
					data, _ := ag.GetBaggage(GossipMechanismName)
					bag := append(decodeEntries(data), e)
					setEntries(t, ag, bag[max(0, len(bag)-maxGossipEntries):])
					last = now()
					visit(ag, receivers[rng.Intn(len(receivers))])
				}
				if trial%4 == 0 {
					// The one-shot defamer: one maximal claim, then silence.
					e := signedBy(liar.hc, "victim", math.MaxFloat64, now())
					for _, ag := range agents {
						lie(ag, e)
					}
				} else {
					for step := 0; step < 40; step++ {
						switch ag := agents[rng.Intn(len(agents))]; rng.Intn(4) {
						case 0: // a bogus first-hand record, however large
							liar.led.Observe("victim", false, lies[rng.Intn(len(lies))])
						case 1: // what the rule signs from that record
							if e, ok := rule.claim(liar, "victim", now()); ok {
								lie(ag, e)
							}
						case 2: // a hand-made claim, dated up to a half-life back or three ahead
							at := now().Add(time.Duration(rng.Int63n(int64(4*halfLife))) - halfLife)
							lie(ag, signedBy(liar.hc, "victim", lies[rng.Intn(len(lies))], at))
						case 3:
							wander()
						}
						*clock = clock.Add(randomGap(rng, halfLife))
					}
				}
				if last.IsZero() {
					continue
				}
				for _, r := range receivers {
					if r.led.Suspicion("victim") >= quarantine {
						reached++
						break
					}
				}
				// The liar is silent from here on; its claims keep travelling.
				deadline := last.Add(allowance + k*halfLife)
				for gap := randomGap(rng, halfLife); !now().Add(gap).After(deadline); gap = randomGap(rng, halfLife) {
					*clock = clock.Add(gap)
					wander()
				}
				*clock = deadline // exactly k half-lives after, then on
				for end := deadline.Add(halfLife); !now().After(end); *clock = clock.Add(randomGap(rng, halfLife)) {
					for _, r := range receivers {
						if got := r.led.Suspicion("victim"); got >= quarantine {
							t.Fatalf("trial %d: %s holds the victim at %v, %v after the liar last sent a claim", trial, r.name, got, now().Sub(last))
						}
					}
					wander()
				}
			}
			t.Logf("%d of 40 trials put the victim at or above quarantine somewhere", reached)
			if reached < 20 {
				t.Fatalf("only %d trials defamed anyone: the schedule no longer tests the bound", reached)
			}
		})
	}
}

// TestFutureDatedClaimRefused: a claim reads undecayed until its date,
// and honest hosts carry on what they admit, so a receiver refuses a
// claim dated more than the allowance (one extract cell) past its
// clock. A liar signs one claim about the victim dated a thousand
// half-lives ahead, and the agent carrying it visits r0 and r1 at 5,
// 10, 20 and 50 minutes: neither merges it nor carries it on. A claim
// dated inside the allowance is admitted and decays from its own date.
func TestFutureDatedClaimRefused(t *testing.T) {
	ctx := context.Background()
	const halfLife = DefaultHalfLife
	clock, now := testClock(time.Unix(8_500_000, 0))
	nodes := newClockedBed(t, halfLife, now, "liar", "r0", "r1")
	liar, receivers := nodes[0], nodes[1:]
	visit := func(ag *agent.Agent, r *exNode) {
		if _, err := r.g.CheckAfterSession(ctx, r.hc, ag); err != nil {
			t.Fatal(err)
		}
		if err := r.g.PrepareDeparture(ctx, r.hc, ag, nil); err != nil {
			t.Fatal(err)
		}
	}
	about := func(ag *agent.Agent, subject string) []GossipEntry {
		data, _ := ag.GetBaggage(GossipMechanismName)
		var out []GossipEntry
		for _, e := range decodeEntries(data) {
			if e.Host == subject {
				out = append(out, e)
			}
		}
		return out
	}

	sent := now()
	ag := mkGossipAgent(t)
	setEntries(t, ag, []GossipEntry{signedBy(liar.hc, "victim", 1e300, sent.Add(1000*halfLife))})
	for _, after := range []time.Duration{5 * time.Minute, 10 * time.Minute, 20 * time.Minute, 50 * time.Minute} {
		*clock = sent.Add(after)
		for _, r := range receivers {
			visit(ag, r)
			if got := r.led.Suspicion("victim"); got != 0 {
				t.Errorf("%v after the claim was sent, %s holds the victim at %v", after, r.name, got)
			}
		}
		if carried := about(ag, "victim"); len(carried) != 0 {
			t.Errorf("%v after the claim was sent, the bag still carries %d claims about the victim", after, len(carried))
		}
	}

	// Inside the allowance: r0 reads the claim undecayed before its date,
	// and r1, a half-life after that date, reads it halved from there.
	cell := time.Duration(curve{h: int64(halfLife)}.cell())
	date := now().Add(cell)
	ag = mkGossipAgent(t)
	setEntries(t, ag, []GossipEntry{signedBy(liar.hc, "other", 4, date)})
	r0, r1 := receivers[0], receivers[1]
	visit(ag, r0)
	if got, want := r0.led.Suspicion("other"), gossipDamping*4; got != want {
		t.Fatalf("r0 reads a claim dated %v ahead at %v, want %v", cell, got, want)
	}
	*clock = date.Add(halfLife)
	visit(ag, r1)
	if got, want := r1.led.Suspicion("other"), gossipDamping*4*0.5; math.Abs(got-want) > 1e-12*want {
		t.Fatalf("r1 reads the claim a half-life after its date at %v, want %v", got, want)
	}
}
