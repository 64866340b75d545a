package policy

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
)

// exCall is one exchange RPC: who called whom.
type exCall struct{ from, to string }

// callLog records every call one node makes. Rounds are stepped on the
// test goroutine (the loops' intervals are parked), so it takes no lock.
type callLog struct {
	transport.Network
	from  string
	calls *[]exCall
}

func (l callLog) Call(ctx context.Context, host, method string, body []byte) ([]byte, error) {
	*l.calls = append(*l.calls, exCall{l.from, host})
	return l.Network.Call(ctx, host, method, body)
}

// TestFederationConvergenceBound is the hierarchical federation's
// convergence-bound property: with two aggregators fronting a member
// fleet, a cheater seen first-hand by exactly one member escalates
// fleet-wide within member-round + aggregator-round + member-round —
// for every fleet size, every seeded member, and every step order
// inside a round. The mechanics behind the bound: the seeded member's
// round pushes the extract to one aggregator; the aggregator round is
// a two-party exchange, so whichever aggregator steps first levels
// both; the final member round has every member pulling from an
// informed aggregator whichever one it picks.
func TestFederationConvergenceBound(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 6; trial++ {
		members := 3 + rng.Intn(8) // 3..10 members
		n := 2 + members           // nodes 0,1 are the aggregators
		aggs := []string{exName(0), exName(1)}
		bed := newExBedCfg(t, n, func(i int) *core.ExchangeConfig {
			cfg := &core.ExchangeConfig{Aggregators: aggs, Role: core.ExchangeRoleMember}
			if i < 2 {
				cfg.Role = core.ExchangeRoleAggregator
			}
			return cfg
		}, nil)

		var calls []exCall
		for _, node := range bed.nodes {
			node.hc.Net = callLog{Network: bed.net, from: node.name, calls: &calls}
		}

		seeded := 2 + rng.Intn(members)
		bed.nodes[seeded].led.Observe("mallory", false, maxMergeSuspicion)

		stepRound := func(idx []int) {
			rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
			for _, i := range idx {
				if err := bed.nodes[i].x.Step(ctx); err != nil {
					t.Fatalf("trial %d: step of %s: %v", trial, bed.nodes[i].name, err)
				}
			}
		}
		memberIdx := make([]int, 0, members)
		for i := 2; i < n; i++ {
			memberIdx = append(memberIdx, i)
		}
		stepRound(memberIdx)   // seeded member reaches one aggregator
		stepRound([]int{0, 1}) // the aggregator pair levels
		stepRound(memberIdx)   // every member pulls from an informed aggregator

		for _, node := range bed.nodes {
			if s := node.led.Suspicion("mallory"); s < DefaultEscalateThreshold {
				t.Fatalf("trial %d (members=%d seeded=%s): %s below escalation after bounded rounds (%.3f)",
					trial, members, bed.nodes[seeded].name, node.name, s)
			}
		}
		for _, c := range calls {
			if c.to == c.from || (c.to != aggs[0] && c.to != aggs[1]) {
				t.Fatalf("trial %d: %s called %s — every exchange call must go to another aggregator", trial, c.from, c.to)
			}
		}
		if want := 2*members + len(aggs); len(calls) != want {
			t.Fatalf("trial %d: %d exchange RPCs over three rounds, want %d (one per step)", trial, len(calls), want)
		}
	}
}
