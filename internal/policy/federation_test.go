package policy

import (
	"context"
	"math/rand"
	"slices"
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
			return &core.ExchangeConfig{Aggregators: aggs}
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

// TestExchangeTopologyRule pins the one rule by which the aggregator
// list sets a node's tier: no list is flat (partners from the peers,
// the plain budget), a list naming the node is an aggregator (partners
// from the other aggregators, the aggregator budget, possibly none), a
// list not naming it is a member (partners from the aggregators, the
// plain budget, never none). UpdatePeers re-derives the pool the same
// way, and a refused update leaves the pool as it was.
func TestExchangeTopologyRule(t *testing.T) {
	self := exName(0)
	n1, n2, n3, n4 := exName(1), exName(2), exName(3), exName(4)
	aggBudget := func(b int) int { return min(core.DefaultAggregatorBudgetFactor*b, core.MaxExchangeBudget) }
	cases := []struct {
		name   string
		cfg    core.ExchangeConfig
		update []string // nil: no UpdatePeers call
		// wantErr fails construction, updateErr the UpdatePeers call.
		wantErr, updateErr bool
		pool               []string
		budget             int
		role               string
	}{
		{name: "flat", cfg: core.ExchangeConfig{Peers: []string{self, n1, n2, n2, ""}},
			pool: []string{n1, n2}, budget: core.DefaultExchangeBudget, role: "flat"},
		{name: "flat budget clamped", cfg: core.ExchangeConfig{Peers: []string{n1}, Budget: 1000},
			pool: []string{n1}, budget: core.MaxExchangeBudget, role: "flat"},
		{name: "flat without partners", cfg: core.ExchangeConfig{Peers: []string{self, ""}}, wantErr: true},
		{name: "aggregator", cfg: core.ExchangeConfig{Peers: []string{n3, n4}, Budget: 10, Aggregators: []string{n1, self, n2}},
			pool: []string{n1, n2}, budget: aggBudget(10), role: "aggregator"},
		{name: "aggregator budget clamped", cfg: core.ExchangeConfig{Budget: 100, Aggregators: []string{self, n1}},
			pool: []string{n1}, budget: core.MaxExchangeBudget, role: "aggregator"},
		{name: "sole aggregator", cfg: core.ExchangeConfig{Aggregators: []string{self}},
			pool: nil, budget: aggBudget(core.DefaultExchangeBudget), role: "aggregator"},
		{name: "member", cfg: core.ExchangeConfig{Peers: []string{n3, n4}, Budget: 10, Aggregators: []string{n1, n2, n1}},
			pool: []string{n1, n2}, budget: 10, role: "member"},
		{name: "member without aggregators", cfg: core.ExchangeConfig{Peers: []string{n1, n2}, Aggregators: []string{""}}, wantErr: true},
		{name: "flat update", cfg: core.ExchangeConfig{Peers: []string{n1}}, update: []string{n2, self, n3},
			pool: []string{n2, n3}, budget: core.DefaultExchangeBudget, role: "flat"},
		{name: "flat update to nobody", cfg: core.ExchangeConfig{Peers: []string{n1, n2}}, update: []string{self}, updateErr: true,
			pool: []string{n1, n2}, budget: core.DefaultExchangeBudget, role: "flat"},
		{name: "member update drops a departed aggregator", cfg: core.ExchangeConfig{Aggregators: []string{n1, n2}}, update: []string{n1, n3, n4},
			pool: []string{n1}, budget: core.DefaultExchangeBudget, role: "member"},
		{name: "member update keeps members out", cfg: core.ExchangeConfig{Aggregators: []string{n1, n2}}, update: []string{n1, n2, n3, n4},
			pool: []string{n1, n2}, budget: core.DefaultExchangeBudget, role: "member"},
		{name: "member update without aggregators", cfg: core.ExchangeConfig{Aggregators: []string{n1, n2}}, update: []string{n3, n4}, updateErr: true,
			pool: []string{n1, n2}, budget: core.DefaultExchangeBudget, role: "member"},
		{name: "aggregator update loses its only partner", cfg: core.ExchangeConfig{Aggregators: []string{self, n1}}, update: []string{self, n3},
			pool: nil, budget: aggBudget(core.DefaultExchangeBudget), role: "aggregator"},
	}
	node := newExBedCfg(t, 1, func(int) *core.ExchangeConfig { return nil }, nil).nodes[0]
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x, err := newExchange(node.g, node.hc, tc.cfg)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("configuration accepted as %s with pool %v", x.Stats().Role, schedPeers(x))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if tc.update != nil {
				if err := x.UpdatePeers(tc.update); (err != nil) != tc.updateErr {
					t.Fatalf("UpdatePeers(%v) = %v, want error %v", tc.update, err, tc.updateErr)
				}
			}
			if got := schedPeers(x); !slices.Equal(got, tc.pool) {
				t.Errorf("pool = %v, want %v", got, tc.pool)
			}
			if x.budget != tc.budget {
				t.Errorf("budget = %d, want %d", x.budget, tc.budget)
			}
			if got := x.Stats().Role; got != tc.role {
				t.Errorf("role = %q, want %q", got, tc.role)
			}
		})
	}
}

// schedPeers lists the exchange's partner pool, sorted (nil when empty).
func schedPeers(x *Exchange) []string {
	var out []string
	for _, p := range x.Scheduler().Snapshot(x.now()) {
		out = append(out, p.Peer)
	}
	slices.Sort(out)
	return out
}
