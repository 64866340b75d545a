package main

import (
	"slices"
	"strings"
	"testing"
	"time"
)

// TestExchangeConfig pins the exchange flags' two refusals — exchange
// flags without an interval, and an interval with neither peers nor
// aggregators — and what the accepted combinations configure. The
// aggregator list is passed through as given: it alone sets the tier.
func TestExchangeConfig(t *testing.T) {
	book := map[string]string{"self": ":7001", "shop": ":7002", "back": ":7003"}
	cases := []struct {
		name        string
		book        map[string]string
		interval    time.Duration
		peers, aggs string
		budget      int
		refusal     string // empty: accepted
		wantPeers   []string
		wantAggs    []string
	}{
		{name: "off", book: book},
		{name: "peers without interval", book: book, peers: "shop", refusal: "require -exchange-interval"},
		{name: "budget without interval", book: book, budget: 8, refusal: "require -exchange-interval"},
		{name: "aggregators without interval", book: book, aggs: "shop", refusal: "require -exchange-interval"},
		{name: "no peers and no aggregators", book: map[string]string{"self": ":7001"}, interval: time.Second, refusal: "no exchange peers"},
		{name: "flat over the address book", book: book, interval: time.Second, wantPeers: []string{"back", "shop"}},
		{name: "flat over named peers", book: book, interval: time.Second, peers: "shop, ,back", budget: 8, wantPeers: []string{"back", "shop"}},
		{name: "federation without peers", interval: time.Second, aggs: "self,shop", wantAggs: []string{"self", "shop"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := exchangeConfig("self", tc.book, tc.interval, tc.peers, tc.aggs, tc.budget)
			if tc.refusal != "" {
				if err == nil || !strings.Contains(err.Error(), tc.refusal) {
					t.Fatalf("err = %v, want a refusal mentioning %q", err, tc.refusal)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := cfg.Enabled(); got != (tc.interval > 0) {
				t.Fatalf("Enabled() = %v with interval %v", got, tc.interval)
			}
			peers := slices.Sorted(slices.Values(cfg.Peers))
			if !slices.Equal(peers, tc.wantPeers) || !slices.Equal(cfg.Aggregators, tc.wantAggs) {
				t.Errorf("peers %v aggregators %v, want %v and %v", peers, cfg.Aggregators, tc.wantPeers, tc.wantAggs)
			}
			if cfg.Interval != tc.interval || cfg.Budget != tc.budget {
				t.Errorf("interval %v budget %d, want %v and %d", cfg.Interval, cfg.Budget, tc.interval, tc.budget)
			}
		})
	}
}
