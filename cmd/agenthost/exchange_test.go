package main

import (
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
)

func mustManifest(t *testing.T, text string) *fleet.Manifest {
	t.Helper()
	m, err := fleet.ParseManifest([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestExchangeConfig pins what the manifest makes of the exchange
// flags: partners are every other listed host, and the aggregator
// entries, when there are any, pass through as the list that alone
// sets the tier. A budget without an interval, and an interval with no
// other host to trade with, are refused.
func TestExchangeConfig(t *testing.T) {
	flat := mustManifest(t, "self :7001\nshop :7002\nback :7003\n")
	tiers := mustManifest(t, "self :7001 aggregator\nshop :7002 aggregator\nback :7003\n")
	cases := []struct {
		name      string
		man       *fleet.Manifest
		interval  time.Duration
		budget    int
		refusal   string // empty: accepted
		wantPeers []string
		wantAggs  []string
	}{
		{name: "off", man: flat},
		{name: "aggregators without interval", man: tiers},
		{name: "budget without interval", man: flat, budget: 8, refusal: "requires -exchange-interval"},
		{name: "no peers and no aggregators", man: mustManifest(t, "self :7001"), interval: time.Second, refusal: "lists no other host"},
		{name: "flat over the address book", man: flat, interval: time.Second, budget: 8, wantPeers: []string{"back", "shop"}},
		{name: "federation without peers", man: tiers, interval: time.Second, wantPeers: []string{"back", "shop"}, wantAggs: []string{"self", "shop"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := exchangeConfig("self", tc.man, tc.interval, tc.budget)
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

// TestFromManifest: one manifest gives every node the same TCP book and
// the same registry trust set, and each node's own trust from its
// entry; a node with no entry is refused.
func TestFromManifest(t *testing.T) {
	man := mustManifest(t, "home 127.0.0.1:7001 trusted\nshop 127.0.0.1:7002\nback 127.0.0.1:7003 trusted aggregator\n")
	wantBook := map[string]string{"home": "127.0.0.1:7001", "shop": "127.0.0.1:7002", "back": "127.0.0.1:7003"}
	wantTrusted := map[string]bool{"home": true, "shop": false, "back": true, "nobody": false}
	for _, self := range []string{"home", "shop", "back"} {
		book, cfg, err := fromManifest(man, self)
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(book, wantBook) {
			t.Errorf("%s: book %v, want %v", self, book, wantBook)
		}
		if cfg.Name != self || cfg.Trusted != wantTrusted[self] {
			t.Errorf("%s: host config names %q, trusted %v", self, cfg.Name, cfg.Trusted)
		}
		for name, want := range wantTrusted {
			if got := cfg.Registry.Trusted(name); got != want {
				t.Errorf("%s: registry trusts %s = %v, want %v", self, name, got, want)
			}
		}
	}
	if _, _, err := fromManifest(man, "stranger"); err == nil || !strings.Contains(err.Error(), `"stranger" has no entry`) {
		t.Errorf("a host with no entry: err = %v", err)
	}
}
