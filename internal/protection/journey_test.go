package protection_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/host"
	"repro/internal/protection"
)

// TestSealAloneRecordsNoVerdicts runs an honest three-hop journey,
// home → u1 → u2 → home, through nodes at the levels where refproto's
// seal stands alone (and vigna, at LevelTraces, checks only on the
// owner's suspicion). The seal reports only failures, so no node records
// a verdict, and none is signed or carried home.
func TestSealAloneRecordsNoVerdicts(t *testing.T) {
	for _, level := range []protection.Level{protection.LevelSigned, protection.LevelTraces} {
		t.Run(level.String(), func(t *testing.T) {
			f, err := fleet.New("owner")
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = f.Close() }()
			var mu sync.Mutex
			var recorded []core.Verdict
			for _, name := range []string{"home", "u1", "u2"} {
				if _, err := f.Add(fleet.Spec{
					Host:  host.Config{Name: name, Trusted: name == "home"},
					Level: level,
					Node: core.NodeConfig{OnVerdict: func(v core.Verdict) {
						mu.Lock()
						recorded = append(recorded, v)
						mu.Unlock()
					}},
				}); err != nil {
					t.Fatal(err)
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			wire, err := f.AuditedAgent("plain", fleet.RouteCode("home", []string{"u1", "u2"}, 1))
			if err != nil {
				t.Fatal(err)
			}
			receipts := f.Watch("plain")
			if err := f.Net().SendAgent(ctx, "home", wire); err != nil {
				t.Fatal(err)
			}
			res, err := core.AwaitAny(ctx, receipts...)
			if err != nil || res.Agent == nil || res.Aborted {
				t.Fatalf("journey did not complete: %+v, %v", res, err)
			}
			if res.Agent.Hop != 4 {
				t.Fatalf("agent completed after %d sessions over %v, want 4 (three arrivals)", res.Agent.Hop, res.Agent.Route)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(recorded) != 0 || len(res.Verdicts) != 0 {
				t.Fatalf("recorded %v, carried home %v; want no verdicts", recorded, res.Verdicts)
			}
		})
	}
}
