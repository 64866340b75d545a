package main

import (
	"testing"

	"repro/internal/campaign"
)

// TestNoFreeResetSummaryNeedsEveryJudgedScenario: the suite-level
// no-free-reset value holds only if every scenario that judged the
// invariant held it. A failing restart drill must not be hidden by a
// later scenario's pass, and a suite that judged nothing proves nothing.
func TestNoFreeResetSummaryNeedsEveryJudgedScenario(t *testing.T) {
	judged := func(name string, held bool) campaign.Score {
		return campaign.Score{Name: name, AdversaryIdentities: 1, Converged: true, NoFreeResetJudged: true, NoFreeReset: held}
	}
	unjudged := campaign.Score{Name: "flap", AdversaryIdentities: 1, Converged: true}
	cases := []struct {
		name   string
		scores []campaign.Score
		want   bool
	}{
		{"failing drill first", []campaign.Score{judged("restart-chaos", false), judged("aggregator-cut", true)}, false},
		{"failing drill last", []campaign.Score{judged("restart-chaos", true), judged("aggregator-cut", false)}, false},
		{"every drill holds", []campaign.Score{judged("restart-chaos", true), unjudged, judged("aggregator-cut", true)}, true},
		{"nothing judged", []campaign.Score{unjudged}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := summarizeCampaigns(tc.scores).RestartNoFreeReset; got != tc.want {
				t.Errorf("restart_no_free_reset = %v, want %v", got, tc.want)
			}
		})
	}
}
