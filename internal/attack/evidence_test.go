package attack_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/platformtest"
	"repro/internal/refproto"
	"repro/internal/value"
)

// TestReexecutionEvidenceUnchanged runs TestDetectionMatrix's
// refproto/rule-consistent manipulation cell, the one only the
// re-execution detects, and pins its verdict byte for byte: the reason
// and the divergence evidence the owner proves the damage with. The
// text was recorded from the checker that decoded the whole package on
// every arrival; reading the package from its bytes must not change it.
func TestReexecutionEvidenceUnchanged(t *testing.T) {
	const code = `
proc main() {
    moneyInitial = 100
    moneyRest = 100
    moneySpent = 0
    migrate("shop1", "buy")
}
proc buy() {
    let price = read("price")
    moneySpent = moneySpent + price
    moneyRest = moneyRest - price
    if here() == "shop1" { migrate("shop2", "buy") } else { migrate("home2", "finish") }
}
proc finish() { done() }`
	bed := platformtest.New(t)
	for _, name := range []string{"home", "shop1", "shop2", "home2"} {
		bed.AddHost(name, platformtest.HostOptions{
			Trusted:    strings.HasPrefix(name, "home"),
			Mechanisms: func() []core.Mechanism { return refproto.New(refproto.Config{}) },
			Configure: func(c *host.Config) {
				price := int64(30)
				if name == "shop2" {
					price = 20
				}
				c.Resources = map[string]value.Value{"price": value.Int(price)}
				if name == "shop1" {
					c.Behavior = attack.StateMutation{Mutate: func(st value.State) {
						st["moneySpent"] = value.Int(60)
						st["moneyRest"] = value.Int(40)
					}}
				}
			},
		})
	}
	_ = bed.Run("home", bed.NewAgent("matrix-agent", code))
	failed := bed.FailedVerdicts()
	if len(failed) != 1 {
		t.Fatalf("failed verdicts: %v", failed)
	}
	v := failed[0]
	const reason = "re-execution does not reproduce the claimed resulting state"
	evidence := []string{"state mismatch: moneyRest: 70 != 40", "state mismatch: moneySpent: 30 != 60"}
	if v.Suspect != "shop1" || v.Reason != reason || !slices.Equal(v.Evidence, evidence) {
		t.Errorf("verdict blames %q: %q, evidence %q; want shop1: %q, evidence %q",
			v.Suspect, v.Reason, v.Evidence, reason, evidence)
	}
}
