package proof_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/platformtest"
	"repro/internal/proof"
	"repro/internal/value"
)

const tourCode = `
proc main() {
    total = 0
    let i = 0
    while i < 50 {
        total = total + i
        i = i + 1
    }
    migrate("h1", "visit")
}
proc visit() {
    total = total + read("offer")
    if here() == "h1" { migrate("h2", "visit") } else { migrate("home2", "finish") }
}
proc finish() { done() }`

func buildBed(t *testing.T) *platformtest.Bed {
	t.Helper()
	bed := platformtest.New(t)
	offers := map[string]int64{"h1": 10, "h2": 20}
	for _, name := range []string{"home", "h1", "h2", "home2"} {
		name := name
		bed.AddHost(name, platformtest.HostOptions{
			Trusted:    strings.HasPrefix(name, "home"),
			Mechanisms: func() []core.Mechanism { return []core.Mechanism{proof.New()} },
			Configure: func(c *host.Config) {
				if p, ok := offers[name]; ok {
					c.Resources = map[string]value.Value{"offer": value.Int(p)}
				}
			},
		})
	}
	return bed
}

func verifyCfg(bed *platformtest.Bed) proof.VerifyConfig {
	return proof.VerifyConfig{Net: bed.Net, Registry: bed.Reg, K: 4}
}

func TestHonestJourneyVerifies(t *testing.T) {
	bed := buildBed(t)
	ag := bed.NewAgent("tourist", tourCode)
	if err := bed.Run("home", ag); err != nil {
		t.Fatal(err)
	}
	done, _ := bed.Completed()
	if len(done) != 1 {
		t.Fatal("agent did not complete")
	}
	rep, err := proof.Verify(context.Background(), verifyCfg(bed), done[0])
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("honest journey failed verification: %+v", rep)
	}
	// Sublinearity: far fewer entries opened than the total trace.
	if rep.EntriesOpened >= rep.TotalTraceLen {
		t.Errorf("opened %d of %d entries — not sublinear", rep.EntriesOpened, rep.TotalTraceLen)
	}
	if rep.EntriesOpened == 0 {
		t.Error("no entries opened")
	}
}

func TestChainCommitmentsPerHop(t *testing.T) {
	bed := buildBed(t)
	ag := bed.NewAgent("tourist", tourCode)
	if err := bed.Run("home", ag); err != nil {
		t.Fatal(err)
	}
	done, _ := bed.Completed()
	chain, err := proof.ChainFromAgent(done[0])
	if err != nil {
		t.Fatal(err)
	}
	// home, h1, h2 committed (home2 ran the final session, no departure).
	if len(chain) != 3 {
		t.Fatalf("chain length %d, want 3", len(chain))
	}
	if chain[0].Host != "home" || chain[1].Host != "h1" || chain[2].Host != "h2" {
		t.Errorf("chain hosts: %v %v %v", chain[0].Host, chain[1].Host, chain[2].Host)
	}
	// The first session ran the 50-iteration loop: its committed trace
	// is much longer than the others.
	if chain[0].N < 100 {
		t.Errorf("home trace N = %d, expected >100", chain[0].N)
	}
}

func TestTamperedCommitmentDetected(t *testing.T) {
	bed := buildBed(t)
	ag := bed.NewAgent("tourist", tourCode)
	if err := bed.Run("home", ag); err != nil {
		t.Fatal(err)
	}
	done, _ := bed.Completed()
	chain, err := proof.ChainFromAgent(done[0])
	if err != nil {
		t.Fatal(err)
	}
	chain[1].Root[0] ^= 0xFF
	// Re-attach: signature over the binding no longer matches.
	reattachChain(t, done[0], chain)
	rep, err := proof.Verify(context.Background(), verifyCfg(bed), done[0])
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK || rep.Suspect != "h1" {
		t.Errorf("tampered root not detected: %+v", rep)
	}
}

func TestServedEntryMismatchDetected(t *testing.T) {
	// The prover commits honestly, but we verify against a different
	// agent run's chain — an opened entry can never authenticate against
	// a root from different content. Simulated by flipping StateHash
	// (signature binding breaks) vs flipping nothing server-side: here
	// we instead re-point the chain's N, making path verification fail.
	bed := buildBed(t)
	ag := bed.NewAgent("tourist", tourCode)
	if err := bed.Run("home", ag); err != nil {
		t.Fatal(err)
	}
	done, _ := bed.Completed()
	chain, err := proof.ChainFromAgent(done[0])
	if err != nil {
		t.Fatal(err)
	}
	chain[0].N = chain[0].N / 2
	reattachChain(t, done[0], chain)
	rep, err := proof.Verify(context.Background(), verifyCfg(bed), done[0])
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK {
		t.Error("mismatched tree size not detected")
	}
}

func TestVerifyWithoutCommitments(t *testing.T) {
	bed := buildBed(t)
	ag := bed.NewAgent("fresh", tourCode)
	if _, err := proof.Verify(context.Background(), verifyCfg(bed), ag); err == nil {
		t.Error("agent without commitments verified")
	}
}

func TestFullRecheckOpensEverything(t *testing.T) {
	bed := buildBed(t)
	ag := bed.NewAgent("tourist", tourCode)
	if err := bed.Run("home", ag); err != nil {
		t.Fatal(err)
	}
	done, _ := bed.Completed()
	rep, err := proof.FullRecheck(context.Background(), verifyCfg(bed), done[0])
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("full recheck failed: %+v", rep)
	}
	if rep.EntriesOpened != rep.TotalTraceLen {
		t.Errorf("full recheck opened %d of %d", rep.EntriesOpened, rep.TotalTraceLen)
	}
	// The cost asymmetry that motivates proofs:
	spot, err := proof.Verify(context.Background(), verifyCfg(bed), done[0])
	if err != nil {
		t.Fatal(err)
	}
	if spot.EntriesOpened*2 >= rep.EntriesOpened {
		t.Errorf("spot check (%d) not substantially cheaper than full (%d)",
			spot.EntriesOpened, rep.EntriesOpened)
	}
}

func reattachChain(t *testing.T, ag *agent.Agent, chain []proof.Commitment) {
	t.Helper()
	if err := proof.AttachChain(ag, chain); err != nil {
		t.Fatal(err)
	}
}
