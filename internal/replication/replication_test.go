package replication_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/platformtest"
	"repro/internal/replication"
	"repro/internal/transport"
	"repro/internal/value"
)

// stagedCode runs two stages: collect an offer, then double it.
const stagedCode = `
proc main() {
    offer = read("offer")
    migrate("stage1", "second")
}
proc second() {
    result = offer * 2
    done()
}`

// buildReplicaBed creates two stages of n replicas each; badReplicas
// maps replica names to malicious behaviours.
func buildReplicaBed(t *testing.T, n int, badReplicas map[string]host.Behavior) (*platformtest.Bed, *replication.Coordinator) {
	t.Helper()
	bed := platformtest.New(t)
	coord := &replication.Coordinator{Net: bed.Net, Registry: bed.Reg}
	for stage := 0; stage < 2; stage++ {
		var names []string
		for r := 0; r < n; r++ {
			name := fmt.Sprintf("s%dr%d", stage, r)
			names = append(names, name)
			bed.AddHost(name, platformtest.HostOptions{
				Mechanisms: func() []core.Mechanism { return []core.Mechanism{replication.New()} },
				Configure: func(c *host.Config) {
					// Replicated resources: identical on every replica.
					c.Resources = map[string]value.Value{"offer": value.Int(21)}
					c.RandSeed = 42 // shared input source
					if b, ok := badReplicas[name]; ok {
						c.Behavior = b
					}
				},
			})
		}
		coord.Stages = append(coord.Stages, names)
	}
	return bed, coord
}

func TestAllHonestReplicasAgree(t *testing.T) {
	bed, coord := buildReplicaBed(t, 3, nil)
	ag := bed.NewAgent("staged", stagedCode)
	rep, err := coord.Run(context.Background(), ag)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Final.State["result"].Int != 42 {
		t.Errorf("result = %s", rep.Final.State["result"])
	}
	for _, s := range rep.Stages {
		if len(s.Dissenters) != 0 {
			t.Errorf("stage %d dissenters: %v", s.Stage, s.Dissenters)
		}
		if s.WinnerN != 3 {
			t.Errorf("stage %d winner votes = %d", s.Stage, s.WinnerN)
		}
	}
}

func TestMinorityAttackOutvotedAndIdentified(t *testing.T) {
	// One of three replicas tampers: out-voted, identified as dissenter.
	bed, coord := buildReplicaBed(t, 3, map[string]host.Behavior{
		"s0r1": attack.DataManipulation{Var: "offer", Val: value.Int(9999)},
	})
	ag := bed.NewAgent("staged", stagedCode)
	rep, err := coord.Run(context.Background(), ag)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Final.State["result"].Int != 42 {
		t.Errorf("attack affected result = %s", rep.Final.State["result"])
	}
	s0 := rep.Stages[0]
	if len(s0.Dissenters) != 1 || s0.Dissenters[0] != "s0r1" {
		t.Errorf("dissenters = %v, want [s0r1]", s0.Dissenters)
	}
	if s0.WinnerN != 2 {
		t.Errorf("winner votes = %d, want 2", s0.WinnerN)
	}
}

func TestMajorityCollusionWins(t *testing.T) {
	// Two of three replicas collude on the same wrong result: the vote
	// cannot help (the n/2 bound is tight). The colluders must produce
	// the SAME wrong state to win.
	evil := attack.DataManipulation{Var: "offer", Val: value.Int(9999)}
	bed, coord := buildReplicaBed(t, 3, map[string]host.Behavior{
		"s0r0": evil, "s0r2": evil,
	})
	ag := bed.NewAgent("staged", stagedCode)
	rep, err := coord.Run(context.Background(), ag)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Final.State["result"].Int != 2*9999 {
		t.Errorf("majority collusion did not prevail: result = %s", rep.Final.State["result"])
	}
	// The honest replica is (wrongly) the dissenter — exactly the
	// failure mode the assumption excludes.
	if d := rep.Stages[0].Dissenters; len(d) != 1 || d[0] != "s0r1" {
		t.Errorf("dissenters = %v", d)
	}
}

func TestSplitVoteNoMajority(t *testing.T) {
	// Two replicas, one tampers: 1-1 split, no strict majority.
	bed, coord := buildReplicaBed(t, 2, map[string]host.Behavior{
		"s0r0": attack.DataManipulation{Var: "offer", Val: value.Int(1)},
	})
	ag := bed.NewAgent("staged", stagedCode)
	_, err := coord.Run(context.Background(), ag)
	if !errors.Is(err, replication.ErrNoMajority) {
		t.Errorf("err = %v, want ErrNoMajority", err)
	}
}

func TestUnresponsiveReplicaTolerated(t *testing.T) {
	// A replica that is not registered in the network simply doesn't
	// vote; the remaining majority carries the stage.
	bed, coord := buildReplicaBed(t, 3, nil)
	coord.Stages[0] = append(coord.Stages[0], "ghost") // 4th replica, absent
	ag := bed.NewAgent("staged", stagedCode)
	rep, err := coord.Run(context.Background(), ag)
	if err != nil {
		t.Fatal(err)
	}
	s0 := rep.Stages[0]
	if len(s0.Dissenters) != 1 || s0.Dissenters[0] != "ghost" {
		t.Errorf("dissenters = %v", s0.Dissenters)
	}
	if rep.Final.State["result"].Int != 42 {
		t.Errorf("result = %s", rep.Final.State["result"])
	}
}

func TestCrossStageCollusionBounded(t *testing.T) {
	// Malicious replicas in different stages, each a minority in its
	// stage: both out-voted ("even collaboration attacks between hosts
	// of different steps can be found as long as the above condition
	// holds").
	bed, coord := buildReplicaBed(t, 3, map[string]host.Behavior{
		"s0r0": attack.DataManipulation{Var: "offer", Val: value.Int(1)},
		"s1r2": attack.DataManipulation{Var: "result", Val: value.Int(1)},
	})
	ag := bed.NewAgent("staged", stagedCode)
	rep, err := coord.Run(context.Background(), ag)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Final.State["result"].Int != 42 {
		t.Errorf("result = %s", rep.Final.State["result"])
	}
	if d := rep.Stages[0].Dissenters; len(d) != 1 || d[0] != "s0r0" {
		t.Errorf("stage 0 dissenters = %v", d)
	}
	if d := rep.Stages[1].Dissenters; len(d) != 1 || d[0] != "s1r2" {
		t.Errorf("stage 1 dissenters = %v", d)
	}
}

func TestAgentFinishingEarlyFails(t *testing.T) {
	bed, coord := buildReplicaBed(t, 3, nil)
	ag := bed.NewAgent("early", `proc main() { x = read("offer") done() }`)
	_, err := coord.Run(context.Background(), ag)
	if !errors.Is(err, replication.ErrAgentFailed) {
		t.Errorf("err = %v, want ErrAgentFailed", err)
	}
}

func TestCoordinatorValidation(t *testing.T) {
	bed, _ := buildReplicaBed(t, 1, nil)
	ag := bed.NewAgent("x", stagedCode)
	c := &replication.Coordinator{Net: bed.Net, Registry: bed.Reg}
	if _, err := c.Run(context.Background(), ag); err == nil {
		t.Error("no stages accepted")
	}
	c.Stages = [][]string{{}}
	if _, err := c.Run(context.Background(), ag); err == nil {
		t.Error("empty stage accepted")
	}
}

func TestCoordinatorDoesNotMutateInput(t *testing.T) {
	bed, coord := buildReplicaBed(t, 3, nil)
	ag := bed.NewAgent("staged", stagedCode)
	if _, err := coord.Run(context.Background(), ag); err != nil {
		t.Fatal(err)
	}
	if ag.Hop != 0 || len(ag.Route) != 0 || len(ag.State) != 0 {
		t.Error("coordinator mutated the input agent")
	}
}

// TestFailureReasonsDistinguishCrashFromDissent pins the StageReport
// triage surface: an unreachable replica lands in Failures with a
// reason, while a replica whose counted vote simply lost stays out of
// Failures — operators can tell a crashed replica from a dissenting
// one.
func TestFailureReasonsDistinguishCrashFromDissent(t *testing.T) {
	bed, coord := buildReplicaBed(t, 5, map[string]host.Behavior{
		"s0r1": attack.DataManipulation{Var: "offer", Val: value.Int(9999)},
	})
	coord.Stages[0] = append(coord.Stages[0], "ghost") // absent replica
	ag := bed.NewAgent("staged", stagedCode)
	rep, err := coord.Run(context.Background(), ag)
	if err != nil {
		t.Fatal(err)
	}
	s0 := rep.Stages[0]
	if reason, ok := s0.Failures["ghost"]; !ok || reason == "" {
		t.Errorf("ghost has no failure reason: %v", s0.Failures)
	}
	if _, ok := s0.Failures["s0r1"]; ok {
		t.Errorf("dissenting replica recorded as failure: %v", s0.Failures)
	}
	if _, ok := s0.Votes["s0r1"]; !ok {
		t.Error("dissenting replica's vote not counted")
	}
	// Both remain dissenters for the tally.
	if d := s0.Dissenters; len(d) != 2 {
		t.Errorf("dissenters = %v, want ghost and s0r1", d)
	}
}

// TestRouteRecordsWinnerReplica pins that the agent's route names the
// adopted replica — a real, chargeable host — instead of a synthetic
// "stageN" label no ledger could attribute.
func TestRouteRecordsWinnerReplica(t *testing.T) {
	bed, coord := buildReplicaBed(t, 3, map[string]host.Behavior{
		"s0r0": attack.DataManipulation{Var: "offer", Val: value.Int(9999)},
	})
	ag := bed.NewAgent("staged", stagedCode)
	rep, err := coord.Run(context.Background(), ag)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Final.Route) != 2 {
		t.Fatalf("route = %v, want 2 stages", rep.Final.Route)
	}
	for i, stage := range rep.Stages {
		if got := rep.Final.Route[i]; got != stage.WinnerReplica {
			t.Errorf("route[%d] = %q, want winner %q", i, got, stage.WinnerReplica)
		}
	}
	// The winner is an honest majority voter, deterministically the
	// first by name — never the out-voted cheater.
	if w := rep.Stages[0].WinnerReplica; w != "s0r1" {
		t.Errorf("stage 0 winner = %q, want s0r1 (first honest voter)", w)
	}
}

// forgingNet corrupts the signature of the named replicas' votes in
// transit. The vote still decodes and names the right replica and hop,
// so only the signature check can reject it.
type forgingNet struct {
	transport.Network
	forgers map[string]bool
}

func (n forgingNet) Call(ctx context.Context, to, method string, body []byte) ([]byte, error) {
	reply, err := n.Network.Call(ctx, to, method, body)
	if err != nil || !n.forgers[to] {
		return reply, err
	}
	vote, _ := transport.OpenReply(reply)
	forged := append([]byte(nil), vote...)
	forged[len(forged)-1] ^= 0xff // the last tuple field is the signature
	return forged, nil
}

// TestForgedVoteRejectedBySignature pins the stage's one verify pass: a
// vote whose signature does not bind is a signature failure, counts for
// nobody, and leaves the honest winner standing.
func TestForgedVoteRejectedBySignature(t *testing.T) {
	bed, coord := buildReplicaBed(t, 4, nil)
	ag := bed.NewAgent("staged", stagedCode)
	clean, err := coord.Run(context.Background(), ag)
	if err != nil {
		t.Fatal(err)
	}

	coord.Net = forgingNet{Network: bed.Net, forgers: map[string]bool{"s0r3": true}}
	rep, err := coord.Run(context.Background(), ag)
	if err != nil {
		t.Fatal(err)
	}
	s0 := rep.Stages[0]
	if reason := s0.Failures["s0r3"]; !strings.HasPrefix(reason, "signature:") {
		t.Fatalf("forger's failure = %q, want a signature failure (failures %v)", reason, s0.Failures)
	}
	if _, ok := s0.Votes["s0r3"]; ok || len(s0.Votes) != 3 || s0.WinnerN != 3 {
		t.Fatalf("votes = %v (winner %d), want only the three valid ones counted", s0.Votes, s0.WinnerN)
	}
	if s0.Winner != clean.Stages[0].Winner || rep.Final.State["result"].Int != 42 {
		t.Fatalf("forged vote moved the winner: %x, want %x", s0.Winner, clean.Stages[0].Winner)
	}
}

// TestForgedOnlyVoteDecidesNothing: a stage whose only surviving vote is
// forged has no countable vote and no majority.
func TestForgedOnlyVoteDecidesNothing(t *testing.T) {
	bed, coord := buildReplicaBed(t, 1, nil)
	coord.Stages[0] = append(coord.Stages[0], "ghost-a", "ghost-b") // absent replicas
	coord.Net = forgingNet{Network: bed.Net, forgers: map[string]bool{"s0r0": true}}
	ag := bed.NewAgent("staged", stagedCode)
	rep, err := coord.Run(context.Background(), ag)
	if !errors.Is(err, replication.ErrNoMajority) {
		t.Fatalf("err = %v, want ErrNoMajority", err)
	}
	s0 := rep.Stages[0]
	if reason := s0.Failures["s0r0"]; !strings.HasPrefix(reason, "signature:") {
		t.Fatalf("forger's failure = %q, want a signature failure (failures %v)", reason, s0.Failures)
	}
	if len(s0.Votes) != 0 || s0.WinnerN != 0 {
		t.Fatalf("votes = %v (winner %d), want none counted", s0.Votes, s0.WinnerN)
	}
}

func TestMaxTolerated(t *testing.T) {
	tests := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 0}, {3, 1}, {4, 1}, {5, 2}, {7, 3},
	}
	for _, tt := range tests {
		if got := replication.MaxTolerated(tt.n); got != tt.want {
			t.Errorf("MaxTolerated(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestToleranceBoundProperty(t *testing.T) {
	// For n=5: up to 2 identical-colluding attackers are out-voted; 3
	// win the vote. This pins the (n/2 - 1) bound from §3.2.
	for _, f := range []int{1, 2, 3} {
		evil := attack.DataManipulation{Var: "offer", Val: value.Int(1)}
		bad := map[string]host.Behavior{}
		for i := 0; i < f; i++ {
			bad[fmt.Sprintf("s0r%d", i)] = evil
		}
		bed, coord := buildReplicaBed(t, 5, bad)
		ag := bed.NewAgent("staged", stagedCode)
		rep, err := coord.Run(context.Background(), ag)
		if err != nil {
			t.Fatalf("f=%d: %v", f, err)
		}
		honest := rep.Final.State["result"].Int == 42
		if f <= replication.MaxTolerated(5) && !honest {
			t.Errorf("f=%d within bound but attack prevailed", f)
		}
		if f > replication.MaxTolerated(5) && honest {
			t.Errorf("f=%d beyond bound but honest result prevailed", f)
		}
	}
}

func TestEqualResources(t *testing.T) {
	a := map[string]value.Value{"db": value.Int(1)}
	b := map[string]value.Value{"db": value.Int(1)}
	if !replication.EqualResources(a, b) {
		t.Error("equal resources reported unequal")
	}
	b["db"] = value.Int(2)
	if replication.EqualResources(a, b) {
		t.Error("unequal resources reported equal")
	}
}
