// Replicated: the server-replication mechanism of §3.2.
//
// A two-stage computation (fetch a market quote, then settle) runs on
// replica sets of three independent hosts per stage. One replica in
// each stage is malicious. Every stage's replicas execute the same
// session in parallel and vote on the resulting state; the malicious
// minorities are out-voted and named, and the agent's final result is
// the honest one — demonstrating the (n/2 − 1) tolerance bound.
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/agent"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/host"
	"repro/internal/replication"
	"repro/internal/value"
)

const traderCode = `
proc main() {
    quote = read("quote")
    migrate("next-stage", "settle")
}
proc settle() {
    fee = read("fee")
    settled = quote - fee
    done()
}`

func main() {
	if err := run(); err != nil {
		fmt.Println("replicated example failed:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	f, err := fleet.New("owner")
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	coord := &replication.Coordinator{Net: f.Net(), Registry: f.Reg}

	// Two stages of three replicas; one attacker per stage.
	attackers := map[string]host.Behavior{
		"quote-2":  attack.DataManipulation{Var: "quote", Val: value.Int(1)},
		"settle-0": attack.DataManipulation{Var: "settled", Val: value.Int(0)},
	}
	stages := []struct {
		prefix    string
		resources map[string]value.Value
	}{
		{"quote", map[string]value.Value{"quote": value.Int(130)}},
		{"settle", map[string]value.Value{"fee": value.Int(5)}},
	}
	for _, st := range stages {
		var names []string
		for r := 0; r < 3; r++ {
			name := fmt.Sprintf("%s-%d", st.prefix, r)
			names = append(names, name)
			if _, err := f.Add(fleet.Spec{
				Host: host.Config{
					Name: name,
					// Replicas offer the same resources and share the input
					// source ("hosts that offer the same set of resources").
					Resources: st.resources,
					RandSeed:  7,
					Behavior:  attackers[name],
				},
				Mechanisms: []core.Mechanism{replication.New()},
			}); err != nil {
				return err
			}
		}
		coord.Stages = append(coord.Stages, names)
	}

	ag, err := agent.New("trader", "owner", traderCode, "main")
	if err != nil {
		return err
	}
	report, err := coord.Run(ctx, ag)
	if err != nil {
		return err
	}
	for _, st := range report.Stages {
		fmt.Printf("stage %d: %d/%d votes for the winning state (adopted %s); dissenters: %v\n",
			st.Stage, st.WinnerN, len(st.Replicas), st.WinnerReplica, st.Dissenters)
		for replica, reason := range st.Failures {
			// Failures tell a crashed replica from one that dissented on
			// the content — only the latter executed and voted.
			fmt.Printf("  %s produced no countable vote: %s\n", replica, reason)
		}
	}
	fmt.Printf("route of adopted executions: %v\n", report.Final.Route)
	fmt.Printf("final settled amount: %s (honest value 130-5 = 125)\n", report.Final.State["settled"])
	if report.Final.State["settled"].Int != 125 {
		return fmt.Errorf("replication failed to protect the result")
	}
	fmt.Printf("tolerance bound: a stage of 3 replicas tolerates %d malicious host(s)\n",
		replication.MaxTolerated(3))
	return nil
}
