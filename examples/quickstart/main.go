// Quickstart: a protected mobile agent crossing three in-process hosts.
//
// It shows the minimal wiring: a fleet of three hosts (trusted home,
// untrusted worker, trusted return host), the full protection level
// (whole-agent signatures + the reference-states example mechanism),
// and one agent that computes on the untrusted host. Run
// it twice in spirit: the honest pass completes; then the same journey
// with a tampering worker is caught by the next host's checkAfterSession.
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
	"repro/internal/protection"
	"repro/internal/value"
)

const agentCode = `
proc main() {
    # Executed on the home host: set out with a budget.
    budget = 1000
    spent = 0
    migrate("worker", "work")
}
proc work() {
    # Executed on the untrusted worker: buy a unit of work.
    let price = read("price")
    spent = spent + price
    budget = budget - price
    migrate("back", "wrapup")
}
proc wrapup() {
    done()
}`

func main() {
	if err := runJourney("honest run", nil); err != nil {
		fmt.Println("unexpected:", err)
		os.Exit(1)
	}
	fmt.Println()
	err := runJourney("tampering run", attack.DataManipulation{Var: "spent", Val: value.Int(0)})
	if err == nil {
		fmt.Println("unexpected: tampering was not detected")
		os.Exit(1)
	}
	fmt.Println("tampering run aborted as expected:", err)
}

// runJourney wires the deployment and sends one agent through it.
func runJourney(label string, workerBehavior host.Behavior) error {
	fmt.Printf("=== %s ===\n", label)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// The fleet owns the key registry, the in-process network and the
	// owner principal; Add assembles one node (host, protection stack,
	// platform node) and registers it.
	f, err := fleet.New("alice")
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()

	hosts := []host.Config{
		{Name: "home", Trusted: true},
		{Name: "worker", Resources: map[string]value.Value{"price": value.Int(250)}, Behavior: workerBehavior},
		{Name: "back", Trusted: true},
	}
	for _, h := range hosts {
		if _, err := f.Add(fleet.Spec{
			Host: h,
			// Every node runs the same protection stack — here the full
			// level: whole-agent signatures plus next-host re-execution
			// checking (the paper's example mechanism).
			Level: protection.LevelFull,
			Node: core.NodeConfig{
				OnVerdict: func(v core.Verdict) {
					fmt.Println(" ", v)
				},
			},
		}); err != nil {
			return err
		}
	}

	ag, err := agent.New("quickstart-agent", "alice", agentCode, "main")
	if err != nil {
		return err
	}
	// Delivery is accept-and-queue: the launch returns once home
	// enqueued the agent. Run watches every node, so the journey's
	// terminal outcome — completion at "back", or quarantine at the
	// detecting node — surfaces wherever it happens.
	res, err := f.Run(ctx, "home", ag)
	if err != nil {
		return err
	}
	fmt.Printf("  agent %s finished: budget=%s spent=%s route=%v\n",
		res.Agent.ID, res.Agent.State["budget"], res.Agent.State["spent"], res.Agent.Route)
	return nil
}
