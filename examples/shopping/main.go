// Shopping: the paper's motivating scenario (§1) — an agent comparing
// prices across shops, where "although an airline as a big company is
// trustworthy, one does not want to depend on the goodwill of the
// company's host when comparing different flight prizes".
//
// The agent visits three shops, remembers the lowest quote, and places
// the order on the way home. One shop manipulates the agent's collected
// minimum to steal the sale; the reference-states mechanism on the next
// shop detects the modification, quarantines the agent, and produces
// the full-state evidence the owner needs ("the owner is able to prove
// his/her damage in case of a fraud", §5.1).
//
// State appraisal runs alongside as a second line of defence; note that
// this particular attack keeps the appraisal rules satisfied — the
// limitation §3.1 describes — so only re-execution catches it.
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/agent"
	"repro/internal/appraisal"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/host"
	"repro/internal/refproto"
	"repro/internal/value"
)

const shopperCode = `
proc main() {
    best = 999999
    bestShop = ""
    quotes = {}
    budget = 500
    migrate("airline-a", "visit")
}
proc visit() {
    let price = read("flight-price")
    quotes[here()] = price
    if price < best {
        best = price
        bestShop = here()
    }
    if here() == "airline-a" { migrate("airline-b", "visit") }
    if here() == "airline-b" { migrate("airline-c", "visit") }
    migrate("home", "order")
}
proc order() {
    if best <= budget {
        act("book", bestShop, best)
        budget = budget - best
    }
    done()
}`

func main() {
	fmt.Println("=== honest marketplace ===")
	if err := run(nil); err != nil {
		fmt.Println("unexpected:", err)
		os.Exit(1)
	}

	fmt.Println()
	fmt.Println("=== airline-b manipulates the collected minimum ===")
	// airline-b overwrites the agent's best quote with its own higher
	// price and points bestShop at itself — a manipulation-of-data
	// attack (Fig. 2, area 5).
	err := run(attack.StateMutation{Mutate: func(st value.State) {
		st["best"] = value.Int(420)
		st["bestShop"] = value.Str("airline-b")
	}})
	if err == nil {
		fmt.Println("unexpected: manipulation went undetected")
		os.Exit(1)
	}
	if errors.Is(err, core.ErrDetection) {
		fmt.Println("fraud detected and agent quarantined before the order was placed")
	} else {
		fmt.Println("unexpected failure:", err)
		os.Exit(1)
	}
}

func run(airlineBBehavior host.Behavior) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// alice owns the agent; the fleet registers her key so hosts can
	// verify the rules she signs.
	f, err := fleet.New("alice")
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()

	prices := map[string]int64{"airline-a": 310, "airline-b": 420, "airline-c": 280}
	for _, name := range []string{"home", "airline-a", "airline-b", "airline-c"} {
		cfg := host.Config{Name: name, Trusted: name == "home"}
		if p, ok := prices[name]; ok {
			cfg.Resources = map[string]value.Value{"flight-price": value.Int(p)}
		}
		if name == "airline-b" {
			cfg.Behavior = airlineBBehavior
		}
		if name == "home" {
			cfg.Sink = func(agentID, action string, args []value.Value) error {
				fmt.Printf("  home books: %s %v\n", action, args)
				return nil
			}
		}
		if _, err := f.Add(fleet.Spec{
			Host: cfg,
			// A hand-assembled stack: owner rules inside the example
			// mechanism, whose one signature per hop covers them.
			Mechanisms: refproto.New(refproto.Config{}, appraisal.New()),
			Node: core.NodeConfig{
				OnVerdict: func(v core.Verdict) {
					if !v.OK {
						fmt.Println(" ", v)
					}
				},
			},
		}); err != nil {
			return err
		}
	}

	ag, err := agent.New("shopper", "alice", shopperCode, "main")
	if err != nil {
		return err
	}
	// Owner-signed appraisal rules: the budget can never go negative,
	// and the chosen quote must be one the agent actually collected.
	rules := appraisal.RuleSet{
		appraisal.MustRule("no-overdraft", "budget >= 0"),
		appraisal.MustRule("best-positive", "best > 0"),
	}
	if err := appraisal.Attach(ag, rules, f.Owner); err != nil {
		return err
	}
	res, err := f.Run(ctx, "home", ag)
	if err != nil {
		return err
	}
	fmt.Printf("  itinerary %v\n", res.Agent.Route)
	fmt.Printf("  best quote %s from %s; remaining budget %s\n",
		res.Agent.State["best"], res.Agent.State["bestShop"], res.Agent.State["budget"])
	return nil
}
