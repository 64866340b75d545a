// Adaptive: suspicion-driven checking as a running deployment. The
// paper's framework treats a failed check as the *start* of a response
// — suspicion accumulates against a host and drives escalating
// consequences — and the adaptive protection level makes that loop
// concrete: agents crossing hosts in good standing are checked with
// cheap appraisal rules only, while a host whose reputation drops is
// re-executed on every session and finally has agents quarantined.
//
// The demo runs a stream of courier agents over one trusted home host
// and three workers, one of which skims the couriers' audited total.
// Watch the deployment's view of the cheater evolve journey by
// journey: first offense flagged (owner notified, agent continues),
// escalation to full re-execution, quarantine once suspicion crosses
// the threshold — and the reputation spreading to other nodes as
// signed gossip in the surviving agents' baggage.
//
// A fifth node, "archive", never sees a single courier: baggage gossip
// can never reach it. It still converges on the cheater through the
// anti-entropy exchange (reputation/offer rounds with random fleet
// peers) — the fleet-wide fusion of point detections the paper's
// response model needs.
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/fleet"
	"repro/internal/host"
	"repro/internal/protection"
)

const courierCode = `
proc main() {
    total = total + 1
    hops = hops + 1
    migrate("w1", "step")
}
proc step() {
    total = total + 1
    hops = hops + 1
    let at = here()
    if at == "w1" { migrate("w2", "step") }
    if at == "w2" { migrate("w3", "step") }
    if at == "w3" { migrate("home", "fin") }
    done()
}
proc fin() {
    total = total + 1
    hops = hops + 1
    done()
}`

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "adaptive:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	f, err := fleet.New("courier-owner")
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()

	names := []string{"home", "w1", "w2", "w3", "archive"}
	// Owner notices (the paper's "notify the owner") are facts on each
	// node's event bus; one subscription per node collects them.
	var notices []*events.Subscription
	for _, name := range names {
		var behavior host.Behavior
		if name == "w2" {
			// w2 skims every courier that passes through — the
			// manipulation-of-data attack the owner's signed rule
			// (fleet.AuditRules: total == hops) makes visible.
			behavior = fleet.Tamperer{}
		}
		m, err := f.Add(fleet.Spec{
			Host: host.Config{Name: name, Trusted: name == "home", Behavior: behavior},
			// One adaptive stack per node: its own ledger and gate, fed by
			// its own verdicts plus verified gossip from arriving agents.
			Level: protection.LevelAdaptive,
			Node: core.NodeConfig{
				// Anti-entropy: every node trades signed ledger extracts
				// with random fleet peers, so even the traffic-less archive
				// node converges on w2's standing.
				Exchange: core.ExchangeConfig{Peers: names, Interval: 150 * time.Millisecond},
			},
			Pipeline: &events.PipelineConfig{},
		})
		if err != nil {
			return err
		}
		notices = append(notices, m.Pipe.Bus.Subscribe("owner-notices", 0))
	}
	// printNotices prints the owner notices raised since the last call,
	// across all nodes in the order they were published.
	printNotices := func() {
		var evs []events.Event
		for _, sub := range notices {
			for _, ev := range sub.Drain() {
				if ev.Kind == events.KindOwnerNotice {
					evs = append(evs, ev)
				}
			}
		}
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].UnixNano < evs[j].UnixNano })
		for _, ev := range evs {
			fmt.Printf("  [owner notice @%s] %s: %s\n", ev.Node, ev.Agent, ev.Field("reason"))
		}
	}
	node := func(name string) *core.Node { return f.Member(name).Node }

	printReputation := func(at string) {
		body, err := node(at).HandleCall(ctx, "node/reputation", core.ReputationCallBody("w2"))
		if err != nil {
			fmt.Println("  reputation call failed:", err)
			return
		}
		rep, err := core.DecodeReputationReply(body)
		if err != nil || !rep.Known {
			fmt.Printf("  %s's view of w2: no observations yet\n", at)
			return
		}
		fmt.Printf("  %s's view of w2: suspicion %.2f (%d events, %d failures)\n",
			at, rep.Rep.Suspicion, rep.Rep.Events, rep.Rep.Failures)
	}

	for i := 1; i <= 3; i++ {
		id := fmt.Sprintf("courier-%d", i)
		fmt.Printf("--- journey %d: %s ---\n", i, id)
		wire, err := f.AuditedAgent(id, courierCode)
		if err != nil {
			return err
		}
		rcs := f.Watch(id)
		if err := f.Net().SendAgent(ctx, "home", wire); err != nil {
			return err
		}
		res, err := core.AwaitAny(ctx, rcs...)
		printNotices()
		switch {
		case err == nil:
			fmt.Printf("  %s completed (total=%s, %d flagged checks on record)\n",
				id, res.Agent.State["total"], countFailed(res.Verdicts))
		case errors.Is(err, core.ErrDetection):
			fmt.Printf("  %s QUARANTINED: %v\n", id, err)
		default:
			return err
		}
		printReputation("w3") // w3 checks w2's sessions first-hand
		printReputation("w1") // w1 only ever hears about w2 via gossip
	}

	// The archive node saw zero courier traffic — everything it knows
	// about w2 arrived through anti-entropy exchange rounds.
	fmt.Println("--- archive (no agent traffic, exchange only) ---")
	deadline := time.Now().Add(10 * time.Second)
	for {
		body, err := node("archive").HandleCall(ctx, "node/reputation", core.ReputationCallBody("w2"))
		if err != nil {
			return err
		}
		rep, err := core.DecodeReputationReply(body)
		if err != nil {
			return err
		}
		if rep.Known && rep.Rep.Suspicion > 0 {
			fmt.Printf("  archive's view of w2: suspicion %.2f after %d exchange rounds (%d extracts merged)\n",
				rep.Rep.Suspicion, rep.Exchange.Rounds, rep.Exchange.EntriesMerged)
			break
		}
		if time.Now().After(deadline) {
			fmt.Println("  archive never converged (unexpected)")
			break
		}
		time.Sleep(100 * time.Millisecond)
	}

	// The evidence a quarantined agent carries, via the built-in call
	// agentctl's quarantine subcommand uses.
	body, err := node("w3").HandleCall(ctx, "node/quarantine", core.QuarantineCallBody("courier-3"))
	if err != nil {
		return err
	}
	q, err := core.DecodeQuarantineReply(body)
	if err != nil {
		return err
	}
	if q.Held {
		fmt.Println("--- quarantine evidence at w3 ---")
		for _, v := range q.Verdicts {
			if !v.OK {
				fmt.Printf("  %s\n", v)
			}
		}
	}
	return nil
}

func countFailed(vs []core.Verdict) int {
	n := 0
	for _, v := range vs {
		if !v.OK {
			n++
		}
	}
	return n
}
