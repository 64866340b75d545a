// Audit: Vigna's execution-traces protocol (§3.3) end to end.
//
// An agent aggregates sensor readings across three field hosts running
// at the traces protection level. Nothing is checked while it travels —
// hosts only retain traces and forward signed commitments. The attack
// by the middle host therefore succeeds silently, and the agent comes
// home with a wrong total. The owner, suspicious of the result, runs
// the audit: traces are fetched from every host, the journey is
// re-executed session by session, and the first host whose committed
// state cannot be reproduced is identified as the cheater.
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
	"repro/internal/value"
	"repro/internal/vigna"
)

const collectorCode = `
proc main() {
    readings = []
    total = 0
    migrate("field-1", "collect")
}
proc collect() {
    let r = read("sensor")
    readings = append(readings, r)
    total = total + r
    if here() == "field-1" { migrate("field-2", "collect") }
    if here() == "field-2" { migrate("field-3", "collect") }
    migrate("home", "finish")
}
proc finish() { done() }`

func main() {
	if err := run(); err != nil {
		fmt.Println("audit example failed:", err)
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

	sensors := map[string]int64{"field-1": 17, "field-2": 25, "field-3": 40}
	for _, name := range []string{"home", "field-1", "field-2", "field-3"} {
		cfg := host.Config{Name: name, Trusted: name == "home"}
		if s, ok := sensors[name]; ok {
			cfg.Resources = map[string]value.Value{"sensor": value.Int(s)}
		}
		if name == "field-2" {
			// field-2 doubles the running total after execution.
			cfg.Behavior = attack.StateMutation{Mutate: func(st value.State) {
				st["total"] = value.Int(st["total"].Int * 2)
			}}
		}
		// vigna requests the execution log, so the fleet has every host
		// record and retain its traces for audits.
		if _, err := f.Add(fleet.Spec{Host: cfg, Mechanisms: []core.Mechanism{vigna.New()}}); err != nil {
			return err
		}
	}

	ag, err := agent.New("collector", "owner", collectorCode, "main")
	if err != nil {
		return err
	}
	// Run watches every node: the journey ends back home, but a
	// quarantine or failure at a field host should surface immediately
	// too.
	res, err := f.Run(ctx, "home", ag)
	if err != nil {
		return fmt.Errorf("agent did not return: %w", err)
	}
	returned := res.Agent

	fmt.Printf("agent returned: total=%s readings=%s\n", returned.State["total"], returned.State["readings"])
	fmt.Println("owner expected 17+25+40 = 82 — suspicion! starting audit...")

	report, err := vigna.Audit(ctx, vigna.AuditConfig{
		Net:         f.Net(),
		Registry:    f.Reg,
		LaunchState: value.State{},
		LaunchEntry: "main",
	}, returned)
	if err != nil {
		return err
	}
	if report.OK {
		return fmt.Errorf("audit found nothing, but the total is wrong")
	}
	fmt.Printf("audit verdict: host %q cheated in session %d (%s)\n",
		report.Cheater, report.CheatHop, report.Reason)
	fmt.Printf("sessions verified before the cheater: %d\n", report.SessionsChecked)
	for _, d := range report.Details {
		fmt.Println("  ", d)
	}
	return nil
}
