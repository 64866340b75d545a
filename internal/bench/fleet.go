package bench

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/host"
	"repro/internal/protection"
)

// FleetConfig parameterizes a mixed honest/malicious fleet run: many
// agents crossing a deployment where some untrusted hosts tamper with
// agent state. It is the workload the adaptive protection level is
// accountable to — cheap rules against hosts in good standing, full
// re-execution against suspects — measured against LevelRules (cheap,
// misses nothing here by construction) and LevelFull (paranoid).
type FleetConfig struct {
	// Level is the protection stack on every node; the zero value
	// selects LevelAdaptive (the scenario's subject). Pass LevelNone
	// explicitly for an unprotected baseline.
	Level protection.Level
	// Agents is the number of itineraries launched at once.
	Agents int
	// UntrustedHosts is the number of untrusted worker hosts; every
	// agent visits each once, bracketed by a trusted home host that
	// launches and collects.
	UntrustedHosts int
	// MaliciousHosts marks that many of the untrusted hosts malicious
	// (spread over the itinerary, not adjacent): every session they
	// run manipulates the agent's audit total after execution — a
	// manipulation-of-data attack (Fig. 2 area 5) that violates the
	// owner's signed appraisal rule.
	MaliciousHosts int
	// Cycles is the per-session computation (1000-value summation
	// cycles, as in the paper's workload); 0 means DefaultFleetCycles.
	Cycles int
	// Workers is the per-node worker count; 0 means core.DefaultWorkers.
	Workers int
}

// DefaultFleetCycles keeps sessions compute-bound enough that checking
// overhead is measured against real work, as in the paper's tables
// (which weigh protection against 1- and 10000-cycle sessions; 60 sits
// where sign/package overhead is visible but not the whole session).
const DefaultFleetCycles = 60

// FleetResult is one fleet run's outcome ledger.
type FleetResult struct {
	Level   protection.Level
	Elapsed time.Duration
	// Agents = Completed + Quarantined + Failed.
	Agents      int
	Completed   int
	Quarantined int
	Failed      int
	// TamperedSessions counts sessions a malicious host actually
	// manipulated; DetectedTampered counts how many of those some
	// node's failed verdict blamed (the detection-parity criterion:
	// LevelAdaptive must not miss a session LevelFull catches).
	TamperedSessions int
	DetectedTampered int
	// FailedVerdicts counts all failed verdicts produced fleet-wide.
	FailedVerdicts int
}

// ItinerariesPerSecond is the fleet's throughput metric.
func (r FleetResult) ItinerariesPerSecond() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Agents) / r.Elapsed.Seconds()
}

// maliciousSet spreads m malicious hosts over n untrusted positions so
// two malicious hosts are not adjacent on the itinerary (adjacency is
// the documented collusion blind spot of the example mechanism, a
// separate scenario from this one).
func maliciousSet(n, m int) map[int]bool {
	set := make(map[int]bool, m)
	for i := 0; i < m && i < n; i++ {
		set[i*n/m] = true
	}
	return set
}

// RunFleet launches cfg.Agents itineraries through the fleet and
// returns the outcome ledger once every journey has terminated.
func RunFleet(cfg FleetConfig) (FleetResult, error) {
	if cfg.Level == 0 {
		cfg.Level = protection.LevelAdaptive
	}
	if cfg.Agents <= 0 {
		cfg.Agents = 8
	}
	if cfg.UntrustedHosts <= 0 {
		cfg.UntrustedHosts = 4
	}
	if cfg.MaliciousHosts < 0 || cfg.MaliciousHosts > cfg.UntrustedHosts {
		return FleetResult{}, fmt.Errorf("bench: %d malicious of %d untrusted hosts", cfg.MaliciousHosts, cfg.UntrustedHosts)
	}
	if cfg.MaliciousHosts*2 > cfg.UntrustedHosts {
		// maliciousSet cannot keep malicious hosts non-adjacent past
		// half the itinerary, and adjacent cheaters are the example
		// mechanism's documented collusion blind spot — a different
		// scenario than the detection-parity one this harness measures.
		return FleetResult{}, fmt.Errorf("bench: %d malicious hosts of %d cannot be kept non-adjacent (collusion is out of scope)", cfg.MaliciousHosts, cfg.UntrustedHosts)
	}
	if cfg.Cycles <= 0 {
		cfg.Cycles = DefaultFleetCycles
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	f, err := fleet.New("fleet-owner")
	if err != nil {
		return FleetResult{}, err
	}
	defer func() { _ = f.Close() }()

	// Ground truth and detection ledgers, shared across nodes.
	var mu sync.Mutex
	tampered := make(map[string]bool)
	detected := make(map[string]bool)
	failedVerdicts := 0
	malicious := maliciousSet(cfg.UntrustedHosts, cfg.MaliciousHosts)
	maliciousName := make(map[string]bool, len(malicious))

	untrusted := make([]string, cfg.UntrustedHosts)
	for i := range untrusted {
		untrusted[i] = fmt.Sprintf("u%d", i)
		if malicious[i] {
			maliciousName[untrusted[i]] = true
		}
	}

	addNode := func(name string, trusted bool, behavior host.Behavior) error {
		_, err := f.Add(fleet.Spec{
			Host:  host.Config{Name: name, Trusted: trusted, Behavior: behavior},
			Level: cfg.Level,
			Node: core.NodeConfig{
				Workers:    cfg.Workers,
				QueueDepth: cfg.Agents + 1,
				OnVerdict: func(v core.Verdict) {
					if v.OK {
						return
					}
					mu.Lock()
					failedVerdicts++
					if maliciousName[v.CheckedHost] {
						detected[fleet.SessionKey(v.AgentID, v.CheckedHop)] = true
					}
					mu.Unlock()
				},
			},
		})
		return err
	}

	if err := addNode("home", true, nil); err != nil {
		return FleetResult{}, err
	}
	for i, name := range untrusted {
		var behavior host.Behavior
		if malicious[i] {
			behavior = fleet.Tamperer{OnSession: func(agentID string, hop int) {
				mu.Lock()
				tampered[fleet.SessionKey(agentID, hop)] = true
				mu.Unlock()
			}}
		}
		if err := addNode(name, false, behavior); err != nil {
			return FleetResult{}, err
		}
	}

	// Home, then every untrusted host in order, then back home.
	code := fleet.RouteCode("home", untrusted, cfg.Cycles)
	receipts := make([][]*core.Receipt, cfg.Agents)
	wires := make([][]byte, cfg.Agents)
	for i := range wires {
		id := fmt.Sprintf("fleet-%03d", i)
		if wires[i], err = f.AuditedAgent(id, code); err != nil {
			return FleetResult{}, err
		}
		receipts[i] = f.Watch(id)
	}

	res := FleetResult{Level: cfg.Level, Agents: cfg.Agents}
	begin := time.Now()
	for i := range wires {
		if err := f.Net().SendAgent(ctx, "home", wires[i]); err != nil {
			return FleetResult{}, fmt.Errorf("bench: launching fleet agent %d: %w", i, err)
		}
	}
	for i, rcs := range receipts {
		out, err := core.AwaitAny(ctx, rcs...)
		switch {
		case err == nil:
			res.Completed++
		case errors.Is(err, core.ErrDetection):
			res.Quarantined++
		case out.Err != nil:
			res.Failed++
		default:
			return FleetResult{}, fmt.Errorf("bench: fleet agent %d: %w", i, err)
		}
	}
	res.Elapsed = time.Since(begin)

	mu.Lock()
	res.TamperedSessions = len(tampered)
	res.FailedVerdicts = failedVerdicts
	for k := range tampered {
		if detected[k] {
			res.DetectedTampered++
		}
	}
	mu.Unlock()
	return res, nil
}
