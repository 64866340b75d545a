package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/policy"
)

// ConvergenceConfig parameterizes the disjoint-traffic fleet scenario:
// two sub-fleets whose agents never cross, a malicious host seen by
// only one of them, and the anti-entropy exchange as the only channel
// by which the other sub-fleet can learn. It measures the tentpole
// claim of the exchange layer — fleet-wide convergence with zero
// shared agent traffic — as exchange rounds to gate escalation. The
// federation A/B runs the same deployment, so this is its configuration
// (MaxRounds counts synchronized rounds); a zero SubFleetHosts means 3
// here.
type ConvergenceConfig = FederationConfig

// ConvergenceResult is the scenario's outcome.
type ConvergenceResult struct {
	// FleetNodes is the total node count; Malicious names the tampering
	// host (a member of sub-fleet A only).
	FleetNodes int
	Malicious  string
	// SeedSuspicion is the highest suspicion any sub-fleet A node holds
	// against the malicious host after the traffic phase — the first-
	// hand detections the exchange must spread.
	SeedSuspicion float64
	// CleanBeforeExchange reports that before any exchange round, every
	// sub-fleet B node was below the gate's escalation threshold for
	// the malicious host (the disjoint-traffic premise).
	CleanBeforeExchange bool
	// Rounds is the number of synchronized exchange rounds (every node
	// stepping once per round) until every sub-fleet B node crossed the
	// escalation threshold; Converged is false if MaxRounds ran out.
	Rounds    int
	Converged bool
	// MinRemoteSuspicion is the lowest suspicion any sub-fleet B node
	// holds against the malicious host at the end.
	MinRemoteSuspicion float64
	// Elapsed is the wall time of the exchange phase.
	Elapsed time.Duration
}

// RunConvergence runs the flat arm of the federation A/B's deployment
// (openDisjoint) in synchronized rounds: the two sub-fleets are built,
// the traffic phase runs (sub-fleet A detects its cheater first-hand,
// sub-fleet B stays oblivious), then every node steps once per round
// until sub-fleet B's gates escalate against the cheater.
func RunConvergence(cfg ConvergenceConfig) (ConvergenceResult, error) {
	if cfg.SubFleetHosts <= 0 {
		cfg.SubFleetHosts = 3
	}
	res := ConvergenceResult{FleetNodes: 2 + 2*cfg.SubFleetHosts}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	d, err := openDisjoint(ctx, cfg, "conv", false)
	if err != nil {
		return res, fmt.Errorf("bench: convergence: %w", err)
	}
	defer func() { _ = d.Close() }()
	res.Malicious, res.SeedSuspicion, res.CleanBeforeExchange = d.malicious, d.seed, d.clean
	res.Rounds, res.MinRemoteSuspicion, res.Elapsed = d.exchange(cfg.MaxRounds, false)
	res.Converged = res.MinRemoteSuspicion >= policy.DefaultEscalateThreshold
	return res, nil
}
