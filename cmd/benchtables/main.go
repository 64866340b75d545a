// Command benchtables regenerates the paper's evaluation artifacts:
// Tables 1 and 2 (§5.3) and the sweep series of DESIGN.md §6, plus the
// adaptive-fleet trajectory file (BENCH_fleet.json) that tracks the
// policy layer's throughput/detection numbers across PRs.
//
// Usage:
//
//	benchtables                  # both tables + shape comparison
//	benchtables -tables=false -series overhead
//	benchtables -quick           # smaller sweeps, skips 10000-cycle rows
//	benchtables -series all
//	benchtables -tables=false -fleet -fleet-out BENCH_fleet.json
//	benchtables -tables=false -fleet -fleet-agents 32 -fleet-hosts 8 -fleet-workers 2
//	benchtables -tables=false -campaign -campaign-out BENCH_campaign.json
//	benchtables -tables=false -scale -scale-nodes 500 -scale-itins 10000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/protection"
	"repro/internal/scale"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
}

func run() error {
	tables := flag.Bool("tables", true, "regenerate Tables 1 and 2")
	series := flag.String("series", "", "sweep series to run: overhead|replication|trace|proof|all")
	quick := flag.Bool("quick", false, "smaller parameter ranges (for smoke runs)")
	fleet := flag.Bool("fleet", false, "run the mixed honest/malicious fleet scenario")
	fleetOut := flag.String("fleet-out", "BENCH_fleet.json", "trajectory file for the fleet numbers")
	fleetAgents := flag.Int("fleet-agents", 16, "fleet scenario: itineraries per run")
	fleetHosts := flag.Int("fleet-hosts", 6, "fleet scenario: untrusted hosts on the itinerary")
	fleetMalicious := flag.Int("fleet-malicious", 2, "fleet scenario: malicious hosts in the mixed runs")
	fleetWorkers := flag.Int("fleet-workers", 4, "fleet scenario: per-node intake workers")
	camp := flag.Bool("campaign", false, "run the adversary campaign suite (churn, partitions, restarts, Sybil pressure)")
	campOut := flag.String("campaign-out", "BENCH_campaign.json", "score file for the campaign suite")
	scaleRun := flag.Bool("scale", false, "run the fleet-scale harness (one durable run, then the fixed vs planner routing A/B)")
	scaleOut := flag.String("scale-out", "BENCH_scale.json", "measurement file for the scale numbers")
	scaleNodes := flag.Int("scale-nodes", 500, "scale harness: total nodes (homes + workers)")
	scaleItins := flag.Int("scale-itins", 10000, "scale harness: concurrent itineraries")
	scaleHops := flag.Int("scale-hops", 3, "scale harness: untrusted hops per itinerary")
	scaleWorkers := flag.Int("scale-workers", 2, "scale harness: per-node intake workers")
	scaleMalicious := flag.Int("scale-malicious", 0, "scale harness: malicious workers (0 = workers/16)")
	scaleConc := flag.Int("scale-conc", 256, "scale harness: in-flight itinerary bound")
	scaleDataDir := flag.String("scale-datadir", "", "scale harness: durable-state root (empty = fresh temp dir)")
	flag.Parse()

	out := os.Stdout
	if *tables {
		progress := func(msg string) { fmt.Fprintf(os.Stderr, "running %s...\n", msg) }
		rows, err := measureTables(progress, *quick)
		if err != nil {
			return err
		}
		bench.FormatTable1(out, rows)
		fmt.Fprintln(out)
		bench.FormatTable2(out, rows)
		fmt.Fprintln(out)
		bench.FormatShapeComparison(out, rows)
		fmt.Fprintln(out)
	}

	runSeries := func(name string) error {
		switch name {
		case "overhead":
			cycles := []int{1, 10, 100, 1000, 10000}
			if *quick {
				cycles = []int{1, 10, 100}
			}
			points, err := bench.SeriesOverhead(cycles, []int{1, 100})
			if err != nil {
				return err
			}
			bench.FormatSeries(out, "Series A: protected/plain overall factor vs computation share",
				[]string{"plain_ms", "prot_ms", "factor", "cycle_pct"}, points)
		case "replication":
			sizes := []int{1, 3, 5, 7}
			if *quick {
				sizes = []int{1, 3}
			}
			points, err := bench.SeriesReplication(sizes)
			if err != nil {
				return err
			}
			bench.FormatSeries(out, "Series B: replication cost and tolerance vs replica-set size",
				[]string{"time_ms", "cost_vs_1", "tolerated"}, points)
		case "trace":
			cycles := []int{1, 10, 100, 1000}
			if *quick {
				cycles = []int{1, 10}
			}
			points, err := bench.SeriesTrace(cycles)
			if err != nil {
				return err
			}
			bench.FormatSeries(out, "Series C: trace size and audit cost vs per-session work",
				[]string{"trace_entries", "audit_ms", "sessions"}, points)
		case "proof":
			iters := []int{100, 1000, 10000}
			if *quick {
				iters = []int{100, 1000}
			}
			points, err := bench.SeriesProof(iters, 8)
			if err != nil {
				return err
			}
			bench.FormatSeries(out, "Series D: proof spot-check vs full recheck",
				[]string{"spot_opened", "full_opened", "spot_ms", "full_ms"}, points)
		default:
			return fmt.Errorf("unknown series %q", name)
		}
		fmt.Fprintln(out)
		return nil
	}

	switch *series {
	case "":
	case "all":
		for _, s := range []string{"overhead", "replication", "trace", "proof"} {
			if err := runSeries(s); err != nil {
				return err
			}
		}
	default:
		if err := runSeries(*series); err != nil {
			return err
		}
	}

	if *fleet {
		fcfg := bench.FleetConfig{Agents: *fleetAgents, UntrustedHosts: *fleetHosts, Workers: *fleetWorkers}
		if err := runFleet(*fleetOut, fcfg, *fleetMalicious, *quick); err != nil {
			return err
		}
	}
	if *camp {
		if err := runCampaigns(*campOut); err != nil {
			return err
		}
	}
	if *scaleRun {
		scfg := scale.Config{
			Nodes:          *scaleNodes,
			Itineraries:    *scaleItins,
			Hops:           *scaleHops,
			Workers:        *scaleWorkers,
			MaliciousNodes: *scaleMalicious,
			Concurrency:    *scaleConc,
			Durable:        true,
			DataDir:        *scaleDataDir,
		}
		if *quick {
			scfg.Nodes, scfg.Itineraries = 64, 512
		}
		if err := runScale(*scaleOut, scfg); err != nil {
			return err
		}
	}
	return nil
}

// scaleFile is the BENCH_scale.json layout: one durable run at fleet
// scale with its detection gate, plus the routing A/B (fixed pre-drawn
// routes vs reputation-aware planner routing with admission control)
// on the same staged fleet.
type scaleFile struct {
	GeneratedAt    string           `json:"generated_at"`
	Durable        scale.Result     `json:"durable"`
	DetectionMatch bool             `json:"detection_match"`
	Routing        *scale.PlannerAB `json:"routing,omitempty"`
}

// runScale executes the fleet-scale runs and writes the measurement
// file. Durable state goes to a fresh temp directory unless the
// caller pins one, and is removed afterwards either way (the
// measurement is the artifact, not the WALs).
func runScale(outPath string, cfg scale.Config) error {
	if cfg.DataDir == "" {
		dir, err := os.MkdirTemp("", "scale-*")
		if err != nil {
			return err
		}
		cfg.DataDir = dir
	}
	defer os.RemoveAll(cfg.DataDir)
	fmt.Fprintf(os.Stderr, "running scale: %d nodes, %d itineraries, durable...\n",
		cfg.Nodes, cfg.Itineraries)
	dur, err := scale.Run(cfg)
	if err != nil {
		return err
	}
	// The routing A/B runs the same fleet shape memory-only: the gate it
	// pins is detection parity under planner routing and admission
	// control, not WAL behaviour, and the run above already covers the
	// durable path.
	rcfg := cfg
	rcfg.Durable = false
	rcfg.DataDir = ""
	fmt.Fprintf(os.Stderr, "running routing A/B: %d nodes, %d itineraries (fixed then planner)...\n",
		rcfg.Nodes, rcfg.Itineraries)
	rab, err := scale.RunPlannerAB(rcfg)
	if err != nil {
		return err
	}
	out := scaleFile{
		GeneratedAt:    time.Now().UTC().Format(time.RFC3339),
		Durable:        dur,
		DetectionMatch: dur.DetectionMatch(),
		Routing:        &rab,
	}
	enc, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(enc, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("scale numbers written to %s\n", outPath)
	fmt.Printf("  durable:   %8.1f itin/s  p50 %7.1fms  p99 %7.1fms  rss %6.1fMB  syncs %d  mean batch %.2f\n",
		dur.ItinerariesPerSec, dur.P50MS, dur.P99MS, dur.PeakRSSMB, dur.WALSyncs, dur.WALMeanBatch)
	fmt.Printf("  detection match %v (tampered %d, detected %d, honest quarantines %d)\n",
		out.DetectionMatch, dur.TamperedSessions, dur.DetectedTampered, dur.HonestQuarantined)
	fmt.Printf("  fixed:     %8.1f itin/s  p50 %7.1fms  p99 %7.1fms  tampered %d detected %d\n",
		rab.Fixed.ItinerariesPerSec, rab.Fixed.P50MS, rab.Fixed.P99MS,
		rab.Fixed.TamperedSessions, rab.Fixed.DetectedTampered)
	fmt.Printf("  planner:   %8.1f itin/s  p50 %7.1fms  p99 %7.1fms  refusals %d replans %d spillovers %d shed %d\n",
		rab.Planner.ItinerariesPerSec, rab.Planner.P50MS, rab.Planner.P99MS,
		rab.Planner.AdmissionRefused, rab.Planner.Replans, rab.Planner.Spillovers, rab.Planner.ShedItineraries)
	fmt.Printf("  routing detection match %v (planner undetected %d, honest quarantines %d/%d)\n",
		rab.DetectionMatch, rab.Planner.UndetectedTampered,
		rab.Fixed.HonestQuarantined, rab.Planner.HonestQuarantined)
	return nil
}

// campaignFile is the BENCH_campaign.json layout: one Score per canned
// scenario plus the summary values the acceptance criteria track — the
// worst honest false-positive rate across all scenarios and whether
// the restart-chaos drill proved the no-free-reset invariant.
type campaignFile struct {
	GeneratedAt        string  `json:"generated_at"`
	HonestFPMax        float64 `json:"honest_fp_max"`
	AllConverged       bool    `json:"all_non_sybil_converged"`
	RestartNoFreeReset bool    `json:"restart_no_free_reset"`
	// EventDropsTotal sums every scenario's bus-subscriber drops — the
	// suite-level check that the observability plane kept up (excluded
	// from per-scenario fingerprints; reported here, not hidden).
	EventDropsTotal uint64           `json:"event_drops_total"`
	Scenarios       []campaign.Score `json:"scenarios"`
}

// runCampaigns executes the canned campaign suite and writes the score
// file. Scores are deterministic per scenario (seeded faults, virtual
// clock); only the elapsed/throughput fields vary between machines.
func runCampaigns(outPath string) error {
	out := campaignFile{GeneratedAt: time.Now().UTC().Format(time.RFC3339), AllConverged: true}
	for _, cfg := range campaign.Scenarios() {
		fmt.Fprintf(os.Stderr, "running campaign %s...\n", cfg.Name)
		s, err := campaign.Run(cfg)
		if err != nil {
			return fmt.Errorf("campaign %s: %w", cfg.Name, err)
		}
		out.Scenarios = append(out.Scenarios, s)
		if s.HonestFPRate > out.HonestFPMax {
			out.HonestFPMax = s.HonestFPRate
		}
		if s.AdversaryIdentities == 1 && !s.Converged {
			out.AllConverged = false
		}
		if s.NoFreeResetJudged {
			out.RestartNoFreeReset = s.NoFreeReset
		}
		out.EventDropsTotal += s.EventDrops
	}
	enc, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(enc, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("campaign scores written to %s (honest FP max %.3f, restart no-free-reset %v, event drops %d)\n",
		outPath, out.HonestFPMax, out.RestartNoFreeReset, out.EventDropsTotal)
	return nil
}

// fleetRun is one scenario's record in the trajectory file.
type fleetRun struct {
	Scenario        string  `json:"scenario"`
	Level           string  `json:"level"`
	Agents          int     `json:"agents"`
	UntrustedHosts  int     `json:"untrusted_hosts"`
	MaliciousHosts  int     `json:"malicious_hosts"`
	ElapsedMs       float64 `json:"elapsed_ms"`
	ItinerariesPerS float64 `json:"itineraries_per_s"`
	Completed       int     `json:"completed"`
	Quarantined     int     `json:"quarantined"`
	Failed          int     `json:"failed"`
	Tampered        int     `json:"tampered_sessions"`
	Detected        int     `json:"detected_tampered"`
	FailedVerdicts  int     `json:"failed_verdicts"`
}

// convergenceRun records the disjoint-traffic anti-entropy scenario:
// two sub-fleets with zero shared agent traffic, a malicious host seen
// by only one, and the exchange rounds until the other sub-fleet's
// gates escalate.
type convergenceRun struct {
	FleetNodes          int     `json:"fleet_nodes"`
	Malicious           string  `json:"malicious_host"`
	SeedSuspicion       float64 `json:"seed_suspicion"`
	CleanBeforeExchange bool    `json:"clean_before_exchange"`
	Rounds              int     `json:"rounds"`
	Converged           bool    `json:"converged"`
	MinRemoteSuspicion  float64 `json:"min_remote_suspicion"`
	ElapsedMs           float64 `json:"elapsed_ms"`
}

// federationArmRun is one mode of the federation A/B.
type federationArmRun struct {
	Mode               string  `json:"mode"`
	Rounds             int     `json:"rounds"`
	Messages           int     `json:"messages"`
	Converged          bool    `json:"converged"`
	SeedSuspicion      float64 `json:"seed_suspicion"`
	MinRemoteSuspicion float64 `json:"min_remote_suspicion"`
	ElapsedMs          float64 `json:"elapsed_ms"`
}

// federationRun records the flat-vs-hierarchical exchange A/B at equal
// fleet size plus the urgent-piggyback exposure probe.
type federationRun struct {
	FleetNodes           int              `json:"fleet_nodes"`
	Aggregators          []string         `json:"aggregators"`
	Flat                 federationArmRun `json:"flat"`
	Hierarchical         federationArmRun `json:"hierarchical"`
	UrgentExposureRPCs   int              `json:"urgent_exposure_rpcs"`
	UrgentEnvelopeMerges int64            `json:"urgent_envelope_merges"`
	UrgentLearned        bool             `json:"urgent_learned"`
}

// fleetFile is the BENCH_fleet.json layout. The derived numbers are
// the acceptance values future PRs track: adaptive throughput relative
// to the cheap-rules baseline on an all-honest fleet, detection parity
// with LevelFull on the mixed fleet, the exchange rounds a disjoint
// sub-fleet needs to converge on a cheater it never met, and the
// federation A/B (hierarchical rounds must stay at or under the flat
// baseline with fewer total exchange messages, and a fresh urgent
// detection must cross to a member in one RPC).
type fleetFile struct {
	GeneratedAt               string          `json:"generated_at"`
	AdaptiveVsRulesHonest     float64         `json:"adaptive_vs_rules_honest_throughput_ratio"`
	AdaptiveDetectionRate     float64         `json:"adaptive_mixed_detection_rate"`
	DisjointConvergenceRounds int             `json:"disjoint_convergence_rounds"`
	Disjoint                  *convergenceRun `json:"disjoint_convergence,omitempty"`
	Federation                *federationRun  `json:"federation,omitempty"`
	Runs                      []fleetRun      `json:"runs"`
}

// runFleet measures the fleet scenarios and writes the trajectory
// file. cfg carries the caller's shape (agents, hosts, workers); the
// mixed scenarios run with malicious tampering hosts.
func runFleet(outPath string, cfg bench.FleetConfig, malicious int, quick bool) error {
	if quick {
		cfg.Agents, cfg.UntrustedHosts, cfg.Cycles = 6, 4, 2
	}
	if malicious > cfg.UntrustedHosts/2 {
		return fmt.Errorf("-fleet-malicious %d exceeds half of %d untrusted hosts (routes cannot keep cheaters non-adjacent)", malicious, cfg.UntrustedHosts)
	}
	scenarios := []struct {
		name      string
		level     protection.Level
		malicious int
	}{
		{"honest", protection.LevelRules, 0},
		{"honest", protection.LevelAdaptive, 0},
		{"honest", protection.LevelFull, 0},
		{"mixed", protection.LevelRules, malicious},
		{"mixed", protection.LevelAdaptive, malicious},
		{"mixed", protection.LevelFull, malicious},
	}
	out := fleetFile{GeneratedAt: time.Now().UTC().Format(time.RFC3339)}
	var honestRules, honestAdaptive float64
	for _, sc := range scenarios {
		c := cfg
		c.Level = sc.level
		c.MaliciousHosts = sc.malicious
		fmt.Fprintf(os.Stderr, "running fleet %s/%s...\n", sc.name, sc.level)
		res, err := bench.RunFleet(c)
		if err != nil {
			return err
		}
		out.Runs = append(out.Runs, fleetRun{
			Scenario:        sc.name,
			Level:           sc.level.String(),
			Agents:          res.Agents,
			UntrustedHosts:  c.UntrustedHosts,
			MaliciousHosts:  c.MaliciousHosts,
			ElapsedMs:       float64(res.Elapsed.Microseconds()) / 1000,
			ItinerariesPerS: res.ItinerariesPerSecond(),
			Completed:       res.Completed,
			Quarantined:     res.Quarantined,
			Failed:          res.Failed,
			Tampered:        res.TamperedSessions,
			Detected:        res.DetectedTampered,
			FailedVerdicts:  res.FailedVerdicts,
		})
		switch {
		case sc.name == "honest" && sc.level == protection.LevelRules:
			honestRules = res.ItinerariesPerSecond()
		case sc.name == "honest" && sc.level == protection.LevelAdaptive:
			honestAdaptive = res.ItinerariesPerSecond()
		case sc.name == "mixed" && sc.level == protection.LevelAdaptive:
			if res.TamperedSessions > 0 {
				out.AdaptiveDetectionRate = float64(res.DetectedTampered) / float64(res.TamperedSessions)
			}
		}
	}
	if honestRules > 0 {
		out.AdaptiveVsRulesHonest = honestAdaptive / honestRules
	}

	// The anti-entropy scenario: how many exchange rounds until a
	// sub-fleet with zero shared traffic escalates against a cheater
	// the other sub-fleet caught.
	ccfg := bench.ConvergenceConfig{SubFleetHosts: 3, Agents: 3}
	if quick {
		ccfg.SubFleetHosts, ccfg.Agents = 2, 2
	}
	fmt.Fprintln(os.Stderr, "running fleet disjoint/convergence...")
	conv, err := bench.RunConvergence(ccfg)
	if err != nil {
		return err
	}
	out.DisjointConvergenceRounds = conv.Rounds
	out.Disjoint = &convergenceRun{
		FleetNodes:          conv.FleetNodes,
		Malicious:           conv.Malicious,
		SeedSuspicion:       conv.SeedSuspicion,
		CleanBeforeExchange: conv.CleanBeforeExchange,
		Rounds:              conv.Rounds,
		Converged:           conv.Converged,
		MinRemoteSuspicion:  conv.MinRemoteSuspicion,
		ElapsedMs:           float64(conv.Elapsed.Microseconds()) / 1000,
	}

	// The federation A/B: the same disjoint geometry run flat and
	// hierarchical at equal fleet size, scoring rounds, total exchange
	// messages, and the urgent one-RPC exposure window.
	fedCfg := bench.FederationConfig{}
	if quick {
		fedCfg.SubFleetHosts, fedCfg.Agents = 4, 2
	}
	fmt.Fprintln(os.Stderr, "running fleet federation A/B...")
	fed, err := bench.RunFederation(fedCfg)
	if err != nil {
		return err
	}
	armRun := func(a bench.FederationArm) federationArmRun {
		return federationArmRun{
			Mode:               a.Mode,
			Rounds:             a.Rounds,
			Messages:           a.Messages,
			Converged:          a.Converged,
			SeedSuspicion:      a.SeedSuspicion,
			MinRemoteSuspicion: a.MinRemoteSuspicion,
			ElapsedMs:          float64(a.Elapsed.Microseconds()) / 1000,
		}
	}
	out.Federation = &federationRun{
		FleetNodes:           fed.FleetNodes,
		Aggregators:          fed.Aggregators,
		Flat:                 armRun(fed.Flat),
		Hierarchical:         armRun(fed.Hierarchical),
		UrgentExposureRPCs:   fed.UrgentExposureRPCs,
		UrgentEnvelopeMerges: fed.UrgentEnvelopeMerges,
		UrgentLearned:        fed.UrgentLearned,
	}

	enc, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(enc, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("fleet trajectory written to %s (adaptive/rules honest throughput %.3f, mixed detection rate %.3f, disjoint convergence in %d rounds, federation hier %d rounds/%d msgs vs flat %d/%d, urgent exposure %d rpc)\n",
		outPath, out.AdaptiveVsRulesHonest, out.AdaptiveDetectionRate, out.DisjointConvergenceRounds,
		fed.Hierarchical.Rounds, fed.Hierarchical.Messages, fed.Flat.Rounds, fed.Flat.Messages, fed.UrgentExposureRPCs)
	return nil
}

// measureTables is bench.MeasureTables with an optional quick mode that
// drops the 10000-cycle rows.
func measureTables(progress func(string), quick bool) ([]bench.TableRow, error) {
	if !quick {
		return bench.MeasureTables(progress)
	}
	var rows []bench.TableRow
	for _, w := range bench.PaperWorkloads() {
		if w.Cycles > 1000 {
			w.Cycles = 1000 // quick mode: scale the heavy rows down
		}
		progress(fmt.Sprintf("plain      %s", w))
		plain, err := bench.RunPlain(w)
		if err != nil {
			return nil, err
		}
		progress(fmt.Sprintf("protected  %s", w))
		prot, err := bench.RunProtected(w)
		if err != nil {
			return nil, err
		}
		rows = append(rows, bench.TableRow{Workload: w, Plain: plain, Protected: prot})
	}
	return rows, nil
}
