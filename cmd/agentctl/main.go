// Command agentctl operates on a running agenthost deployment: it
// injects mobile agents and inspects the deployment's protection
// state over the nodes' built-in TCP calls.
//
// Subcommands:
//
//	agentctl launch -code shopper.agent -id shopper-1 -owner alice \
//	         -home home -peers home=:7001,shop=:7002,back=:7003
//	agentctl reputation -peers ... <host>
//	agentctl quarantine -peers ... <agent-id>
//	agentctl evidence <path/to/evidence/file.agent>
//	agentctl status -peers ...
//	agentctl metrics -peers ...
//	agentctl metrics -peers ... -prom   # Prometheus text exposition
//	agentctl plan -peers ...
//	agentctl watch -peers ...
//	agentctl flight -peers ... <node>
//
// Invoking agentctl with flags only (no subcommand) is the legacy
// launch form. Delivery is asynchronous: the launch returns once the
// home host has enqueued the agent, and agentctl then polls the
// deployment's built-in node/status call until some host reports a
// terminal outcome (completed, quarantined, or failed). The agent's
// code (agentlang source) decides its own itinerary via migrate().
//
// "reputation" prints every node's local view of one host's standing
// (reputation is per-node knowledge: each node fuses its own verdicts
// plus the signed gossip it verified, so nodes legitimately differ),
// alongside each node's exchange counters — federation role, rounds,
// and the urgent piggyback totals (extracts sent on reply envelopes
// and urgent entries merged off them).
// "quarantine" locates a quarantined agent and prints the verdicts it
// carries as evidence; when the holding node has spilled the agent to
// disk (quarantine eviction on a node with -data-dir), the reply names
// the evidence file on that node. "evidence" inspects such a spilled
// file locally — run it on the node's machine (or on a copy of the
// file) to recover the byte-identical quarantined agent and print the
// verdicts, route, and state it carries. "status" prints every node's
// durability posture via node/health — durable vs memory-only, store
// sizes, and sticky persistence degradation (first/last WAL failure) —
// and exits non-zero when any node is degraded, so it slots into
// monitoring. See docs/OPERATIONS.md.
//
// "plan" prints every node's admission posture — the policy consulted
// on intake, its refusal threshold, and the admission/intake refusal
// counters — plus, on nodes where a planner registered its view, the
// per-host routing table (suspicion, latency EWMA, overload pressure,
// picks, bans). See DESIGN.md §9.
//
// The observability plane (see DESIGN.md §8): "metrics" prints every
// node's event-derived counters, gauges, and histograms plus the
// per-subscriber drop ledger. "watch" tails the fleet's event journals
// live — a cursor poll against each node's node/events call, so it
// needs no transport extension and a watcher that falls behind sees an
// explicit "missed N" line instead of silent loss. "flight" replays
// one node's durable flight-recorder window: after a crash and
// restart, the last events before the crash. See docs/OPERATIONS.md
// for the post-incident walkthrough.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/transport"
	"repro/internal/value"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "agentctl:", err)
		os.Exit(1)
	}
}

func run() error {
	args := os.Args[1:]
	cmd := "launch"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd = args[0]
		args = args[1:]
	}
	switch cmd {
	case "launch":
		return runLaunch(args)
	case "reputation":
		return runReputation(args)
	case "quarantine":
		return runQuarantine(args)
	case "evidence":
		return runEvidence(args)
	case "status":
		return runStatus(args)
	case "metrics":
		return runMetrics(args)
	case "plan":
		return runPlan(args)
	case "watch":
		return runWatch(args)
	case "flight":
		return runFlight(args)
	default:
		return fmt.Errorf("unknown subcommand %q (want launch|reputation|quarantine|evidence|status|metrics|plan|watch|flight)", cmd)
	}
}

// runPlan serves `agentctl plan`: every node's admission posture (the
// policy consulted on intake, its refusal threshold, and the refusal
// counters) via the node/plan built-in, plus — on nodes where a
// planner registered its view — the per-host routing table: suspicion,
// observed latency, decayed overload pressure, picks, and bans.
func runPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	peers := fs.String("peers", "", "address book: name=host:port,...")
	timeout := fs.Duration("timeout", 10*time.Second, "per-call deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	book, err := parsePeers(*peers)
	if err != nil {
		return err
	}
	net := transport.NewTCPNetwork(book)
	defer net.Close()

	for _, peer := range sortedNames(book) {
		body, err := callPeer(net, peer, "plan", core.PlanCallBody(), *timeout)
		if err != nil {
			fmt.Printf("%s: unreachable: %v\n", peer, err)
			continue
		}
		r, err := core.DecodePlanReply(body)
		if err != nil {
			return err
		}
		admission := "admission=off"
		if r.AdmissionEnabled {
			admission = fmt.Sprintf("admission=%s threshold=%.2f", r.AdmissionPolicy, r.AdmissionThreshold)
		}
		fmt.Printf("%s: %s refuse-when-full=%v refused=%d intake-refused=%d\n",
			peer, admission, r.RefuseWhenFull, r.AdmissionRefused, r.IntakeRefused)
		if !r.PlannerEnabled {
			continue
		}
		if len(r.PlannerHosts) == 0 {
			fmt.Println("  planner attached, no hosts observed yet")
			continue
		}
		fmt.Printf("  %-12s %9s %12s %10s %6s %s\n", "host", "suspicion", "latency_ms", "overloads", "picks", "banned")
		for _, h := range r.PlannerHosts {
			banned := ""
			if h.Banned {
				banned = "BANNED"
			}
			fmt.Printf("  %-12s %9.3f %12.2f %10.3f %6d %s\n",
				h.Host, h.Suspicion, h.LatencyEWMAMS, h.Overloads, h.Picks, banned)
		}
	}
	return nil
}

// runStatus serves `agentctl status`: every node's durability posture
// via the node/health built-in. A node whose WAL failed keeps running
// from memory; this is where that degradation becomes visible before
// the restart that would lose state.
func runStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	peers := fs.String("peers", "", "address book: name=host:port,...")
	timeout := fs.Duration("timeout", 10*time.Second, "per-call deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	book, err := parsePeers(*peers)
	if err != nil {
		return err
	}
	net := transport.NewTCPNetwork(book)
	defer net.Close()

	degraded := 0
	fmt.Printf("agentctl: node health across %d nodes:\n", len(book))
	for _, peer := range sortedNames(book) {
		body, err := callPeer(net, peer, "health", core.HealthCallBody(), *timeout)
		if err != nil {
			fmt.Printf("  %-8s unreachable: %v\n", peer, err)
			continue
		}
		h, err := core.DecodeHealthReply(body)
		if err != nil {
			return err
		}
		mode := "memory-only"
		if h.Durable {
			mode = "durable"
		}
		fmt.Printf("  %-8s %s journal=%d quarantine=%d", peer, mode, h.JournalEntries, h.QuarantineEntries)
		if h.EventsEnabled {
			fmt.Printf(" events=%d drops=%d", h.EventsPublished, h.EventDrops)
			if h.FlightRecorder {
				flight := "flight=ok"
				if h.FlightDegraded {
					flight = "flight=DEGRADED"
				}
				fmt.Printf(" %s", flight)
			}
		}
		if !h.Degraded {
			fmt.Println(" ok")
			continue
		}
		degraded++
		fmt.Printf(" DEGRADED (%d persistence failures)\n", h.PersistFailures)
		if h.PersistFailures > 0 {
			fmt.Printf("           first: %s at %s\n", h.FirstPersistError,
				time.Unix(0, h.FirstPersistUnixNano).Format(time.RFC3339))
			fmt.Printf("           last:  %s\n", time.Unix(0, h.LastPersistUnixNano).Format(time.RFC3339))
		}
		if h.FlightDegraded {
			fmt.Printf("           flight recorder WAL degraded; pre-crash events will not survive the next restart\n")
		}
	}
	if degraded > 0 {
		return fmt.Errorf("%d node(s) running with degraded persistence; their reputation/journal state will not survive a restart", degraded)
	}
	return nil
}

// runMetrics serves `agentctl metrics`: every node's event-derived
// counters, gauges, and histograms via the node/metrics built-in, plus
// the per-subscriber drop ledger (the loss the bus contract permits,
// reported rather than hidden).
func runMetrics(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	peers := fs.String("peers", "", "address book: name=host:port,...")
	timeout := fs.Duration("timeout", 10*time.Second, "per-call deadline")
	prom := fs.Bool("prom", false, "emit Prometheus text exposition instead of the human-readable listing")
	if err := fs.Parse(args); err != nil {
		return err
	}
	book, err := parsePeers(*peers)
	if err != nil {
		return err
	}
	net := transport.NewTCPNetwork(book)
	defer net.Close()

	for _, peer := range sortedNames(book) {
		body, err := callPeer(net, peer, "metrics", core.MetricsCallBody(), *timeout)
		if err != nil {
			if *prom {
				fmt.Fprintf(os.Stderr, "%s: unreachable: %v\n", peer, err)
			} else {
				fmt.Printf("%s: unreachable: %v\n", peer, err)
			}
			continue
		}
		r, err := core.DecodeMetricsReply(body)
		if err != nil {
			return err
		}
		if *prom {
			if err := writePromReply(os.Stdout, peer, r); err != nil {
				return err
			}
			continue
		}
		if !r.Enabled {
			fmt.Printf("%s: no event pipeline (journal=%d quarantine=%d)\n", peer, r.JournalEntries, r.QuarantineEntries)
			printNodeGauges(r)
			continue
		}
		s := r.Snapshot
		fmt.Printf("%s: published=%d drops=%d journal=%d quarantine=%d at=%s\n",
			peer, s.Published, s.Drops(), r.JournalEntries, r.QuarantineEntries,
			time.Unix(0, s.AtUnixNano).Format(time.RFC3339))
		for _, name := range s.SortedCounterNames() {
			fmt.Printf("  counter   %-32s %d\n", name, s.Counters[name])
		}
		for _, name := range s.SortedGaugeNames() {
			fmt.Printf("  gauge     %-32s %g\n", name, s.Gauges[name])
		}
		for _, name := range s.SortedHistogramNames() {
			h := s.Histograms[name]
			fmt.Printf("  histogram %-32s count=%d sum=%g\n", name, h.Count, h.Sum)
			for _, b := range h.Buckets {
				le := fmt.Sprintf("%g", b.LE)
				if b.LE < 0 {
					le = "+inf"
				}
				fmt.Printf("              le=%-8s %d\n", le, b.N)
			}
		}
		for _, sub := range s.Subscribers {
			fmt.Printf("  subscriber %-31s received=%d dropped=%d\n", sub.Name, sub.Received, sub.Dropped)
		}
		printNodeGauges(r)
	}
	return nil
}

// printNodeGauges renders the node-owned counters a registry cannot
// see: per-store WAL amortization and the gossip memo counters.
func printNodeGauges(r core.MetricsReply) {
	for _, w := range r.WALs {
		fmt.Printf("  wal       %-32s appends=%d syncs=%d mean_batch=%.2f\n",
			w.Store, w.Stats.Appends, w.Stats.Syncs, w.Stats.MeanBatch())
	}
	if line := gossipMemoLine(r.Exchange); line != "" {
		fmt.Printf("  gossip    %-32s %s\n", "memos", line)
	}
}

// writePromReply renders one node/metrics reply as Prometheus text:
// the registry snapshot via events.WritePrometheus, then the
// node-owned WAL and gossip memo counters, labelled with the peer name
// from the address book so a fleet scrape stays attributable even
// for nodes running without an event pipeline.
func writePromReply(w io.Writer, peer string, r core.MetricsReply) error {
	if r.Enabled {
		if err := events.WritePrometheus(w, r.Snapshot); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE repro_journal_entries gauge\nrepro_journal_entries{node=%q} %d\n# TYPE repro_quarantine_entries gauge\nrepro_quarantine_entries{node=%q} %d\n",
		peer, r.JournalEntries, peer, r.QuarantineEntries); err != nil {
		return err
	}
	for _, st := range r.WALs {
		if _, err := fmt.Fprintf(w, "repro_wal_appends_total{node=%q,store=%q} %d\nrepro_wal_syncs_total{node=%q,store=%q} %d\nrepro_wal_synced_records_total{node=%q,store=%q} %d\n",
			peer, st.Store, st.Stats.Appends, peer, st.Store, st.Stats.Syncs, peer, st.Store, st.Stats.SyncedRecords); err != nil {
			return err
		}
	}
	ex := r.Exchange
	_, err := fmt.Fprintf(w, "repro_gossip_extracts_signed_total{node=%q} %d\nrepro_gossip_extracts_reused_total{node=%q} %d\nrepro_gossip_signatures_checked_total{node=%q} %d\nrepro_gossip_signatures_skipped_total{node=%q} %d\nrepro_gossip_claims_dominated_total{node=%q} %d\n",
		peer, ex.ExtractsSigned, peer, ex.ExtractsReused, peer, ex.VerifyMisses, peer, ex.VerifyHits, peer, ex.ClaimsDominated)
	return err
}

// runWatch serves `agentctl watch`: tail the fleet's event journals
// live. Each node is polled with its own resume cursor against the
// node/events built-in — a bounded batch per poll, so a chatty node
// cannot wedge the watcher, and a watcher that falls behind a node's
// journal ring sees an explicit "missed N" line.
func runWatch(args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	peers := fs.String("peers", "", "address book: name=host:port,...")
	timeout := fs.Duration("timeout", 10*time.Second, "per-call deadline")
	poll := fs.Duration("poll", 500*time.Millisecond, "poll interval")
	kind := fs.String("kind", "", "only print events of this kind (empty = all)")
	tail := fs.Bool("tail", true, "start at each node's journal tail (false = replay the retained journal first)")
	duration := fs.Duration("for", 0, "stop after this long (0 = watch until interrupted)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	book, err := parsePeers(*peers)
	if err != nil {
		return err
	}
	net := transport.NewTCPNetwork(book)
	defer net.Close()

	ctx, cancel := deadlineCtx(*duration)
	defer cancel()

	cursors := make(map[string]uint64, len(book))
	if *tail {
		// Resolve each node's current tail so the watch starts with
		// "what happens next", not a replay of history.
		for _, peer := range sortedNames(book) {
			body, err := callPeer(net, peer, "events", core.EventsCallBody(^uint64(0), 1), *timeout)
			if err != nil {
				continue
			}
			if r, err := core.DecodeEventsReply(body); err == nil && r.Enabled {
				cursors[peer] = r.Next
			}
		}
	}
	fmt.Printf("agentctl: watching %d nodes (poll %s)\n", len(book), *poll)
	ticker := time.NewTicker(*poll)
	defer ticker.Stop()
	for {
		for _, peer := range sortedNames(book) {
			body, err := callPeer(net, peer, "events", core.EventsCallBody(cursors[peer], 0), *timeout)
			if err != nil {
				continue
			}
			r, err := core.DecodeEventsReply(body)
			if err != nil {
				return err
			}
			if !r.Enabled {
				continue
			}
			if r.Missed > 0 && cursors[peer] > 0 {
				fmt.Printf("%s: missed %d events (journal ring overwrote them)\n", peer, r.Missed)
			}
			for _, ev := range r.Events {
				if *kind != "" && ev.Kind != *kind {
					continue
				}
				printEvent(ev)
			}
			cursors[peer] = r.Next
		}
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C:
		}
	}
}

// runFlight serves `agentctl flight <node>`: replay the node's flight
// recorder — the durable window of its most recent events, including
// what it recorded before its last crash.
func runFlight(args []string) error {
	fs := flag.NewFlagSet("flight", flag.ExitOnError)
	peers := fs.String("peers", "", "address book: name=host:port,...")
	timeout := fs.Duration("timeout", 10*time.Second, "per-call deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	node := fs.Arg(0)
	if node == "" {
		return fmt.Errorf("usage: agentctl flight -peers ... <node>")
	}
	book, err := parsePeers(*peers)
	if err != nil {
		return err
	}
	net := transport.NewTCPNetwork(book)
	defer net.Close()

	body, err := callPeer(net, node, "flight", core.FlightCallBody(), *timeout)
	if err != nil {
		return fmt.Errorf("node %s unreachable: %w", node, err)
	}
	r, err := core.DecodeFlightReply(body)
	if err != nil {
		return err
	}
	if !r.Enabled {
		return fmt.Errorf("node %s runs without a flight recorder (no event pipeline or memory-only node)", node)
	}
	fmt.Printf("agentctl: flight recorder of %s: %d events", node, len(r.Events))
	if r.Degraded {
		fmt.Printf(" (recorder WAL DEGRADED — this window will not survive the next crash)")
	}
	fmt.Println()
	for _, ev := range r.Events {
		printEvent(ev)
	}
	return nil
}

// printEvent renders one bus event as a watch/flight output line.
func printEvent(ev events.Event) {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s #%d %-16s", time.Unix(0, ev.UnixNano).Format("15:04:05.000"), ev.Node, ev.Seq, ev.Kind)
	if ev.Agent != "" {
		fmt.Fprintf(&b, " agent=%s", ev.Agent)
	}
	if ev.Host != "" {
		fmt.Fprintf(&b, " host=%s", ev.Host)
	}
	for _, k := range sortedFieldKeys(ev.Fields) {
		fmt.Fprintf(&b, " %s=%q", k, ev.Fields[k])
	}
	fmt.Println(b.String())
}

// sortedFieldKeys sorts an event's extra-field keys for stable output.
func sortedFieldKeys(fields map[string]string) []string {
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func runLaunch(args []string) error {
	fs := flag.NewFlagSet("launch", flag.ExitOnError)
	codePath := fs.String("code", "", "path to agentlang source (required)")
	id := fs.String("id", "agent-1", "agent instance ID")
	owner := fs.String("owner", "owner", "owning principal")
	entry := fs.String("entry", "main", "entry procedure")
	home := fs.String("home", "", "host to launch on (required)")
	peers := fs.String("peers", "", "address book: name=host:port,...")
	timeout := fs.Duration("timeout", 5*time.Minute, "overall journey deadline (0 = launch only, don't track)")
	poll := fs.Duration("poll", 250*time.Millisecond, "status poll interval")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *codePath == "" || *home == "" {
		return fmt.Errorf("-code and -home are required")
	}
	code, err := os.ReadFile(*codePath)
	if err != nil {
		return err
	}
	ag, err := agent.New(*id, *owner, string(code), *entry)
	if err != nil {
		return err
	}
	wire, err := ag.Marshal()
	if err != nil {
		return err
	}

	book, err := parsePeers(*peers)
	if err != nil {
		return err
	}
	net := transport.NewTCPNetwork(book)
	defer net.Close()

	ctx, cancel := deadlineCtx(*timeout)
	defer cancel()

	fmt.Printf("agentctl: launching %s (owner %s, entry %s) on %s\n", *id, *owner, *entry, *home)
	if err := net.SendAgent(ctx, *home, wire); err != nil {
		return fmt.Errorf("launch failed: %w", err)
	}
	fmt.Println("agentctl: accepted; delivery is asynchronous")
	if *timeout == 0 {
		return nil
	}
	return track(ctx, net, book, *id, *poll)
}

// runReputation serves `agentctl reputation <host>`: every peer's
// local view of the host's standing via the node/reputation built-in.
func runReputation(args []string) error {
	fs := flag.NewFlagSet("reputation", flag.ExitOnError)
	peers := fs.String("peers", "", "address book: name=host:port,...")
	timeout := fs.Duration("timeout", 10*time.Second, "per-call deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	subject := fs.Arg(0)
	if subject == "" {
		return fmt.Errorf("usage: agentctl reputation -peers ... <host>")
	}
	book, err := parsePeers(*peers)
	if err != nil {
		return err
	}
	net := transport.NewTCPNetwork(book)
	defer net.Close()

	fmt.Printf("agentctl: reputation of %s across %d nodes:\n", subject, len(book))
	for _, peer := range sortedNames(book) {
		body, err := callPeer(net, peer, "reputation", core.ReputationCallBody(subject), *timeout)
		if err != nil {
			fmt.Printf("  %-8s unreachable: %v\n", peer, err)
			continue
		}
		rep, err := core.DecodeReputationReply(body)
		if err != nil {
			return err
		}
		switch {
		case !rep.Tracked:
			fmt.Printf("  %-8s policy=%s (no reputation ledger)\n", peer, rep.Policy)
		case !rep.Known:
			fmt.Printf("  %-8s policy=%s no observations\n", peer, rep.Policy)
		default:
			fmt.Printf("  %-8s policy=%s suspicion=%.3f events=%d failures=%d updated=%s\n",
				peer, rep.Policy, rep.Rep.Suspicion, rep.Rep.Events, rep.Rep.Failures,
				time.Unix(0, rep.Rep.UpdatedUnixNano).Format(time.RFC3339))
		}
		// Anti-entropy exchange counters, where the node runs (or
		// serves) the reputation exchange loop.
		switch {
		case rep.ExchangeEnabled:
			ex := rep.Exchange
			fmt.Printf("           exchange: role=%s %d rounds (%d failed), sent=%d received=%d merged=%d served=%d last=%s\n",
				exchangeRole(ex), ex.Rounds, ex.Failures, ex.EntriesSent, ex.EntriesReceived, ex.EntriesMerged,
				ex.OffersServed, exchangeLast(ex))
			if ex.UrgentSent > 0 || ex.UrgentMerged > 0 {
				fmt.Printf("           urgent: piggybacked=%d merged=%d\n", ex.UrgentSent, ex.UrgentMerged)
			}
		case rep.Exchange.OffersServed > 0:
			fmt.Printf("           exchange: loop disabled, %d offers served for peers\n", rep.Exchange.OffersServed)
		}
		if line := gossipMemoLine(rep.Exchange); line != "" {
			fmt.Printf("           gossip memos: %s\n", line)
		}
	}
	return nil
}

// gossipMemoLine renders a node's extract-reuse and verify-memo
// counters with their hit rates, and the claims it left out as
// dominated; empty when the node has neither signed nor received an
// extract.
func gossipMemoLine(ex core.ExchangeStats) string {
	share := func(part, rest int64) float64 { return 100 * float64(part) / float64(max(part+rest, 1)) }
	if ex.ExtractsSigned+ex.ExtractsReused+ex.VerifyHits+ex.VerifyMisses+ex.ClaimsDominated == 0 {
		return ""
	}
	return fmt.Sprintf("extracts signed=%d reused=%d (%.0f%% reused), signatures checked=%d skipped=%d (%.0f%% skipped), claims dominated=%d",
		ex.ExtractsSigned, ex.ExtractsReused, share(ex.ExtractsReused, ex.ExtractsSigned),
		ex.VerifyMisses, ex.VerifyHits, share(ex.VerifyHits, ex.VerifyMisses), ex.ClaimsDominated)
}

// exchangeRole renders the federation tier (older nodes report none).
func exchangeRole(ex core.ExchangeStats) string {
	if ex.Role == "" {
		return "flat"
	}
	return ex.Role
}

// exchangeLast renders the most recent round's peer and time.
func exchangeLast(ex core.ExchangeStats) string {
	if ex.LastPeer == "" {
		return "never"
	}
	return fmt.Sprintf("%s@%s", ex.LastPeer, time.Unix(0, ex.LastUnixNano).Format(time.RFC3339))
}

// runQuarantine serves `agentctl quarantine <agent-id>`: locate a
// quarantined agent and print the evidence it carries.
func runQuarantine(args []string) error {
	fs := flag.NewFlagSet("quarantine", flag.ExitOnError)
	peers := fs.String("peers", "", "address book: name=host:port,...")
	timeout := fs.Duration("timeout", 10*time.Second, "per-call deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	agentID := fs.Arg(0)
	if agentID == "" {
		return fmt.Errorf("usage: agentctl quarantine -peers ... <agent-id>")
	}
	book, err := parsePeers(*peers)
	if err != nil {
		return err
	}
	net := transport.NewTCPNetwork(book)
	defer net.Close()

	found := false
	for _, peer := range sortedNames(book) {
		body, err := callPeer(net, peer, "quarantine", core.QuarantineCallBody(agentID), *timeout)
		if err != nil {
			fmt.Printf("  %-8s unreachable: %v\n", peer, err)
			continue
		}
		q, err := core.DecodeQuarantineReply(body)
		if err != nil {
			return err
		}
		switch {
		case q.Held:
			found = true
			fmt.Printf("agentctl: %s held in quarantine at %s (owner %s, %d hops):\n", agentID, peer, q.Owner, q.Hops)
			for _, v := range q.Verdicts {
				fmt.Printf("    %s\n", v)
			}
		case q.Evicted:
			found = true
			fmt.Printf("agentctl: %s was quarantined at %s; retained copy evicted under capacity pressure (status %s)\n",
				agentID, peer, q.Status.Phase)
			if q.Evidence != "" {
				fmt.Printf("agentctl: evidence spilled on %s to %s (inspect there with `agentctl evidence %s`)\n",
					peer, q.Evidence, q.Evidence)
			}
		case q.Status.Phase != core.PhaseUnknown:
			fmt.Printf("  %-8s not quarantined (status %s, flags %d)\n", peer, q.Status.Phase, q.Status.Flags)
		}
	}
	if !found {
		return fmt.Errorf("agent %s is not quarantined on any reachable node", agentID)
	}
	return nil
}

// runEvidence serves `agentctl evidence <path>`: load a spilled
// quarantine evidence file from the local filesystem and print the
// recovered agent — identity, journey, verdicts, and final state.
func runEvidence(args []string) error {
	fs := flag.NewFlagSet("evidence", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	path := fs.Arg(0)
	if path == "" {
		return fmt.Errorf("usage: agentctl evidence <path>")
	}
	ag, err := core.LoadEvidence(path)
	if err != nil {
		return err
	}
	fmt.Printf("agentctl: evidence %s\n", path)
	fmt.Printf("  agent   %s (owner %s)\n", ag.ID, ag.Owner)
	fmt.Printf("  hops    %d, entry %q\n", ag.Hop, ag.Entry)
	if len(ag.Route) > 0 {
		fmt.Printf("  route   %s\n", strings.Join(ag.Route, " -> "))
	}
	if keys := ag.BaggageKeys(); len(keys) > 0 {
		fmt.Printf("  baggage %s\n", strings.Join(keys, ", "))
	}
	if vs := core.AgentVerdicts(ag); len(vs) > 0 {
		fmt.Println("  verdicts:")
		for _, v := range vs {
			fmt.Printf("    %s\n", v)
		}
	}
	if len(ag.State) > 0 {
		fmt.Println("  state:")
		for _, k := range value.SortedKeys(ag.State) {
			fmt.Printf("    %s = %s\n", k, ag.State[k])
		}
	}
	return nil
}

func parsePeers(s string) (map[string]string, error) {
	book := make(map[string]string)
	for _, pair := range strings.Split(s, ",") {
		if pair == "" {
			continue
		}
		name, addr, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("malformed -peers entry %q", pair)
		}
		book[strings.TrimSpace(name)] = strings.TrimSpace(addr)
	}
	if len(book) == 0 {
		return nil, fmt.Errorf("-peers is required")
	}
	return book, nil
}

func sortedNames(book map[string]string) []string {
	names := make([]string, 0, len(book))
	for n := range book {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func deadlineCtx(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout <= 0 {
		return context.WithCancel(context.Background())
	}
	return context.WithTimeout(context.Background(), timeout)
}

// callPeer issues one built-in node call under its own deadline, so a
// hung peer cannot consume the time budget of the peers after it.
func callPeer(net *transport.TCPNetwork, peer, method string, body []byte, timeout time.Duration) ([]byte, error) {
	ctx, cancel := deadlineCtx(timeout)
	defer cancel()
	return net.Call(ctx, peer, core.NodeCallNamespace+"/"+method, body)
}

// track polls every peer's node/status until one reports a terminal
// phase, printing progress transitions along the way.
func track(ctx context.Context, net *transport.TCPNetwork, book map[string]string, agentID string, poll time.Duration) error {
	lastSeen := make(map[string]string)
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		for peer := range book {
			body, err := net.Call(ctx, peer, core.NodeCallNamespace+"/status", core.StatusCallBody(agentID))
			if err != nil {
				if ctx.Err() != nil {
					return fmt.Errorf("tracking %s: %w", agentID, ctx.Err())
				}
				continue // peer unreachable or pre-async build; keep polling others
			}
			st, err := core.DecodeStatusReply(body)
			if err != nil {
				return err
			}
			if st.Phase == core.PhaseUnknown {
				continue
			}
			key := st.Phase + "/" + st.NextHost + "/" + st.Err
			if lastSeen[peer] != key {
				lastSeen[peer] = key
				switch st.Phase {
				case core.PhaseForwarded:
					fmt.Printf("agentctl: %s: %s -> %s\n", peer, st.Phase, st.NextHost)
				case core.PhaseFailed:
					fmt.Printf("agentctl: %s: %s (%s)\n", peer, st.Phase, st.Err)
				default:
					fmt.Printf("agentctl: %s: %s\n", peer, st.Phase)
				}
			}
			if st.Terminal() {
				fmt.Printf("agentctl: journey finished (%s at %s); see that host's output for verdicts and state\n", st.Phase, peer)
				if st.Phase != core.PhaseCompleted {
					return fmt.Errorf("journey ended %s at %s", st.Phase, peer)
				}
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("tracking %s: %w", agentID, ctx.Err())
		case <-ticker.C:
		}
	}
}
