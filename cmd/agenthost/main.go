// Command agenthost runs one agent platform node behind a TCP
// listener. A deployment is a set of agenthost processes sharing an
// address book and a key directory; agents are injected with agentctl.
//
// Because the shared PKI of the paper's setting has to exist somewhere,
// agenthost persists its public key into -keydir on startup and loads
// every peer key it finds there. Start all hosts with the same -keydir
// (a shared directory suffices for a single-machine deployment) before
// launching agents.
//
// Example (three shells):
//
//	agenthost -name home  -addr :7001 -trusted -keydir /tmp/keys -peers home=:7001,shop=:7002,back=:7003
//	agenthost -name shop  -addr :7002 -keydir /tmp/keys -peers ... -resource price=120
//	agenthost -name back  -addr :7003 -trusted -keydir /tmp/keys -peers ...
//	agentctl  -code shopper.agent -home home -peers ...
//
// Add -data-dir to make a host's bookkeeping durable: its journal,
// quarantine evidence, reputation ledger, and retained traces then
// survive restarts under <data-dir>/<name> (see docs/OPERATIONS.md for
// the layout and the crash-recovery walkthrough). -journal-ttl
// optionally sheds settled journal entries by age.
//
// With -level adaptive, -exchange-interval enables the anti-entropy
// reputation exchange: the node periodically trades signed ledger
// extracts with fleet peers (default: every -peers entry) so suspicion
// converges fleet-wide even between hosts no shared agent ever visits.
// -exchange-peers narrows the partner set and -exchange-budget bounds
// the extracts traded per round; `agentctl reputation` shows each
// node's exchange counters.
//
// -exchange-aggregators runs the exchange as a hierarchical federation
// instead of a flat mesh, and the list alone sets this host's tier: a
// host named in it is an aggregator and exchanges with the other
// aggregators at 4x -exchange-budget; any other host is a member and
// exchanges with the aggregators only. Fresh quarantine-level
// detections additionally ride the reply envelope of every protocol
// call so a member learns them in one RPC. See docs/OPERATIONS.md for
// the rollout walkthrough.
//
// With -level adaptive, -admission-threshold enables ledger-backed
// admission control: a delivery from a host whose local suspicion sits
// at or above the threshold is refused before it enters the intake
// queue — the sender sees the refusal and can route around this host.
// -refuse-when-full (any level) turns a full intake queue into an
// immediate, attributable refusal instead of sender backpressure.
// `agentctl plan` shows each node's admission posture, refusal
// counters, and (for planner-running homes) routing view.
//
// -debug-addr 127.0.0.1:6060 (off by default) serves net/http/pprof and
// a runtime/metrics dump for profiling a live node; see
// docs/OPERATIONS.md.
package main

import (
	"cmp"
	"crypto/ed25519"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/fleet"
	"repro/internal/host"
	"repro/internal/protection"
	"repro/internal/sigcrypto"
	"repro/internal/transport"
	"repro/internal/value"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "agenthost:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("name", "", "host principal name (required)")
	addr := flag.String("addr", "127.0.0.1:0", "TCP listen address")
	trusted := flag.Bool("trusted", false, "mark this host as trusted by agent owners")
	level := flag.String("level", "full", "protection level: none|signed|rules|traces|full|adaptive")
	keydir := flag.String("keydir", "", "shared directory for public keys (required)")
	peers := flag.String("peers", "", "address book: name=host:port,name=host:port,...")
	resources := flag.String("resource", "", "host resources: key=intvalue,key=strvalue,...")
	dataDir := flag.String("data-dir", "", "root directory for durable node state; this host's state lives under <data-dir>/<name> (empty = memory only)")
	journalTTL := flag.Duration("journal-ttl", 0, "shed settled journal entries this long after they settle (0 = keep until JournalLimit evicts)")
	exchangeInterval := flag.Duration("exchange-interval", 0, "anti-entropy reputation exchange round interval (0 = disabled; requires -level adaptive)")
	exchangePeers := flag.String("exchange-peers", "", "exchange partner hosts, comma-separated (empty = every -peers entry except this host)")
	exchangeBudget := flag.Int("exchange-budget", 0, "ledger extracts traded per exchange round (0 = platform default)")
	exchangeAggregators := flag.String("exchange-aggregators", "", "aggregator host names, comma-separated: a federation in which a listed host is an aggregator and any other a member (empty = flat)")
	admissionThreshold := flag.Float64("admission-threshold", 0, "refuse deliveries from hosts at/above this ledger suspicion (0 = admission control off; requires -level adaptive)")
	refuseWhenFull := flag.Bool("refuse-when-full", false, "fast-fail deliveries when the intake queue is full instead of blocking the sender")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and a runtime/metrics dump on this address, e.g. 127.0.0.1:6060 (empty = off; an address without a host is refused)")
	flag.Parse()

	if *name == "" {
		return fmt.Errorf("-name is required")
	}
	if *keydir == "" {
		return fmt.Errorf("-keydir is required")
	}

	lvl, err := protection.ParseLevel(*level)
	if err != nil {
		return err
	}
	// Same refusal idiom as the exchange flags: an operator who set an
	// admission threshold expected deliveries to be refused, and only
	// the adaptive stack carries the ledger that admission reads.
	if *admissionThreshold > 0 && lvl != protection.LevelAdaptive {
		return fmt.Errorf("-admission-threshold requires -level adaptive (the ledger admission reads)")
	}
	if *admissionThreshold < 0 {
		return fmt.Errorf("-admission-threshold must be >= 0")
	}

	if *debugAddr != "" {
		ln, err := serveDebug(*debugAddr)
		if err != nil {
			return err
		}
		defer ln.Close()
		fmt.Printf("agenthost %s: profiles on http://%s/debug/pprof/, runtime metrics on /debug/metrics\n", *name, ln.Addr())
	}

	keys, err := sigcrypto.GenerateKeyPair(*name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*keydir, 0o755); err != nil {
		return err
	}
	keyPath := filepath.Join(*keydir, *name+".pub")
	if err := os.WriteFile(keyPath, []byte(hex.EncodeToString(keys.Public())), 0o644); err != nil {
		return err
	}
	fmt.Printf("agenthost %s: public key written to %s\n", *name, keyPath)

	reg := sigcrypto.NewRegistry()
	if err := reg.RegisterKeyPair(keys); err != nil {
		return err
	}
	if err := loadPeerKeys(reg, *keydir); err != nil {
		return err
	}

	book, err := parseBook(*peers)
	if err != nil {
		return err
	}
	net := transport.NewTCPNetwork(book)

	res, err := parseResources(*resources)
	if err != nil {
		return err
	}
	// Each host gets its own state directory: node bookkeeping
	// (journal/, quarantine/, evidence/), protection state (ledger/,
	// vigna/) and the flight recorder (flight/) share it without
	// colliding.
	nodeDir := ""
	if *dataDir != "" {
		nodeDir = filepath.Join(*dataDir, *name)
		fmt.Printf("agenthost %s: durable state under %s\n", *name, nodeDir)
	}
	exchange, err := exchangeConfig(*name, book, *exchangeInterval, *exchangePeers, *exchangeAggregators, *exchangeBudget)
	if err != nil {
		return err
	}
	if len(exchange.Aggregators) > 0 {
		fmt.Printf("agenthost %s: anti-entropy exchange every %s in a federation of %d aggregators\n", *name, *exchangeInterval, len(exchange.Aggregators))
	} else if exchange.Enabled() {
		fmt.Printf("agenthost %s: anti-entropy exchange every %s with %d peers\n", *name, *exchangeInterval, len(exchange.Peers))
	}
	// One node, assembled the way every harness assembles its nodes
	// (internal/fleet): event pipeline, protection stack, host, node. The
	// pipeline (bus + metrics + flight recorder) is the node's operations
	// surface: every layer publishes into one bus, and `agentctl
	// metrics|watch|flight` read it back through the node's built-in
	// calls. With a data dir the flight recorder persists its window so
	// the last events before a crash replay after restart. The stack's
	// ledger WAL failures land in the node's health record (node/health,
	// `agentctl status`) and on its bus, which is also where this
	// process's own log lines come from (logEvents).
	member, err := fleet.Open(reg, net, fleet.Spec{
		Host:       host.Config{Name: *name, Keys: keys, Trusted: *trusted, Resources: res},
		Level:      lvl,
		Protection: protection.Options{AdmissionThreshold: *admissionThreshold},
		DataDir:    nodeDir,
		Pipeline: &events.PipelineConfig{
			OnPersistError: func(err error) {
				fmt.Fprintf(os.Stderr, "agenthost %s: flight recorder degraded: %v\n", *name, err)
			},
		},
		Node: core.NodeConfig{
			RefuseWhenFull: *refuseWhenFull,
			Exchange:       exchange,
			JournalTTL:     *journalTTL,
		},
	})
	if err != nil {
		return err
	}
	logged := make(chan struct{})
	go func() {
		defer close(logged)
		logEvents(*name, member.Node, member.Pipe.Bus.Subscribe("agenthost-log", logCapacity))
	}()

	// peersRefresh: keys written by hosts started later are picked up on
	// demand when verification first misses. Kept simple: reload on
	// SIGHUP.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if err := loadPeerKeys(reg, *keydir); err != nil {
				fmt.Fprintf(os.Stderr, "agenthost %s: reloading keys: %v\n", *name, err)
			}
		}
	}()

	srv, err := transport.Serve(*addr, member.Node)
	if err != nil {
		return err
	}
	posture := ""
	if *admissionThreshold > 0 {
		posture = fmt.Sprintf(", admission>=%.2f", *admissionThreshold)
	}
	if *refuseWhenFull {
		posture += ", refuse-when-full"
	}
	fmt.Printf("agenthost %s: serving on %s (trusted=%v, level=%s%s)\n", *name, srv.Addr(), *trusted, lvl, posture)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Printf("agenthost %s: shutting down\n", *name)
	// Tear down the listener first so no new calls or deliveries race
	// the store shutdown; the member then stops intake (queued
	// deliveries drain with ErrNodeClosed and the node's WALs flush),
	// the protection stack's durable state, and the event pipeline.
	srvErr := srv.Close()
	if err := member.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "agenthost %s: closing node: %v\n", *name, err)
	}
	<-logged // the pipeline is closed: the last lines are printed
	return srvErr
}

// logCapacity bounds the log subscriber's ring: a burst beyond it
// skips the oldest lines, and node/metrics counts them as drops of
// "agenthost-log".
const logCapacity = 4096

// logEvents prints the node's verdict, owner-notice, completion and
// persistence lines from its own bus until the subscription closes.
// The bus never blocks a worker for a slow reader, so under overload
// lines may be skipped; receipts, node/status and node/health stay
// authoritative.
func logEvents(name string, node *core.Node, sub *events.Subscription) {
	for {
		closed := sub.Closed()
		for _, ev := range sub.Drain() {
			switch ev.Kind {
			case events.KindVerdict:
				if ev.Field("ok") == "true" {
					fmt.Printf("agenthost %s: [%s] agent %s: session at %s OK\n", name, ev.Field("mechanism"), ev.Agent, ev.Host)
				} else {
					fmt.Printf("agenthost %s: [%s] agent %s: ATTACK DETECTED (suspect %s): %s\n", name, ev.Field("mechanism"), ev.Agent, ev.Host, ev.Field("reason"))
				}
			case events.KindOwnerNotice:
				fmt.Printf("agenthost %s: OWNER NOTICE for %s: suspect %s (%s)\n", name, ev.Agent, cmp.Or(ev.Host, "not named"), ev.Field("reason"))
			case events.KindComplete, events.KindQuarantine:
				printOutcome(name, node.Watch(ev.Agent))
			case events.KindPersistError:
				fmt.Fprintf(os.Stderr, "agenthost %s: persistence degraded: %s\n", name, ev.Field("error"))
			}
		}
		if closed {
			return
		}
		<-sub.Ready()
	}
}

// printOutcome prints an agent's terminal line and final state from
// its receipt. The event announcing the outcome is published just
// before the receipt settles, so it waits briefly for it.
func printOutcome(name string, rc *core.Receipt) {
	select {
	case <-rc.Done():
	case <-time.After(time.Second):
		fmt.Printf("agenthost %s: agent %s: no outcome on record\n", name, rc.AgentID())
		return
	}
	res, _ := rc.Result()
	if res.Agent == nil {
		fmt.Printf("agenthost %s: agent %s ended without a record: %v\n", name, rc.AgentID(), res.Err)
		return
	}
	status := "completed"
	if res.Aborted {
		status = "ABORTED"
	}
	fmt.Printf("agenthost %s: agent %s %s after %d hops\n", name, res.Agent.ID, status, res.Agent.Hop)
	fmt.Printf("agenthost %s: final state of %s:\n", name, res.Agent.ID)
	for _, k := range value.SortedKeys(res.Agent.State) {
		fmt.Printf("    %s = %s\n", k, res.Agent.State[k])
	}
}

// exchangeConfig turns the exchange flags into the node's anti-entropy
// exchange configuration: with an interval set, the node trades signed
// reputation extracts with fleet peers (default: every address-book
// entry but itself) so suspicion converges even across hosts no shared
// agent visits. Partial configuration is refused, not silently dropped
// — an operator who set peers, a budget or aggregators expected an
// exchange to run.
func exchangeConfig(self string, book map[string]string, interval time.Duration, peers, aggregators string, budget int) (core.ExchangeConfig, error) {
	if interval <= 0 {
		if peers != "" || budget != 0 || aggregators != "" {
			return core.ExchangeConfig{}, fmt.Errorf("-exchange-peers/-exchange-budget/-exchange-aggregators require -exchange-interval > 0")
		}
		return core.ExchangeConfig{}, nil
	}
	cfg := core.ExchangeConfig{
		Peers:       splitList(peers),
		Interval:    interval,
		Budget:      budget,
		Aggregators: splitList(aggregators),
	}
	if len(cfg.Peers) == 0 {
		for peer := range book {
			if peer != self {
				cfg.Peers = append(cfg.Peers, peer)
			}
		}
	}
	if !cfg.Enabled() {
		return core.ExchangeConfig{}, fmt.Errorf("-exchange-interval set but no exchange peers (set -peers, -exchange-peers or -exchange-aggregators)")
	}
	return cfg, nil
}

func loadPeerKeys(reg *sigcrypto.Registry, dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".pub") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		raw, err := hex.DecodeString(strings.TrimSpace(string(data)))
		if err != nil {
			return fmt.Errorf("key file %s: %w", e.Name(), err)
		}
		id := strings.TrimSuffix(e.Name(), ".pub")
		if err := reg.Register(id, ed25519.PublicKey(raw)); err != nil {
			return fmt.Errorf("key file %s: %w", e.Name(), err)
		}
	}
	return nil
}

// splitList parses a comma-separated list, dropping empty elements.
func splitList(s string) []string {
	var out []string
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			out = append(out, e)
		}
	}
	return out
}

func parseBook(s string) (map[string]string, error) {
	book := make(map[string]string)
	if s == "" {
		return book, nil
	}
	for _, pair := range strings.Split(s, ",") {
		name, addr, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("malformed -peers entry %q (want name=addr)", pair)
		}
		book[strings.TrimSpace(name)] = strings.TrimSpace(addr)
	}
	return book, nil
}

func parseResources(s string) (map[string]value.Value, error) {
	res := make(map[string]value.Value)
	if s == "" {
		return res, nil
	}
	for _, pair := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("malformed -resource entry %q (want key=value)", pair)
		}
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			res[k] = value.Int(n)
		} else {
			res[k] = value.Str(v)
		}
	}
	return res, nil
}
