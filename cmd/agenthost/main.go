// Command agenthost runs one agent platform node behind a TCP
// listener. A deployment is a set of agenthost processes sharing one
// manifest file (fleet.Manifest) and a key directory; agents are
// injected with agentctl. The node listens on its own entry's address
// and trusts, like every checker, exactly the hosts the manifest marks
// trusted (sigcrypto.Registry.Trusted); a name with no entry is
// refused. agenthost writes its public key into -keydir on startup and
// loads the key of every listed host it finds there. Start all hosts
// before launching agents:
//
//	agenthost -name home -manifest fleet.txt -keydir /tmp/keys
//	agenthost -name shop -manifest fleet.txt -keydir /tmp/keys -resource price=120
//	agentctl  -code shopper.agent -home home -manifest fleet.txt
//
// Add -data-dir to make a host's bookkeeping durable: its journal,
// quarantine evidence, reputation ledger, and retained traces then
// survive restarts under <data-dir>/<name> (see docs/OPERATIONS.md for
// the layout and the crash-recovery walkthrough). -journal-ttl
// optionally sheds settled journal entries by age.
//
// With -level adaptive, -exchange-interval enables the anti-entropy
// reputation exchange: the node trades signed ledger extracts with the
// other listed hosts, or within the federation the manifest's
// aggregator entries set, so suspicion converges fleet-wide;
// -exchange-budget bounds the extracts per round. See
// docs/OPERATIONS.md.
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
	"repro/internal/shardstore"
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
	name := flag.String("name", "", "host principal name; must have an entry in the manifest (required)")
	manifest := flag.String("manifest", "", "deployment manifest: one line per host, name address [trusted] [aggregator] (required)")
	level := flag.String("level", "full", "protection level: none|signed|rules|traces|full|adaptive")
	keydir := flag.String("keydir", "", "shared directory for public keys (required)")
	resources := flag.String("resource", "", "host resources: key=intvalue,key=strvalue,...")
	dataDir := flag.String("data-dir", "", "root directory for durable node state; this host's state lives under <data-dir>/<name> (empty = memory only)")
	journalTTL := flag.Duration("journal-ttl", 0, "shed settled journal entries this long after they settle (0 = keep until JournalLimit evicts)")
	exchangeInterval := flag.Duration("exchange-interval", 0, "anti-entropy reputation exchange round interval (0 = disabled; requires -level adaptive); the manifest sets the partners")
	exchangeBudget := flag.Int("exchange-budget", 0, "ledger extracts traded per exchange round (0 = platform default)")
	admissionThreshold := flag.Float64("admission-threshold", 0, "refuse deliveries from hosts at/above this ledger suspicion (0 = admission control off; requires -level adaptive)")
	refuseWhenFull := flag.Bool("refuse-when-full", false, "fast-fail deliveries when the intake queue is full instead of blocking the sender")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and a runtime/metrics dump on this address, e.g. 127.0.0.1:6060 (empty = off; an address without a host is refused)")
	flag.Parse()

	if *name == "" || *manifest == "" || *keydir == "" {
		return fmt.Errorf("-name, -manifest and -keydir are required")
	}
	man, err := fleet.ReadManifest(*manifest)
	if err != nil {
		return err
	}
	book, hcfg, err := fromManifest(man, *name)
	if err != nil {
		return err
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
	keyPath, err := writeKeyFile(*keydir, *name, keys.Public())
	if err != nil {
		return err
	}
	fmt.Printf("agenthost %s: public key written to %s\n", *name, keyPath)

	reg := hcfg.Registry
	if err := loadPeerKeys(reg, *keydir, book); err != nil {
		return err
	}
	net := transport.NewTCPNetwork(book)

	hcfg.Keys = keys
	if hcfg.Resources, err = parseResources(*resources); err != nil {
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
	exchange, err := exchangeConfig(*name, man, *exchangeInterval, *exchangeBudget)
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
		Host:       hcfg,
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
			if err := loadPeerKeys(reg, *keydir, book); err != nil {
				fmt.Fprintf(os.Stderr, "agenthost %s: reloading keys: %v\n", *name, err)
			}
		}
	}()

	srv, err := transport.Serve(book[*name], member.Node)
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
	fmt.Printf("agenthost %s: serving on %s (trusted=%v, level=%s%s)\n", *name, srv.Addr(), hcfg.Trusted, lvl, posture)

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

// logEvents prints the node's verdict, owner-notice, completion,
// failure and persistence lines from its own bus until the
// subscription closes. The bus never blocks a worker for a slow
// reader, so under overload lines may be skipped; receipts,
// node/status and node/health stay authoritative.
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
			case events.KindFailed:
				refused := ""
				if by := ev.Field("refused-by"); by != "" {
					refused = " (refused-by " + by + ")"
				}
				fmt.Printf("agenthost %s: agent %s failed: %s%s\n", name, ev.Agent, ev.Field("reason"), refused)
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

// fromManifest is what the manifest tells the host called self: the
// address book, and its host configuration with a registry that trusts
// every entry marked trusted. A name with no entry is refused.
func fromManifest(man *fleet.Manifest, self string) (map[string]string, host.Config, error) {
	e, ok := man.Lookup(self)
	if !ok {
		return nil, host.Config{}, fmt.Errorf("host %q has no entry in the manifest", self)
	}
	reg := sigcrypto.NewRegistry()
	for _, peer := range man.Entries {
		if peer.Trusted {
			reg.Trust(peer.Name)
		}
	}
	return man.Book(), host.Config{Name: self, Trusted: e.Trusted, Registry: reg}, nil
}

// exchangeConfig is the node's anti-entropy exchange: with an interval
// set, it runs over every other listed host, unless the manifest's
// aggregators set a federation (then they alone set the partners). A
// budget without an interval is refused, not dropped.
func exchangeConfig(self string, man *fleet.Manifest, interval time.Duration, budget int) (core.ExchangeConfig, error) {
	if interval <= 0 {
		if budget != 0 {
			return core.ExchangeConfig{}, fmt.Errorf("-exchange-budget requires -exchange-interval > 0")
		}
		return core.ExchangeConfig{}, nil
	}
	cfg := core.ExchangeConfig{Interval: interval, Budget: budget, Aggregators: man.Aggregators()}
	for _, e := range man.Entries {
		if e.Name != self {
			cfg.Peers = append(cfg.Peers, e.Name)
		}
	}
	if !cfg.Enabled() {
		return core.ExchangeConfig{}, fmt.Errorf("-exchange-interval set but the manifest lists no other host")
	}
	return cfg, nil
}

// writeKeyFile publishes pub as <dir>/<name>.pub. Peers starting at
// the same moment scan the directory, so the key is written with
// shardstore.WriteFile, whose temporary file loadPeerKeys skips: a
// reader sees the old key or the new, never a file cut short.
func writeKeyFile(dir, name string, pub ed25519.PublicKey) (string, error) {
	path := filepath.Join(dir, name+".pub")
	if err := shardstore.WriteFile(path, []byte(hex.EncodeToString(pub)), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// loadPeerKeys registers the key file of every host in book found in
// dir; a key file for a name the manifest does not list is ignored
// and logged.
func loadPeerKeys(reg *sigcrypto.Registry, dir string, book map[string]string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".pub") {
			continue
		}
		id := strings.TrimSuffix(e.Name(), ".pub")
		if _, listed := book[id]; !listed {
			fmt.Fprintf(os.Stderr, "agenthost: key file %s ignored: %q has no entry in the manifest\n", e.Name(), id)
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
		if err := reg.Register(id, ed25519.PublicKey(raw)); err != nil {
			return fmt.Errorf("key file %s: %w", e.Name(), err)
		}
	}
	return nil
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
