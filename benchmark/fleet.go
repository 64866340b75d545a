package main

// All use of the repository's packages to build and tear down a fleet
// lives in this file. It configures a node the way `cmd/agenthost
// -level adaptive` does and sets only Host, Net, Mechanisms, Policy,
// Workers, QueueDepth, DataDir, SessionOptions and Events; it uses none
// of the A/B switches ROADMAP schedules for deletion.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"

	"repro/internal/agent"
	"repro/internal/agentlang"
	"repro/internal/appraisal"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/host"
	"repro/internal/policy"
	"repro/internal/protection"
	"repro/internal/sigcrypto"
	"repro/internal/stopwatch"
	"repro/internal/transport"
	"repro/internal/value"
)

// ownerNode is the principal that owns every agent, and the node name
// on spans the driver records itself.
const ownerNode = "owner"

// intakeWorkers is the per-node intake worker count.
const intakeWorkers = 2

// fleetSpec says what to build.
type fleetSpec struct {
	homes     int
	malicious []bool // per worker: tampers with every session it runs
	plain     bool   // protection.LevelNone instead of LevelAdaptive
	tcp       bool   // loopback TCP instead of InProc
	dataDir   string // root for durable state; "" keeps everything in memory
	window    int    // most itineraries in flight; sizes the intake queues
	tr        *tracer
}

// fleet is a running set of nodes on one network.
type fleet struct {
	net      transport.Network // what the owner launches through
	nodes    map[string]*core.Node
	ledgers  []*policy.Ledger
	pipes    []*events.Pipeline
	owner    *sigcrypto.KeyPair
	rules    appraisal.RuleSet
	tampered atomic.Int64          // sessions a malicious worker manipulated
	timer    *stopwatch.PhaseTimer // sign&verify accounting; traced fleets only
	stats    netStats              // traced fleets only
	closers  []func() error        // run in reverse
}

// tamperer is the malicious host: it adds 1000 to the audited total
// after every session and counts the sessions it did that to.
type tamperer struct{ count *atomic.Int64 }

func (tamperer) WrapEnv(env agentlang.Env) agentlang.Env { return env }
func (tamperer) TamperState(st value.State)              { st["total"] = value.Int(st["total"].Int + 1000) }
func (t tamperer) TamperRecord(*host.SessionRecord)      { t.count.Add(1) }

func homeName(i int) string   { return fmt.Sprintf("h%02d", i) }
func workerName(i int) string { return fmt.Sprintf("w%03d", i) }

// tenByteFeed is every host's data offering: ten-byte elements, as on
// the paper's input axis. Only bulk programs read it.
func tenByteFeed(string, string) (value.Value, error) { return value.Str("0123456789"), nil }

// buildFleet constructs and starts every node. On error it closes what
// it had started.
func buildFleet(spec fleetSpec) (_ *fleet, err error) {
	f := &fleet{nodes: make(map[string]*core.Node)}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if spec.tr != nil {
		f.timer = &stopwatch.PhaseTimer{}
	}
	reg := sigcrypto.NewRegistry()
	f.owner, err = sigcrypto.GenerateKeyPair(ownerNode)
	if err != nil {
		return nil, err
	}
	if err := reg.RegisterKeyPair(f.owner); err != nil {
		return nil, err
	}
	f.rules = appraisal.RuleSet{appraisal.MustRule("total-tracks-hops", "total == hops")}

	var inproc *transport.InProc
	var tcp *transport.TCPNetwork
	if spec.tcp {
		tcp = transport.NewTCPNetwork(nil)
		f.net = tcp
		f.closers = append(f.closers, func() error { tcp.Close(); return nil })
	} else {
		inproc = transport.NewInProc()
		f.net = inproc
	}

	add := func(name string, trusted bool, behavior host.Behavior) error {
		keys, err := sigcrypto.GenerateKeyPair(name)
		if err != nil {
			return err
		}
		h, err := host.New(host.Config{
			Name: name, Keys: keys, Registry: reg, Trusted: trusted, Behavior: behavior,
			Feed: tenByteFeed,
		})
		if err != nil {
			return err
		}
		nodeDir := ""
		if spec.dataDir != "" {
			nodeDir = filepath.Join(spec.dataDir, name)
		}
		pipe, err := events.Open(events.PipelineConfig{Node: name, DataDir: nodeDir})
		if err != nil {
			return err
		}
		f.closers = append(f.closers, pipe.Close)
		f.pipes = append(f.pipes, pipe)

		level := protection.LevelAdaptive
		if spec.plain {
			level = protection.LevelNone
		}
		opts := protection.Options{
			DataDir: nodeDir,
			Events:  pipe.Bus,
			// First offense quarantines, so an itinerary's outcome is a
			// function of its route and the malicious placement alone.
			AdaptivePolicy: policy.ReputationConfig{FirstOffenseQuarantines: true},
		}
		var sess host.SessionOptions
		var nodeNet transport.Network = f.net
		if spec.tr != nil {
			opts.Timer = f.timer
			opts.ExecHook = &procHook{tr: spec.tr, node: name, outer: spanReexec}
			sess.ExtraHook = &procHook{tr: spec.tr, node: name, outer: spanSession, cycle: "work"}
			nodeNet = &tracedNet{inner: f.net, tr: spec.tr, node: name, stats: &f.stats}
		}
		stack, err := protection.Assemble(level, opts)
		if err != nil {
			return err
		}
		f.closers = append(f.closers, stack.Close)
		if stack.Ledger != nil {
			f.ledgers = append(f.ledgers, stack.Ledger)
		}
		mechs := stack.Mechanisms
		if spec.tr != nil {
			mechs = make([]core.Mechanism, len(stack.Mechanisms))
			for i, m := range stack.Mechanisms {
				if mechs[i], err = traceMechanism(m, spec.tr, name); err != nil {
					return err
				}
			}
		}
		node, err := core.NewNode(core.NodeConfig{
			Host:           h,
			Net:            nodeNet,
			Mechanisms:     mechs,
			Policy:         stack.Policy,
			Workers:        intakeWorkers,
			QueueDepth:     spec.window + 1,
			DataDir:        nodeDir,
			SessionOptions: sess,
			Events:         pipe,
		})
		if err != nil {
			return err
		}
		f.closers = append(f.closers, node.Close)
		f.nodes[name] = node

		var ep transport.Endpoint = node
		if spec.tr != nil {
			ep = &tracedEndpoint{inner: node, tr: spec.tr, node: name}
		}
		if tcp == nil {
			inproc.Register(name, ep)
			return nil
		}
		srv, err := transport.Serve("127.0.0.1:0", ep)
		if err != nil {
			return err
		}
		f.closers = append(f.closers, srv.Close)
		tcp.AddHost(name, srv.Addr())
		return nil
	}

	for i := 0; i < spec.homes; i++ {
		if err := add(homeName(i), true, nil); err != nil {
			return nil, err
		}
	}
	for i, bad := range spec.malicious {
		var b host.Behavior
		if bad {
			b = tamperer{count: &f.tampered}
		}
		if err := add(workerName(i), false, b); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// close stops every node: listener, node, protection stack, event
// pipeline, in that order per node, as agenthost does on SIGTERM.
func (f *fleet) close() error {
	var errs []error
	for i := len(f.closers) - 1; i >= 0; i-- {
		errs = append(errs, f.closers[i]())
	}
	f.closers = nil
	return errors.Join(errs...)
}

// newAgent parses the program and sets the variables it works on: the
// audited counters, the cycle's sum, the collected inputs.
func newAgent(id, code string) (*agent.Agent, error) {
	ag, err := agent.New(id, ownerNode, code, "main")
	if err != nil {
		return nil, err
	}
	ag.SetVar("total", value.Int(0))
	ag.SetVar("hops", value.Int(0))
	ag.SetVar("sum", value.Int(0))
	ag.SetVar("got", value.List())
	return ag, nil
}

// buildAgent parses, signs and marshals one agent: the program, its
// variables, the owner-signed appraisal rules.
func (f *fleet) buildAgent(id, code string) ([]byte, error) {
	ag, err := newAgent(id, code)
	if err != nil {
		return nil, err
	}
	if err := appraisal.Attach(ag, f.rules, f.owner); err != nil {
		return nil, err
	}
	return ag.Marshal()
}

// launch hands one wire image to its home, as agentctl would.
func (f *fleet) launch(ctx context.Context, home string, wire []byte) error {
	return f.net.SendAgent(ctx, home, wire)
}

// outcome is what the owner can read off a terminal receipt.
type outcome struct {
	completed bool     // the task finished
	detected  bool     // a failed check stopped the agent
	blamed    []string // the checked host of every failed verdict
	total     int64    // audited counters of the final state
	hops      int64
	visits    int // nodes that processed the agent: sessions run, plus the detecting node
	err       string
}

// waiter wraps one node's receipt for one agent.
type waiter struct{ rc *core.Receipt }

// watch registers interest in the agent's terminal outcome at node.
// Call it before launching.
func (f *fleet) watch(node, id string) waiter { return waiter{f.nodes[node].Watch(id)} }

func (w waiter) done() <-chan struct{} { return w.rc.Done() }

func (w waiter) outcome() outcome {
	res, ok := w.rc.Result()
	if !ok {
		return outcome{err: "no terminal outcome"}
	}
	var o outcome
	for _, v := range res.Verdicts {
		if !v.OK {
			o.blamed = append(o.blamed, v.CheckedHost)
		}
	}
	if res.Agent != nil {
		o.total = res.Agent.State["total"].Int
		o.hops = res.Agent.State["hops"].Int
		o.visits = res.Agent.Hop
	}
	switch {
	case res.Err == nil:
		o.completed = true
	case errors.Is(res.Err, core.ErrDetection):
		o.detected = true
		o.visits++
	default:
		o.err = res.Err.Error()
	}
	return o
}

// walStats sums the durable stores' backend counters over the fleet,
// read through the node/metrics built-in as agentctl reads them.
func (f *fleet) walStats(ctx context.Context) (appends, syncs, synced int64, err error) {
	for name, n := range f.nodes {
		body, err := n.HandleCall(ctx, "node/metrics", core.MetricsCallBody())
		if err != nil {
			return 0, 0, 0, fmt.Errorf("node/metrics at %s: %w", name, err)
		}
		mr, err := core.DecodeMetricsReply(body)
		if err != nil {
			return 0, 0, 0, err
		}
		for _, w := range mr.WALs {
			appends += w.Stats.Appends
			syncs += w.Stats.Syncs
			synced += w.Stats.SyncedRecords
		}
	}
	return appends, syncs, synced, nil
}

// ledgerHosts is the mean number of hosts a node's reputation ledger
// tracks.
func (f *fleet) ledgerHosts() float64 {
	if len(f.ledgers) == 0 {
		return 0
	}
	total := 0
	for _, l := range f.ledgers {
		total += len(l.Snapshot(0))
	}
	return float64(total) / float64(len(f.ledgers))
}

// eventDrops sums the events the nodes' buses dropped on subscribers.
func (f *fleet) eventDrops() uint64 {
	var total uint64
	for _, p := range f.pipes {
		total += p.Drops()
	}
	return total
}

// signVerify reads the accumulated sign&verify time of a traced fleet.
func (f *fleet) signVerify() int64 {
	if f.timer == nil {
		return 0
	}
	return int64(f.timer.Get(stopwatch.PhaseSignVerify))
}
