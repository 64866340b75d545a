// Package fleet is the one place a platform node is assembled. Hohl's
// framework is a fixed per-host pipeline — check the previous session,
// run this one, prepare departure — and a tampered state is only
// detected and attributed to the right host if every deployment wires
// that pipeline the same way. Open builds one node in one fixed order
// and closes it in reverse; Fleet puts any number of them on one fabric
// with one registry and one agent owner. cmd/agenthost, the examples
// and every harness (bench, campaign, scale, the mechanism tests via
// platformtest) go through here; internal/doccheck fails the build of
// the next hand-rolled keys → host → stack → node → register loop.
//
// Assembly order: event pipeline (if asked) → protection stack (a Level
// or an explicit mechanism list) → host, recording execution traces iff
// an assembled mechanism requests the execution log → core.NewNode with
// Mechanisms, Policy, Admission, Events and DataDir wired from what was
// just built. Member.Close runs node → stack → pipeline, so a delivery
// racing Close resolves with core.ErrNodeClosed and never reaches a
// closed WAL.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/faultnet"
	"repro/internal/host"
	"repro/internal/protection"
	"repro/internal/sigcrypto"
	"repro/internal/transport"
)

// Spec describes one node in the vocabulary of the packages it is
// built from: Host, Protection and Node are passed through to
// host.New, protection.Assemble and core.NewNode for what a deployment
// genuinely varies (behaviour, feed, workers, queue depth, exchange,
// the verdict tap). Everything Open can work out it overwrites, so a
// caller cannot set it wrongly: Host.Registry and Host.RecordTrace;
// Protection.DataDir, Events and OnPersistError; Node.Host, Net,
// Mechanisms, Events and DataDir, plus Node.Policy and Node.Admission
// whenever a Level is assembled. Outcomes come back through the
// receipts (Run, Watch), and owner notices and persistence failures
// through the member's bus (Pipeline) and node/health.
type Spec struct {
	// Host needs at least Name. Keys may be nil: Open then generates the
	// identity (set them to reopen a node under the identity it had).
	Host host.Config
	// Level selects the protection preset. The zero value with nil
	// Mechanisms means protection.LevelNone.
	Level protection.Level
	// Mechanisms, when non-nil, is a hand-assembled mechanism list used
	// instead of a Level (instances are per node). Node.Policy and
	// Node.Admission are then the caller's.
	Mechanisms []core.Mechanism
	// Protection tunes the Level's stack (timers, hooks, adaptive
	// policy); ignored with explicit Mechanisms. Stack persistence
	// failures reach the node's health record (node/health) and its
	// bus, the same channel as the node's own stores.
	Protection protection.Options
	// Node carries workers, queue depth, exchange and the verdict tap.
	Node core.NodeConfig
	// DataDir is the node's one durable root: journal/, quarantine/,
	// evidence/ (node), ledger/ or vigna/ (stack) and flight/ (pipeline)
	// live under it. Empty keeps everything in memory.
	DataDir string
	// Pipeline, when non-nil, opens the node's event pipeline (bus,
	// metrics, flight recorder under DataDir) from this configuration;
	// Node and DataDir are filled in. Nil runs without observability.
	Pipeline *events.PipelineConfig
}

// Member is one assembled node and everything opened for it.
type Member struct {
	// Name is the host's principal name; Keys its signing identity,
	// kept across Fleet.Reopen; DataDir its durable root ("" in memory).
	Name    string
	Keys    *sigcrypto.KeyPair
	DataDir string

	Host  *host.Host
	Stack protection.Stack
	// Pipe is nil unless Spec.Pipeline was set.
	Pipe *events.Pipeline
	Node *core.Node

	srv    *transport.Server // loopback TCP fleets only
	closed bool
	drops  uint64 // Pipe.Drops() when Close reached the pipeline
}

// requestsExecutionLog reports whether any mechanism reads the
// checked session's statement trace (core.ExecutionLogRequester: vigna
// and proof). Only then must hosts pay for recording and retaining it.
func requestsExecutionLog(mechs []core.Mechanism) bool {
	for _, m := range mechs {
		if _, ok := m.(core.ExecutionLogRequester); ok {
			return true
		}
	}
	return false
}

// Open assembles one node on net, in the package's fixed order. On any
// error it closes what it had opened, in reverse, before returning.
func Open(reg *sigcrypto.Registry, net transport.Network, spec Spec) (*Member, error) {
	m := &Member{}
	if err := m.open(reg, net, spec, nil); err != nil {
		return nil, err
	}
	return m, nil
}

// open is Open into an existing Member (Fleet.Reopen refills in place),
// on the fleet's clock when it has one.
func (m *Member) open(reg *sigcrypto.Registry, net transport.Network, spec Spec, clock func() time.Time) (err error) {
	*m = Member{Name: spec.Host.Name, Keys: spec.Host.Keys, DataDir: spec.DataDir}
	if spec.Mechanisms != nil && spec.Level != 0 {
		return fmt.Errorf("fleet: %s: both a Level and explicit Mechanisms given", m.Name)
	}
	defer func() {
		if err != nil {
			err = errors.Join(err, m.Close())
		}
	}()
	if m.Keys == nil {
		if m.Keys, err = sigcrypto.GenerateKeyPair(m.Name); err != nil {
			return err
		}
	}

	ncfg := spec.Node
	if spec.Pipeline != nil {
		pcfg := *spec.Pipeline
		pcfg.Node, pcfg.DataDir = m.Name, spec.DataDir
		if clock != nil {
			pcfg.Now = clock
		}
		if m.Pipe, err = events.Open(pcfg); err != nil {
			return fmt.Errorf("fleet: opening pipeline of %s: %w", m.Name, err)
		}
	}

	// The stack exists before the node does, but its ledger WAL can
	// degrade at any later write: such failures join the node's own in
	// its health record (node/health) and on its bus.
	var node atomic.Pointer[core.Node]
	if spec.Mechanisms != nil {
		m.Stack = protection.Stack{Mechanisms: spec.Mechanisms}
	} else {
		level := spec.Level
		if level == 0 {
			level = protection.LevelNone
		}
		opts := spec.Protection
		opts.DataDir = spec.DataDir
		if m.Pipe != nil {
			opts.Events = m.Pipe.Bus
		}
		if clock != nil {
			opts.Clock = clock
		}
		opts.OnPersistError = func(err error) {
			if n := node.Load(); n != nil {
				n.NotePersistError(err)
			}
		}
		if m.Stack, err = protection.Assemble(level, opts); err != nil {
			return fmt.Errorf("fleet: assembling %s: %w", m.Name, err)
		}
		ncfg.Policy, ncfg.Admission = m.Stack.Policy, m.Stack.Admission
	}

	hcfg := spec.Host
	hcfg.Keys, hcfg.Registry = m.Keys, reg
	hcfg.RecordTrace = requestsExecutionLog(m.Stack.Mechanisms)
	if m.Host, err = host.New(hcfg); err != nil {
		return err
	}

	ncfg.Host, ncfg.Net = m.Host, net
	ncfg.Mechanisms = m.Stack.Mechanisms
	ncfg.Events = m.Pipe
	ncfg.DataDir = spec.DataDir
	if m.Node, err = core.NewNode(ncfg); err != nil {
		return fmt.Errorf("fleet: opening node %s: %w", m.Name, err)
	}
	node.Store(m.Node)
	return nil
}

// Close takes the member off duty: its listener (TCP fleets), then the
// node (intake drains, its WALs flush), then the protection stack's
// durable state, then the event pipeline. Closing a closed member is a
// no-op.
func (m *Member) Close() error {
	if m.closed {
		return nil
	}
	m.closed = true
	var errs []error
	if m.srv != nil {
		errs = append(errs, m.srv.Close())
	}
	if m.Node != nil {
		errs = append(errs, m.Node.Close())
	}
	errs = append(errs, m.Stack.Close())
	m.drops = m.Pipe.Drops()
	errs = append(errs, m.Pipe.Close())
	return errors.Join(errs...)
}

// EventDrops is the whole-life subscriber drop total of the member's
// pipeline (0 without one). Close freezes it once node and stack are
// down, so nothing can publish any more, and before the pipeline's bus
// forgets its subscribers.
func (m *Member) EventDrops() uint64 {
	if m.closed {
		return m.drops
	}
	return m.Pipe.Drops()
}

// Fleet is a set of members on one fabric, sharing a key registry and
// one agent owner. It is not safe for concurrent use; the nodes it
// holds are.
type Fleet struct {
	// Reg is the deployment's PKI; every member and the owner are in it.
	Reg *sigcrypto.Registry
	// Owner signs the agents' appraisal rules (see AuditedAgent).
	Owner *sigcrypto.KeyPair
	// Clock, when set before the first Add, replaces time.Now in every
	// member's adaptive stack and event pipeline (virtual-time
	// campaigns). Nil means time.Now.
	Clock func() time.Time

	// view is a principal's sending side of the fabric, WrapNet's
	// interceptors included.
	view    func(name string) transport.Network
	inproc  *transport.InProc     // nil on loopback TCP
	tcp     *transport.TCPNetwork // nil in process
	fabric  *faultnet.Fabric      // nil unless NewFaulty
	members []*Member             // Add order
	byName  map[string]*Member
}

// New creates an empty in-process fleet whose agents belong to owner.
func New(owner string) (*Fleet, error) {
	keys, err := sigcrypto.GenerateKeyPair(owner)
	if err != nil {
		return nil, err
	}
	f := &Fleet{Reg: sigcrypto.NewRegistry(), Owner: keys, byName: make(map[string]*Member), inproc: transport.NewInProc()}
	f.view = func(string) transport.Network { return f.inproc }
	return f, f.Reg.RegisterKeyPair(keys)
}

// NewTCP creates an empty fleet whose members each serve on a loopback
// TCP listener — the deployment shape of cmd/agenthost in one process.
func NewTCP(owner string) (*Fleet, error) {
	f, err := New(owner)
	if err != nil {
		return nil, err
	}
	f.inproc, f.tcp = nil, transport.NewTCPNetwork(nil)
	f.view = func(string) transport.Network { return f.tcp }
	return f, nil
}

// NewFaulty creates an empty in-process fleet whose members send
// through a fault-injecting fabric seeded with seed. Kill/restart hooks
// stay with the caller (Fabric().SetHooks), typically Member.Close and
// Reopen.
func NewFaulty(owner string, seed int64) (*Fleet, error) {
	f, err := New(owner)
	if err != nil {
		return nil, err
	}
	f.fabric = faultnet.New(f.inproc, seed)
	f.view = f.fabric.Node
	return f, nil
}

// Fabric returns the fault-injecting fabric of a NewFaulty fleet, nil
// otherwise.
func (f *Fleet) Fabric() *faultnet.Fabric { return f.fabric }

// WrapNet interposes a network wrapper (an attack interceptor) between
// the fabric and every member added afterwards, each over its own view
// of the fabric. Deliveries still arrive through the fabric's own
// registry.
func (f *Fleet) WrapNet(wrap func(transport.Network) transport.Network) {
	view := f.view
	f.view = func(name string) transport.Network { return wrap(view(name)) }
}

// Net is the owner's view of the fabric: what launches, audits and
// coordinators send through.
func (f *Fleet) Net() transport.Network { return f.view(f.Owner.ID()) }

// Add opens a member from spec and puts it on the fabric.
func (f *Fleet) Add(spec Spec) (*Member, error) {
	if _, dup := f.byName[spec.Host.Name]; dup {
		return nil, fmt.Errorf("fleet: duplicate member %s", spec.Host.Name)
	}
	m := &Member{}
	if err := f.open(m, spec); err != nil {
		return nil, err
	}
	f.members = append(f.members, m)
	f.byName[m.Name] = m
	return m, nil
}

// Reopen brings a closed member back from spec under the name, keys
// and DataDir it had — a restart: host, stack and node are built anew,
// so what the node remembers is what its WALs replay. m is refilled in
// place.
func (f *Fleet) Reopen(m *Member, spec Spec) error {
	if !m.closed {
		return fmt.Errorf("fleet: reopening %s: still open", m.Name)
	}
	spec.Host.Name, spec.Host.Keys, spec.DataDir = m.Name, m.Keys, m.DataDir
	return f.open(m, spec)
}

// open assembles spec into m and publishes it on the fabric.
func (f *Fleet) open(m *Member, spec Spec) error {
	if err := m.open(f.Reg, f.view(spec.Host.Name), spec, f.Clock); err != nil {
		return err
	}
	if f.tcp == nil {
		f.inproc.Register(m.Name, m.Node)
		return nil
	}
	srv, err := transport.Serve("127.0.0.1:0", m.Node)
	if err != nil {
		return errors.Join(err, m.Close())
	}
	m.srv = srv
	f.tcp.AddHost(m.Name, srv.Addr())
	return nil
}

// Member returns the named member, nil if there is none.
func (f *Fleet) Member(name string) *Member { return f.byName[name] }

// Members returns every member in Add order, closed ones included.
func (f *Fleet) Members() []*Member { return f.members }

// Nodes maps every member's name to its node (planner.NodeFleet's
// shape).
func (f *Fleet) Nodes() map[string]*core.Node {
	nodes := make(map[string]*core.Node, len(f.members))
	for _, m := range f.members {
		nodes[m.Name] = m.Node
	}
	return nodes
}

// Close closes every member still open, then the fabric's client side.
func (f *Fleet) Close() error {
	var errs []error
	for _, m := range f.members {
		errs = append(errs, m.Close())
	}
	if f.tcp != nil {
		f.tcp.Close()
	}
	return errors.Join(errs...)
}

// Watch registers interest in the agent's terminal outcome on every
// open member, so a completion, quarantine or failure at any hop
// surfaces instead of timing out. Call it before launching.
func (f *Fleet) Watch(agentID string) []*core.Receipt {
	receipts := make([]*core.Receipt, 0, len(f.members))
	for _, m := range f.members {
		if !m.closed {
			receipts = append(receipts, m.Node.Watch(agentID))
		}
	}
	return receipts
}

// Run launches the agent on the named member and blocks until the
// itinerary reaches a terminal outcome anywhere in the fleet, returning
// that outcome and its error.
func (f *Fleet) Run(ctx context.Context, start string, ag *agent.Agent) (core.Result, error) {
	m := f.byName[start]
	if m == nil {
		return core.Result{}, fmt.Errorf("fleet: no member %s to launch on", start)
	}
	receipts := f.Watch(ag.ID)
	if _, err := m.Node.Launch(ctx, ag); err != nil {
		return core.Result{}, err
	}
	return core.AwaitAny(ctx, receipts...)
}
