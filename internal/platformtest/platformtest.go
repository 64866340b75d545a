// Package platformtest is the testing.TB adapter over internal/fleet
// for the mechanism packages' integration tests: an in-process fleet
// whose setup errors fail the test, whose members close with it, and
// which collects verdicts (OnVerdict) and the outcomes Run awaited.
//
// The platform API is asynchronous (accept-and-queue intake, receipt
// completion); Run wraps the launch-then-await-terminal dance so
// mechanism tests keep the shape of the old synchronous contract.
package platformtest

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/host"
	"repro/internal/sigcrypto"
	"repro/internal/transport"
)

// Timeout bounds one whole itinerary in tests.
const Timeout = 60 * time.Second

// Bed is a running multi-host deployment.
type Bed struct {
	TB  testing.TB
	Reg *sigcrypto.Registry
	// Owner is the registered key pair of "owner", the principal NewAgent
	// builds agents for.
	Owner *sigcrypto.KeyPair
	// Net is what nodes send through (possibly an attack interceptor
	// wrapped around the in-process network).
	Net transport.Network

	fleet *fleet.Fleet

	mu        sync.Mutex
	verdicts  []core.Verdict
	completed []*agent.Agent
	aborted   bool
}

// New creates an empty test bed, closed when the test finishes.
func New(tb testing.TB) *Bed {
	f, err := fleet.New("owner")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		if err := f.Close(); err != nil {
			tb.Errorf("closing test bed: %v", err)
		}
	})
	return &Bed{TB: tb, Reg: f.Reg, Owner: f.Owner, Net: f.Net(), fleet: f}
}

// WrapNet interposes a network wrapper (e.g. an attack interceptor).
// Call before AddHost; nodes created afterwards send through the
// wrapped network.
func (b *Bed) WrapNet(wrap func(transport.Network) transport.Network) {
	b.fleet.WrapNet(wrap)
	b.Net = b.fleet.Net()
}

// HostOptions configures one host in the bed.
type HostOptions struct {
	Trusted bool
	// Mechanisms builds the node's mechanism list; instances must be
	// per-node, hence a factory. May be nil.
	Mechanisms func() []core.Mechanism
	// Configure mutates the host config (resources, behaviour). May be
	// nil.
	Configure func(*host.Config)
	// Policy is the node's verdict policy; nil quarantines on every
	// failed check.
	Policy core.VerdictPolicy
}

// AddHost adds a host + node to the bed.
func (b *Bed) AddHost(name string, opts HostOptions) *core.Node {
	b.TB.Helper()
	spec := fleet.Spec{
		Host: host.Config{Name: name, Trusted: opts.Trusted},
		Node: core.NodeConfig{
			Policy: opts.Policy,
			OnVerdict: func(v core.Verdict) {
				b.mu.Lock()
				defer b.mu.Unlock()
				b.verdicts = append(b.verdicts, v)
			},
		},
	}
	if opts.Configure != nil {
		opts.Configure(&spec.Host)
	}
	if opts.Mechanisms != nil {
		spec.Mechanisms = opts.Mechanisms()
	}
	m, err := b.fleet.Add(spec)
	if err != nil {
		b.TB.Fatal(err)
	}
	return m.Node
}

// Run launches the agent on the named node and blocks until the
// itinerary reaches a terminal outcome anywhere in the bed, returning
// that outcome's error — the asynchronous equivalent of the seed's
// synchronous Launch chain. A finished or quarantined agent joins
// Completed.
func (b *Bed) Run(start string, ag *agent.Agent) error {
	b.TB.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), Timeout)
	defer cancel()
	res, err := b.fleet.Run(ctx, start, ag)
	if res.Agent != nil && (err == nil || res.Aborted) {
		b.mu.Lock()
		b.completed = append(b.completed, res.Agent)
		b.aborted = res.Aborted
		b.mu.Unlock()
	}
	return err
}

// Verdicts returns all verdicts observed so far.
func (b *Bed) Verdicts() []core.Verdict {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]core.Verdict(nil), b.verdicts...)
}

// FailedVerdicts returns the verdicts with OK == false.
func (b *Bed) FailedVerdicts() []core.Verdict {
	var out []core.Verdict
	for _, v := range b.Verdicts() {
		if !v.OK {
			out = append(out, v)
		}
	}
	return out
}

// Completed returns the agents Run saw finish (or abort) and whether
// the last of them was an abort.
func (b *Bed) Completed() ([]*agent.Agent, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]*agent.Agent(nil), b.completed...), b.aborted
}

// NewAgent builds an agent with entry "main".
func (b *Bed) NewAgent(id, code string) *agent.Agent {
	b.TB.Helper()
	ag, err := agent.New(id, b.Owner.ID(), code, "main")
	if err != nil {
		b.TB.Fatal(err)
	}
	return ag
}
