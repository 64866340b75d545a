package main

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/agent"
	"repro/internal/agentlang"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/transport"
)

// The decorators below time the layers from outside, through the
// public interfaces a node is configured with. Each forwards every
// call unchanged and records one span around it; none touches the
// arguments or the result.

// tracedMech times the three lifecycle callbacks of a core.Mechanism.
type tracedMech struct {
	inner core.Mechanism
	tr    *tracer
	node  string
	layer string
}

// mechExtensions are the optional interfaces a node discovers on its
// mechanisms by type assertion. A wrapper that hid them would change
// what the node does (no urgent baggage, no exchange, unknown-method
// replies), so a mechanism that has them is wrapped in a type that has
// them too.
type mechExtensions interface {
	core.CallHandler
	core.Exchanger
	core.ExchangePeerUpdater
	core.ExchangeReporter
	core.UrgentProvider
	core.UrgentMerger
	io.Closer
}

type tracedMechExt struct {
	*tracedMech
	mechExtensions
}

// mechLayer maps a mechanism's name to the package that implements it.
var mechLayer = map[string]string{"reputation": "policy.gossip"}

// traceMechanism wraps m. It refuses a mechanism that implements some
// but not all of the extensions: forwarding that mix needs a wrapper
// type of its own, and guessing would not be behaviour-neutral.
func traceMechanism(m core.Mechanism, tr *tracer, node string) (core.Mechanism, error) {
	layer := mechLayer[m.Name()]
	if layer == "" {
		layer = m.Name()
	}
	base := &tracedMech{inner: m, tr: tr, node: node, layer: layer}
	if ext, ok := m.(mechExtensions); ok {
		return tracedMechExt{base, ext}, nil
	}
	_, a := m.(core.CallHandler)
	_, b := m.(core.Exchanger)
	_, c := m.(core.UrgentProvider)
	_, d := m.(core.UrgentMerger)
	_, e := m.(io.Closer)
	if a || b || c || d || e {
		return nil, fmt.Errorf("benchmark: mechanism %q implements a subset of the node's optional interfaces; the tracing wrapper cannot forward it", m.Name())
	}
	return base, nil
}

func (m *tracedMech) Name() string { return m.inner.Name() }

func (m *tracedMech) CheckAfterSession(ctx context.Context, hc *core.HostContext, ag *agent.Agent) (*core.Verdict, error) {
	start := m.tr.now()
	v, err := m.inner.CheckAfterSession(ctx, hc, ag)
	m.tr.add(m.layer+".check", ag.ID, m.node, start, m.tr.now())
	return v, err
}

func (m *tracedMech) PrepareDeparture(ctx context.Context, hc *core.HostContext, ag *agent.Agent, rec *host.SessionRecord) error {
	start := m.tr.now()
	err := m.inner.PrepareDeparture(ctx, hc, ag, rec)
	m.tr.add(m.layer+".depart", ag.ID, m.node, start, m.tr.now())
	return err
}

func (m *tracedMech) CheckAfterTask(ctx context.Context, hc *core.HostContext, ag *agent.Agent, rec *host.SessionRecord) (*core.Verdict, error) {
	start := m.tr.now()
	v, err := m.inner.CheckAfterTask(ctx, hc, ag, rec)
	m.tr.add(m.layer+".task", ag.ID, m.node, start, m.tr.now())
	return v, err
}

// itinKey carries the itinerary's ID in a context. The driver sets it
// on the launch context of a traced run; InProc hands that context from
// node to node, so every decorator on the way reads the ID for free. A
// TCP server starts each delivery on a context of its own, so there the
// intake decorator reads the ID off the wire image and sets it for the
// rest of that hop.
type itinKey struct{}

func withItin(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, itinKey{}, id)
}

func itinOf(ctx context.Context) string {
	id, _ := ctx.Value(itinKey{}).(string)
	return id
}

// wireAgentID names the agent a wire image carries, at the cost of
// decoding it. It runs outside every span; what it costs is tracing
// overhead.
func wireAgentID(wire []byte) string {
	ag, err := agent.Unmarshal(wire)
	if err != nil {
		return ""
	}
	return ag.ID
}

// netStats counts what the fleet's nodes handed to their networks,
// and keeps the largest wire image seen: a late-journey agent with its
// state grown and every mechanism's baggage attached, the input of the
// direct codec timings.
type netStats struct {
	bytes atomic.Int64
	calls atomic.Int64

	mu     sync.Mutex
	sample []byte
}

func (s *netStats) sent(wire []byte) {
	s.bytes.Add(int64(len(wire)))
	s.mu.Lock()
	if len(wire) > len(s.sample) {
		s.sample = wire
	}
	s.mu.Unlock()
}

func (s *netStats) largest() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sample
}

// tracedNet times a node's outbound transport.Network and counts the
// bytes handed to it.
type tracedNet struct {
	inner transport.Network
	tr    *tracer
	node  string
	stats *netStats
}

func (n *tracedNet) SendAgent(ctx context.Context, hostName string, wire []byte) error {
	start := n.tr.now()
	err := n.inner.SendAgent(ctx, hostName, wire)
	end := n.tr.now()
	n.stats.sent(wire)
	n.tr.add(spanSend, itinOf(ctx), n.node, start, end)
	return err
}

func (n *tracedNet) Call(ctx context.Context, hostName, method string, body []byte) ([]byte, error) {
	start := n.tr.now()
	reply, err := n.inner.Call(ctx, hostName, method, body)
	end := n.tr.now()
	n.stats.bytes.Add(int64(len(body) + len(reply)))
	n.stats.calls.Add(1)
	n.tr.add(spanCall, itinOf(ctx), n.node, start, end)
	return reply, err
}

// tracedEndpoint times a node's intake.
type tracedEndpoint struct {
	inner transport.Endpoint
	tr    *tracer
	node  string
}

func (e *tracedEndpoint) HandleAgent(ctx context.Context, wire []byte) error {
	id := itinOf(ctx)
	if id == "" {
		id = wireAgentID(wire)
		ctx = withItin(ctx, id)
	}
	start := e.tr.now()
	err := e.inner.HandleAgent(ctx, wire)
	e.tr.add(spanIntake, id, e.node, start, e.tr.now())
	return err
}

func (e *tracedEndpoint) HandleCall(ctx context.Context, method string, body []byte) ([]byte, error) {
	return e.inner.HandleCall(ctx, method, body)
}

// procHook turns procedure enter/exit events into spans: one for the
// session's entry procedure (depth 0), and one per invocation of the
// procedure named cycle, when that is set. It records only while the
// tracer names a solo itinerary.
type procHook struct {
	tr      *tracer
	node    string
	outer   string // span name for the entry procedure
	cycle   string // procedure whose invocations are spanCycle; "" for none
	depth   int
	started [2]int64
}

var (
	_ agentlang.Hook           = (*procHook)(nil)
	_ agentlang.ProcEventsOnly = (*procHook)(nil)
)

func (p *procHook) Statement(int, bool, []agentlang.Assignment) {}
func (p *procHook) ProcEventsOnly()                             {}

func (p *procHook) EnterProc(name string) {
	if p.tr.soloItin() == "" {
		return
	}
	if p.depth == 0 {
		p.started[0] = p.tr.now()
	} else if p.depth == 1 && name == p.cycle {
		p.started[1] = p.tr.now()
	}
	p.depth++
}

func (p *procHook) ExitProc(name string) {
	itin := p.tr.soloItin()
	if itin == "" || p.depth == 0 {
		return
	}
	p.depth--
	if p.depth == 0 {
		p.tr.add(p.outer, itin, p.node, p.started[0], p.tr.now())
	} else if p.depth == 1 && name == p.cycle {
		p.tr.add(spanCycle, itin, p.node, p.started[1], p.tr.now())
	}
}
