// Package transport carries agents and protocol messages between
// hosts. Mobile-agent migration is simulated over RPC (the paper's
// measurements likewise ran "in one address space", §5.3, with code
// transfer analysed separately): an agent migrates by serializing
// itself and being delivered to the destination's Endpoint.
//
// Delivery is asynchronous: HandleAgent is accept-and-queue. The call
// returns once the destination has durably enqueued the agent, not
// after the onward itinerary completes; completion is observed through
// the platform's receipt API (core.Node.Watch). Every operation takes
// a context.Context, which bounds the intake handshake on the sending
// side and is honoured as dial/IO deadlines by the TCP transport.
//
// Two implementations are provided. InProc wires endpoints directly,
// for tests, examples, and the benchmark harness. TCP runs each node
// behind a length-framed gob RPC listener with per-peer connection
// reuse, for the cmd/agenthost deployment. Both present the same
// Network interface, so platform code is transport-agnostic.
package transport

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
)

// Endpoint is the receiving side of a platform node.
type Endpoint interface {
	// HandleAgent accepts a migrating agent in wire form. The call
	// returns once the agent is durably enqueued at the node
	// (accept-and-queue); processing and any onward migration proceed
	// asynchronously. ctx bounds the intake handshake, and any
	// deadline or cancellation of it that outlives the ack — an
	// in-process caller's itinerary context, or a TCP-propagated
	// application deadline — continues to bound the delivery's
	// processing at phase boundaries.
	HandleAgent(ctx context.Context, wire []byte) error
	// HandleCall services a synchronous protocol request (trace fetch,
	// vote exchange, state commitments, ...). ctx carries the caller's
	// cancellation and deadline.
	HandleCall(ctx context.Context, method string, body []byte) ([]byte, error)
}

// Network is the sending side available to a platform node.
type Network interface {
	// SendAgent delivers an agent to the named host. It returns once
	// the destination acknowledges the enqueue.
	SendAgent(ctx context.Context, host string, wire []byte) error
	// Call performs a synchronous request against the named host.
	Call(ctx context.Context, host, method string, body []byte) ([]byte, error)
}

// Errors shared by implementations.
var (
	// ErrUnknownHost is returned when the destination is not registered.
	ErrUnknownHost = errors.New("transport: unknown host")
	// ErrUnknownMethod should be returned by endpoints for unhandled
	// methods; the TCP server maps it across the wire.
	ErrUnknownMethod = errors.New("transport: unknown method")
)

// RemoteError is a failure reported by the remote endpoint (as opposed
// to a connectivity failure).
type RemoteError struct {
	Host string
	Msg  string
}

// Error renders the remote failure with the answering host's name.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("transport: remote %s: %s", e.Host, e.Msg)
}

// InProc is an in-process Network connecting registered endpoints
// directly. It is safe for concurrent use.
type InProc struct {
	mu    sync.RWMutex
	nodes map[string]Endpoint
}

var _ Network = (*InProc)(nil)

// NewInProc returns an empty in-process network.
func NewInProc() *InProc {
	return &InProc{nodes: make(map[string]Endpoint)}
}

// Register attaches an endpoint under the given host name, replacing
// any previous registration.
func (n *InProc) Register(host string, ep Endpoint) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nodes[host] = ep
}

// Hosts returns the registered host names in sorted order.
func (n *InProc) Hosts() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return slices.Sorted(maps.Keys(n.nodes))
}

func (n *InProc) lookup(host string) (Endpoint, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	ep, ok := n.nodes[host]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownHost, host)
	}
	return ep, nil
}

// SendAgent implements Network. The caller's ctx is handed to the
// endpoint directly, so in-process deliveries propagate cancellation
// across the whole itinerary.
func (n *InProc) SendAgent(ctx context.Context, host string, wire []byte) error {
	ep, err := n.lookup(host)
	if err != nil {
		return err
	}
	return ep.HandleAgent(ctx, wire)
}

// Call implements Network.
func (n *InProc) Call(ctx context.Context, host, method string, body []byte) ([]byte, error) {
	ep, err := n.lookup(host)
	if err != nil {
		return nil, err
	}
	return ep.HandleCall(ctx, method, body)
}
