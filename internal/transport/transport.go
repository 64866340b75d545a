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
// behind a listener speaking one bounded, length-prefixed frame per
// message (tcp.go), with per-peer connection reuse, for the
// cmd/agenthost deployment. Both present the same Network interface
// and the same error semantics: a refusal a sender acts on crosses TCP
// as a code and comes back as the sentinel it left as, so errors.Is
// answers alike on both. Platform code is transport-agnostic.
package transport

import (
	"context"
	"errors"
	"fmt"
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

// ErrUnknownHost is returned when the destination is not registered.
var ErrUnknownHost = errors.New("transport: unknown host")

// The closed set of remote failures a sender acts on. Each crosses TCP
// as its Code, and a RemoteError unwraps to the sentinel the endpoint
// wrapped; any other failure crosses as CodeFailed and its text.
var (
	// ErrUnknownMethod is an endpoint's answer to an unhandled method.
	ErrUnknownMethod = errors.New("transport: unknown method")
	// ErrAdmissionRefused is core.ErrAdmissionRefused.
	ErrAdmissionRefused = errors.New("core: admission refused")
	// ErrIntakeFull is core.ErrIntakeFull.
	ErrIntakeFull = errors.New("host: mailbox full")
)

// Code is a remote failure's code on the wire; a reply that carries no
// failure has code 0.
type Code uint8

// CodeFailed is any failure outside the closed set; the others index
// sentinels.
const (
	CodeFailed Code = iota + 1
	CodeUnknownMethod
	CodeAdmissionRefused
	CodeIntakeFull
)

var sentinels = [...]error{
	CodeUnknownMethod:    ErrUnknownMethod,
	CodeAdmissionRefused: ErrAdmissionRefused,
	CodeIntakeFull:       ErrIntakeFull,
}

// codeOf is the code err crosses the wire as.
func codeOf(err error) Code {
	for c := CodeUnknownMethod; int(c) < len(sentinels); c++ {
		if errors.Is(err, sentinels[c]) {
			return c
		}
	}
	return CodeFailed
}

// RemoteError is a failure reported by the remote endpoint (as opposed
// to a connectivity failure).
type RemoteError struct {
	Host string
	Msg  string
	// Code is the failure's code; Unwrap returns its sentinel.
	Code Code
}

// Error renders the remote failure with the answering host's name.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("transport: remote %s: %s", e.Host, e.Msg)
}

// Unwrap returns the sentinel of the failure's code, nil for
// CodeFailed.
func (e *RemoteError) Unwrap() error {
	if int(e.Code) < len(sentinels) {
		return sentinels[e.Code]
	}
	return nil
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
