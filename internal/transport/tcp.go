package transport

import (
	"bufio"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Wire format: a connection carries a sequence of request/response
// exchanges, both gob-encoded on a persistent encoder/decoder pair.
// Connections are reused per peer: the client keeps a small idle pool
// for each destination instead of dialling per request, and the server
// answers requests on a connection until the peer closes it or it goes
// idle. Since HandleAgent is accept-and-queue, a response is an intake
// acknowledgement, not an itinerary result, so exchanges are short and
// a single fixed "slowest workload" I/O budget is no longer needed —
// deadlines derive from the caller's ctx.

type rpcRequest struct {
	// Kind is "agent" for migration delivery or "call" for sync RPC.
	Kind   string
	Method string
	Body   []byte
	// TimeoutNanos propagates the caller's remaining *application*
	// budget (time until its ctx deadline, not the transport's I/O
	// fallback) as a duration, so cross-machine clock skew cannot
	// shrink or inflate it. The server rebuilds it into the handling
	// context: as with in-process delivery, a launch deadline keeps
	// bounding the itinerary across TCP hops, and a blocked intake is
	// abandoned around when the client stops waiting instead of
	// enqueuing a delivery the client already reported as failed. 0
	// means no deadline.
	TimeoutNanos int64
}

type rpcResponse struct {
	Err  string
	Body []byte
}

// Fallback budgets used when the caller's ctx carries no deadline, and
// server-side policing. Exchanges are intake acks and protocol calls,
// not whole itineraries, so these are transport-scale, not
// workload-scale.
const (
	defaultDialTimeout = 5 * time.Second
	defaultIOTimeout   = 30 * time.Second
	// serverIdleTimeout bounds how long the server keeps an idle
	// connection open waiting for the next request.
	serverIdleTimeout = 2 * time.Minute
	// idlePerHost bounds the client-side idle pool per destination.
	idlePerHost = 4

	// Dial retry policy: a transient dial failure (connection refused
	// or reset before any byte arrived — the signature of a peer
	// mid-restart) is retried with jittered exponential backoff until
	// the caller's deadline, or dialRetryBudget when the caller set
	// none. Sleeps are drawn uniformly from [backoff/2, backoff) so a
	// fleet that lost a node does not reconverge on it in lockstep.
	dialBackoffBase = 25 * time.Millisecond
	dialBackoffMax  = time.Second
	dialRetryBudget = 5 * time.Second
)

// ErrDialRetriesExhausted marks a dial that kept failing transiently
// until the retry budget ran out, so callers can distinguish "peer
// stayed down through every retry" from a single hard failure.
var ErrDialRetriesExhausted = errors.New("transport: dial retries exhausted")

// isTransientDial reports whether a dial failure is worth retrying: the
// peer actively refused (nothing listening yet — a restart in progress)
// or reset the handshake. Anything else (no route, DNS, ctx expiry) is
// returned to the caller at once.
func isTransientDial(err error) bool {
	return errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET)
}

// wrapTimeout classifies an I/O error: context cancellation and network
// timeouts surface as the ctx error (context.DeadlineExceeded or
// context.Canceled) wrapped in the transport error, so callers can
// errors.Is-distinguish a timeout from a remote failure.
func wrapTimeout(ctx context.Context, op, host string, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return fmt.Errorf("transport: %s %s: %w", op, host, ctxErr)
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return fmt.Errorf("transport: %s %s: %w (%v)", op, host, context.DeadlineExceeded, err)
	}
	return fmt.Errorf("transport: %s %s: %w", op, host, err)
}

// ioDeadline derives the per-exchange I/O deadline from ctx, falling
// back to defaultIOTimeout when the caller set none.
func ioDeadline(ctx context.Context) time.Time {
	if d, ok := ctx.Deadline(); ok {
		return d
	}
	return time.Now().Add(defaultIOTimeout)
}

// Server exposes an Endpoint over TCP.
type Server struct {
	ep     Endpoint
	ln     net.Listener
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup

	// conns counts accepted connections (observable by tests pinning
	// connection reuse).
	conns atomic.Int64
}

// Serve starts a TCP server for the endpoint on addr (e.g.
// "127.0.0.1:7001"). It returns once the listener is bound; connection
// handling proceeds in background goroutines until Close.
func Serve(addr string, ep Endpoint) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{ep: ep, ln: ln, ctx: ctx, cancel: cancel}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// ConnCount reports how many connections the server has accepted.
func (s *Server) ConnCount() int64 { return s.conns.Load() }

// Close stops the listener and waits for in-flight connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.conns.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// handle serves request/response exchanges on one connection until the
// peer closes it, it idles out, or the server shuts down.
func (s *Server) handle(conn net.Conn) {
	defer func() {
		_ = conn.Close()
	}()
	// Tear the connection down promptly on server close.
	stop := context.AfterFunc(s.ctx, func() { _ = conn.Close() })
	defer stop()

	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	dec := gob.NewDecoder(br)
	enc := gob.NewEncoder(bw)
	for {
		_ = conn.SetReadDeadline(time.Now().Add(serverIdleTimeout))
		var req rpcRequest
		if err := dec.Decode(&req); err != nil {
			return // peer closed, idled out, or malformed stream
		}
		// Rebuild the caller's application deadline, if it sent one.
		hctx := s.ctx
		var hcancel context.CancelFunc
		var budget time.Duration
		if req.TimeoutNanos > 0 {
			budget = time.Duration(req.TimeoutNanos)
			hctx, hcancel = context.WithTimeout(s.ctx, budget)
		}
		var resp rpcResponse
		switch req.Kind {
		case "agent":
			// Like an in-process delivery, the deadline bounds the
			// agent's remaining processing, not just this exchange; the
			// ctx outlives the ack for the queued delivery and is
			// released when the deadline itself passes.
			if hcancel != nil {
				time.AfterFunc(budget+time.Second, hcancel)
			}
			if err := s.ep.HandleAgent(hctx, req.Body); err != nil {
				resp.Err = err.Error()
			}
		case "call":
			// Synchronous: done before the response goes out, so the
			// ctx is released immediately (agentctl polls node/status
			// frequently under a long journey deadline — retaining a
			// timer per poll would pile up).
			body, err := s.ep.HandleCall(hctx, req.Method, req.Body)
			if hcancel != nil {
				hcancel()
			}
			if err != nil {
				resp.Err = err.Error()
			} else {
				resp.Body = body
			}
		default:
			if hcancel != nil {
				hcancel()
			}
			resp.Err = fmt.Sprintf("unknown request kind %q", req.Kind)
		}
		_ = conn.SetWriteDeadline(time.Now().Add(defaultIOTimeout))
		if err := enc.Encode(resp); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// clientConn is one pooled connection with its persistent gob codec
// state (gob transmits type descriptions once per stream, so the
// encoder/decoder pair must live as long as the connection).
type clientConn struct {
	conn net.Conn
	bw   *bufio.Writer
	enc  *gob.Encoder
	dec  *gob.Decoder
	// read counts the bytes taken off conn, so exchange can tell a
	// failure before the first response byte from one after it.
	read int64
}

// countingReader counts the bytes read through it into *n.
type countingReader struct {
	r io.Reader
	n *int64
}

func (c countingReader) Read(p []byte) (int, error) {
	k, err := c.r.Read(p)
	*c.n += int64(k)
	return k, err
}

func (c *clientConn) close() { _ = c.conn.Close() }

// TCPNetwork is a Network that reaches hosts by TCP address, reusing
// connections per peer. The address book maps host principal names to
// "host:port" strings.
type TCPNetwork struct {
	mu    sync.RWMutex
	addrs map[string]string
	idle  map[string][]*clientConn
}

var _ Network = (*TCPNetwork)(nil)

// NewTCPNetwork creates a network with the given address book; the map
// is copied.
func NewTCPNetwork(addrs map[string]string) *TCPNetwork {
	book := make(map[string]string, len(addrs))
	for k, v := range addrs {
		book[k] = v
	}
	return &TCPNetwork{addrs: book, idle: make(map[string][]*clientConn)}
}

// AddHost adds or replaces an address-book entry.
func (n *TCPNetwork) AddHost(host, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.addrs[host] = addr
}

// Close drops all pooled idle connections.
func (n *TCPNetwork) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, conns := range n.idle {
		for _, c := range conns {
			c.close()
		}
	}
	n.idle = make(map[string][]*clientConn)
}

func (n *TCPNetwork) addr(host string) (string, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	a, ok := n.addrs[host]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownHost, host)
	}
	return a, nil
}

// takeIdle pops a pooled connection for host, if any.
func (n *TCPNetwork) takeIdle(host string) *clientConn {
	n.mu.Lock()
	defer n.mu.Unlock()
	conns := n.idle[host]
	if len(conns) == 0 {
		return nil
	}
	c := conns[len(conns)-1]
	n.idle[host] = conns[:len(conns)-1]
	return c
}

// putIdle returns a healthy connection to the pool, closing it instead
// when the pool is full.
func (n *TCPNetwork) putIdle(host string, c *clientConn) {
	n.mu.Lock()
	if len(n.idle[host]) < idlePerHost {
		n.idle[host] = append(n.idle[host], c)
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	c.close()
}

func (n *TCPNetwork) dial(ctx context.Context, host, addr string) (*clientConn, error) {
	dctx := ctx
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(ctx, defaultDialTimeout)
		defer cancel()
	}
	var d net.Dialer
	conn, err := d.DialContext(dctx, "tcp", addr)
	if err != nil {
		return nil, wrapTimeout(ctx, "dial", fmt.Sprintf("%s (%s)", host, addr), err)
	}
	bw := bufio.NewWriter(conn)
	c := &clientConn{conn: conn, bw: bw, enc: gob.NewEncoder(bw)}
	c.dec = gob.NewDecoder(bufio.NewReader(countingReader{conn, &c.read}))
	return c, nil
}

// dialBackoff dials with jittered exponential backoff across transient
// failures. The retry window is the caller's ctx deadline when it has
// one, else dialRetryBudget; each individual attempt still runs under
// dial's own per-attempt timeout. On exhaustion the returned error
// wraps both ErrDialRetriesExhausted and the last transient failure.
// The window counts as exhausted whether it closes during the sleep
// between attempts or during an attempt: once a transient failure has
// been seen, an attempt cut short by the closing window is the end of
// the retries, not a failure of its own.
func (n *TCPNetwork) dialBackoff(ctx context.Context, host, addr string) (*clientConn, error) {
	rctx := ctx
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(ctx, dialRetryBudget)
		defer cancel()
	}
	backoff := dialBackoffBase
	attempts := 0
	var transient error
	exhausted := func() error {
		return fmt.Errorf("transport: dial %s (%s): %w after %d attempts: %w",
			host, addr, ErrDialRetriesExhausted, attempts, transient)
	}
	for {
		c, err := n.dial(rctx, host, addr)
		attempts++
		if err == nil {
			return c, nil
		}
		if !isTransientDial(err) {
			if transient != nil && (rctx.Err() != nil || errors.Is(err, context.DeadlineExceeded)) {
				return nil, exhausted()
			}
			return nil, err
		}
		transient = err
		// Jitter: sleep somewhere in [backoff/2, backoff).
		delay := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)))
		t := time.NewTimer(delay)
		select {
		case <-rctx.Done():
			t.Stop()
			return nil, exhausted()
		case <-t.C:
		}
		if backoff *= 2; backoff > dialBackoffMax {
			backoff = dialBackoffMax
		}
	}
}

// SendAgent implements Network.
func (n *TCPNetwork) SendAgent(ctx context.Context, host string, wire []byte) error {
	_, err := n.roundTrip(ctx, host, rpcRequest{Kind: "agent", Body: wire})
	return err
}

// Call implements Network.
func (n *TCPNetwork) Call(ctx context.Context, host, method string, body []byte) ([]byte, error) {
	resp, err := n.roundTrip(ctx, host, rpcRequest{Kind: "call", Method: method, Body: body})
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

func (n *TCPNetwork) roundTrip(ctx context.Context, host string, req rpcRequest) (rpcResponse, error) {
	if err := ctx.Err(); err != nil {
		return rpcResponse{}, fmt.Errorf("transport: send to %s: %w", host, err)
	}
	addr, err := n.addr(host)
	if err != nil {
		return rpcResponse{}, err
	}
	if d, ok := ctx.Deadline(); ok {
		if req.TimeoutNanos = int64(time.Until(d)); req.TimeoutNanos <= 0 {
			req.TimeoutNanos = 1 // already expired; make the server see it so
		}
	}

	// First attempt on a pooled connection, if one exists. A pooled
	// connection may have been closed by the server since it was last
	// used; that surfaces as a write failure, or as a clean EOF or a
	// reset before any response byte, and each is retried once on a
	// fresh connection. A failure after response bytes started flowing
	// is not retried — the request was processed, and deliveries must
	// not be duplicated. (A server that dies mid-exchange is
	// indistinguishable from an idle close; that crash window is the
	// usual at-least-once caveat of connection reuse.)
	if c := n.takeIdle(host); c != nil {
		resp, retryable, err := n.exchange(ctx, host, c, req)
		if err == nil || answered(err) {
			// A remote failure is a complete, healthy exchange — the far
			// endpoint answered. Keep the connection.
			n.putIdle(host, c)
			return resp, err
		}
		c.close()
		if !retryable || ctx.Err() != nil {
			return rpcResponse{}, err
		}
	}

	c, err := n.dialBackoff(ctx, host, addr)
	if err != nil {
		return rpcResponse{}, err
	}
	resp, retryable, err := n.exchange(ctx, host, c, req)
	if err != nil && !answered(err) {
		c.close()
		// A reset before the first response byte on a fresh connection
		// is the same restart signature dialBackoff retries: the server
		// accepted and died before reading. One more backoff-dialled
		// attempt; past that the error stands.
		if retryable && isTransientDial(err) && ctx.Err() == nil {
			if c, derr := n.dialBackoff(ctx, host, addr); derr == nil {
				if resp, _, rerr := n.exchange(ctx, host, c, req); rerr == nil || answered(rerr) {
					n.putIdle(host, c)
					return resp, rerr
				}
				c.close()
			}
		}
		return rpcResponse{}, err
	}
	n.putIdle(host, c)
	return resp, err
}

// answered reports whether err ends a complete exchange: the far
// endpoint answered with a failure over an intact connection, in time
// (RemoteError) or after the caller's deadline (lateReplyError).
func answered(err error) bool {
	var re *RemoteError
	var late *lateReplyError
	return errors.As(err, &re) || errors.As(err, &late)
}

// exchange performs one request/response on the connection under the
// ctx-derived deadline. retryable reports that the failure happened
// before any response byte arrived — a write error, or a clean EOF or
// a reset with zero response bytes read — which is how a server's idle
// close of a pooled connection manifests.
func (n *TCPNetwork) exchange(ctx context.Context, host string, c *clientConn, req rpcRequest) (rpcResponse, bool, error) {
	_ = c.conn.SetDeadline(ioDeadline(ctx))
	if err := c.enc.Encode(req); err != nil {
		return rpcResponse{}, true, wrapTimeout(ctx, "send to", host, err)
	}
	if err := c.bw.Flush(); err != nil {
		return rpcResponse{}, true, wrapTimeout(ctx, "send to", host, err)
	}
	var resp rpcResponse
	start := c.read
	if err := c.dec.Decode(&resp); err != nil {
		// Only a failure before the first response byte is retryable:
		// a clean io.EOF, or a reset when the request reached a socket
		// the server had already closed. Both are how a server's idle
		// close of a pooled connection manifests. Once a response byte
		// has arrived the request was processed, and retrying would
		// risk duplicate delivery.
		retryable := c.read == start && (errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET))
		return rpcResponse{}, retryable, wrapTimeout(ctx, "receive from", host, err)
	}
	_ = c.conn.SetDeadline(time.Time{})
	if resp.Err != "" {
		// The server's deadline is the caller's remaining budget counted
		// from when it received the request, so it never expires before
		// the caller's. A failure that arrives once the caller's deadline
		// has passed (by the clock: ctx's own timer may not have fired
		// yet) is the caller's timeout, whatever the server ran out of.
		if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
			return rpcResponse{}, false, &lateReplyError{host: host, msg: resp.Err}
		}
		return rpcResponse{}, false, &RemoteError{Host: host, Msg: resp.Err}
	}
	return resp, false, nil
}

// lateReplyError is a remote failure that arrived after the caller's
// deadline. It reads as context.DeadlineExceeded, not as a RemoteError,
// but like one it ends a complete exchange.
type lateReplyError struct{ host, msg string }

func (e *lateReplyError) Error() string {
	return fmt.Sprintf("transport: receive from %s: %v: %v", e.host, context.DeadlineExceeded, e.msg)
}

func (e *lateReplyError) Unwrap() error { return context.DeadlineExceeded }
