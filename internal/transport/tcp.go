package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/canon"
)

// The TCP wire: one frame per message. A frame is a 4-byte big-endian
// size, then that many bytes: a fixed header and the method and body.
//
//	version 1 | kind 1 | code 1 | timeout 8 | method length 2 | method | body
//
// kind is kindAgent or kindCall for a request and kindReply for its
// answer. code is 0 in a request and in a reply that succeeded, else
// the failure's Code, whose text is then the body. method names a call.
// timeout is a request's remaining *application* budget in nanoseconds
// (0 for none): a duration, so clock skew between hosts cannot shrink
// or inflate it. The server rebuilds it into the handling context, so
// a launch deadline keeps bounding the itinerary across TCP hops, as
// in process, and a blocked intake is abandoned around when the client
// stops waiting. The header is fixed rather than a canon tuple
// because a body may exceed what one tuple field holds (64 MiB): the
// proof openings reply may hold 128 MiB.
const (
	frameVersion = 1
	kindAgent    = 'a'
	kindCall     = 'c'
	kindReply    = 'r'

	frameHeaderLen = 1 + 1 + 1 + 8 + 2
	// maxFrame bounds a frame's size field: the largest message any
	// codec produces (proof openings, 128 MiB) inside an urgent-reply
	// envelope, with room to spare for the framing.
	maxFrame = 129 << 20
	// frameChunk is the step by which a frame's body buffer grows as
	// its bytes arrive.
	frameChunk = 64 << 10
)

// frame is one decoded wire message.
type frame struct {
	kind    byte
	code    Code
	timeout time.Duration
	method  string
	body    []byte
}

// appendHeader appends the frame's size field, header and method: all
// of its encoding but the body.
func (f *frame) appendHeader(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(frameHeaderLen+len(f.method)+len(f.body)))
	dst = append(dst, frameVersion, f.kind, byte(f.code))
	dst = binary.BigEndian.AppendUint64(dst, uint64(f.timeout))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(f.method)))
	return append(dst, f.method...)
}

// writeFrame writes f in one gathered write, without copying its body.
func writeFrame(w io.Writer, f *frame) error {
	if len(f.method) > canon.MaxNameLen || frameHeaderLen+len(f.method)+len(f.body) > maxFrame {
		return fmt.Errorf("transport: %d-byte frame over the bound of %d", frameHeaderLen+len(f.method)+len(f.body), maxFrame)
	}
	bufs := net.Buffers{f.appendHeader(make([]byte, 0, 4+frameHeaderLen+len(f.method))), f.body}
	_, err := bufs.WriteTo(w)
	return err
}

// readFrame reads one frame and reports how many bytes it took off r,
// so a caller can tell a failure before the first byte from one after.
// The size field is checked against maxFrame before any of the body is
// read, and the body is read in frameChunk pieces allocated as its
// bytes arrive, so until the whole body is in, a declared size costs no
// more memory than the bytes that came plus one frameChunk. A malformed
// frame's error wraps canon.ErrMalformed.
func readFrame(r io.Reader) (frame, int64, error) {
	var size [4]byte
	k, err := io.ReadFull(r, size[:])
	read := int64(k)
	if err != nil {
		return frame{}, read, err
	}
	n := binary.BigEndian.Uint32(size[:])
	if n < frameHeaderLen || n > maxFrame {
		return frame{}, read, fmt.Errorf("transport: %w: %d-byte frame outside [%d, %d]", canon.ErrMalformed, n, frameHeaderLen, maxFrame)
	}
	var chunks [][]byte
	for left := int(n); left > 0; left -= frameChunk {
		c := make([]byte, min(left, frameChunk))
		k, err := io.ReadFull(r, c)
		if read += int64(k); err != nil {
			return frame{}, read, err
		}
		chunks = append(chunks, c)
	}
	b := chunks[0]
	if len(chunks) > 1 {
		b = bytes.Join(chunks, nil)
	}
	f, err := parseFrame(b)
	return f, read, err
}

// parseFrame decodes a frame's bytes after its size field. Only the
// encoding appendHeader writes is accepted, so decode∘encode is the
// identity on every frame it returns.
func parseFrame(b []byte) (frame, error) {
	f := frame{kind: b[1], code: Code(b[2])}
	timeout := binary.BigEndian.Uint64(b[3:])
	mlen := int(binary.BigEndian.Uint16(b[11:]))
	if b[0] != frameVersion {
		return frame{}, fmt.Errorf("transport: %w: frame version %d, want %d", canon.ErrMalformed, b[0], frameVersion)
	}
	request := f.kind == kindAgent || f.kind == kindCall
	if !request && f.kind != kindReply || int(f.code) >= len(sentinels) || request && f.code != 0 ||
		timeout > math.MaxInt64 || !request && timeout != 0 ||
		mlen > canon.MaxNameLen || mlen > len(b)-frameHeaderLen || f.kind != kindCall && mlen != 0 {
		return frame{}, fmt.Errorf("transport: %w: frame header %x", canon.ErrMalformed, b[:frameHeaderLen])
	}
	f.timeout = time.Duration(timeout)
	f.method = string(b[frameHeaderLen : frameHeaderLen+mlen])
	if body := b[frameHeaderLen+mlen:]; len(body) > 0 {
		f.body = body
	}
	return f, nil
}

// Fallback budgets used when the caller's ctx carries no deadline, and
// server-side policing. Exchanges are intake acks and protocol calls,
// not whole itineraries, so these are transport-scale, not
// workload-scale.
const (
	defaultIOTimeout = 30 * time.Second
	// serverIdleTimeout bounds how long the server keeps an idle
	// connection open waiting for the next request.
	serverIdleTimeout = 2 * time.Minute
	// idlePerHost bounds the client-side idle pool per destination.
	idlePerHost = 4

	// Dial retry policy: a transient dial failure (connection refused
	// or reset before any byte arrived — the signature of a peer
	// mid-restart) is retried with jittered exponential backoff for
	// half the time left before the caller's deadline, or for
	// dialRetryBudget when the caller set none. The other half is the
	// caller's: a node forwarding to a peer that stays down fails the
	// forward while whoever waits on the journey is still waiting.
	// Sleeps are drawn uniformly from [backoff/2, backoff) so a fleet
	// that lost a node does not reconverge on it in lockstep.
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

	once sync.Once
	wg   sync.WaitGroup

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
func (s *Server) Close() (err error) {
	s.once.Do(func() {
		s.cancel()
		err = s.ln.Close()
		s.wg.Wait()
	})
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
	for {
		_ = conn.SetReadDeadline(time.Now().Add(serverIdleTimeout))
		req, _, err := readFrame(br)
		if err != nil || req.kind == kindReply {
			return // peer closed, idled out, or sent what is not a request
		}
		// Rebuild the caller's application deadline, if it sent one.
		hctx := s.ctx
		var hcancel context.CancelFunc
		if req.timeout > 0 {
			hctx, hcancel = context.WithTimeout(s.ctx, req.timeout)
		}
		reply := frame{kind: kindReply}
		if req.kind == kindAgent {
			// Like an in-process delivery, the deadline bounds the
			// agent's remaining processing, not just this exchange; the
			// ctx outlives the ack for the queued delivery and is
			// released when the deadline itself passes.
			if hcancel != nil {
				time.AfterFunc(req.timeout+time.Second, hcancel)
			}
			err = s.ep.HandleAgent(hctx, req.body)
		} else {
			// Synchronous: done before the reply goes out, so the ctx is
			// released immediately (agentctl polls node/status
			// frequently under a long journey deadline — retaining a
			// timer per poll would pile up).
			reply.body, err = s.ep.HandleCall(hctx, req.method, req.body)
			if hcancel != nil {
				hcancel()
			}
		}
		if err != nil {
			reply = frame{kind: kindReply, code: codeOf(err), body: []byte(err.Error())}
		}
		_ = conn.SetWriteDeadline(time.Now().Add(defaultIOTimeout))
		if err := writeFrame(conn, &reply); err != nil {
			return
		}
	}
}

// TCPNetwork is a Network that reaches hosts by TCP address, reusing
// connections per peer. The address book maps host principal names to
// "host:port" strings.
type TCPNetwork struct {
	mu    sync.RWMutex
	addrs map[string]string
	idle  map[string][]net.Conn
}

var _ Network = (*TCPNetwork)(nil)

// NewTCPNetwork creates a network with the given address book; the map
// is copied.
func NewTCPNetwork(addrs map[string]string) *TCPNetwork {
	book := make(map[string]string, len(addrs))
	for k, v := range addrs {
		book[k] = v
	}
	return &TCPNetwork{addrs: book, idle: make(map[string][]net.Conn)}
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
			_ = c.Close()
		}
	}
	n.idle = make(map[string][]net.Conn)
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
func (n *TCPNetwork) takeIdle(host string) net.Conn {
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
func (n *TCPNetwork) putIdle(host string, c net.Conn) {
	n.mu.Lock()
	if len(n.idle[host]) < idlePerHost {
		n.idle[host] = append(n.idle[host], c)
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	_ = c.Close()
}

// dialBackoff dials with jittered exponential backoff across transient
// failures. The retry window is half the time left before ctx's
// deadline when it has one, else dialRetryBudget; it also bounds each
// attempt. On exhaustion the returned error wraps both
// ErrDialRetriesExhausted and the last transient failure. The window
// counts as exhausted whether it closes during the sleep between
// attempts or during an attempt: once a transient failure has been
// seen, an attempt cut short by the closing window is the end of the
// retries, not a failure of its own.
func (n *TCPNetwork) dialBackoff(ctx context.Context, host, addr string) (net.Conn, error) {
	window := dialRetryBudget
	if d, ok := ctx.Deadline(); ok {
		window = time.Until(d) / 2
	}
	rctx, cancel := context.WithTimeout(ctx, window)
	defer cancel()
	backoff := dialBackoffBase
	attempts := 0
	var transient error
	exhausted := func() error {
		return fmt.Errorf("transport: dial %s (%s): %w after %d attempts: %w",
			host, addr, ErrDialRetriesExhausted, attempts, transient)
	}
	var d net.Dialer
	for {
		c, err := d.DialContext(rctx, "tcp", addr)
		attempts++
		if err == nil {
			return c, nil
		}
		err = wrapTimeout(rctx, "dial", fmt.Sprintf("%s (%s)", host, addr), err)
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
	_, err := n.roundTrip(ctx, host, &frame{kind: kindAgent, body: wire})
	return err
}

// Call implements Network.
func (n *TCPNetwork) Call(ctx context.Context, host, method string, body []byte) ([]byte, error) {
	return n.roundTrip(ctx, host, &frame{kind: kindCall, method: method, body: body})
}

func (n *TCPNetwork) roundTrip(ctx context.Context, host string, req *frame) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("transport: send to %s: %w", host, err)
	}
	addr, err := n.addr(host)
	if err != nil {
		return nil, err
	}
	if d, ok := ctx.Deadline(); ok {
		if req.timeout = time.Until(d); req.timeout <= 0 {
			req.timeout = 1 // already expired; make the server see it so
		}
	}

	// First attempt on a pooled connection, if one exists. A pooled
	// connection may have been closed by the server since it was last
	// used; that surfaces as a write failure, or as a clean EOF or a
	// reset before any reply byte, and each is retried once on a fresh
	// connection. A reset before the first reply byte on a fresh
	// connection is the restart signature dialBackoff retries (the
	// server accepted and died before reading): one more backoff-dialled
	// attempt. A failure after reply bytes started flowing is not
	// retried — the request was processed, and deliveries must not be
	// duplicated. (A server that dies mid-exchange is indistinguishable
	// from an idle close; that crash window is the usual at-least-once
	// caveat of connection reuse.)
	c := n.takeIdle(host)
	for dials := 0; ; {
		if c == nil {
			if c, err = n.dialBackoff(ctx, host, addr); err != nil {
				return nil, err
			}
			dials++
		}
		body, state, err := n.exchange(ctx, host, c, req)
		if state == connAnswered {
			n.putIdle(host, c)
			return body, err
		}
		_ = c.Close()
		c = nil
		if state == connBroken || ctx.Err() != nil || dials == 2 || dials == 1 && !isTransientDial(err) {
			return nil, err
		}
	}
}

// How an exchange left its connection.
const (
	// connBroken: the exchange failed after reply bytes arrived, or
	// the reply was malformed.
	connBroken = iota
	// connRetry: it failed before any reply byte arrived — a write
	// error, or a clean EOF or a reset with zero reply bytes read —
	// which is how a server's idle close of a pooled connection
	// manifests.
	connRetry
	// connAnswered: a whole reply arrived, success or failure, and the
	// connection may be reused.
	connAnswered
)

// exchange performs one request/reply on the connection under the
// ctx-derived deadline, and reports how it left the connection.
func (n *TCPNetwork) exchange(ctx context.Context, host string, c net.Conn, req *frame) ([]byte, int, error) {
	_ = c.SetDeadline(ioDeadline(ctx))
	if err := writeFrame(c, req); err != nil {
		return nil, connRetry, wrapTimeout(ctx, "send to", host, err)
	}
	reply, read, err := readFrame(c)
	if err == nil && reply.kind != kindReply {
		err = fmt.Errorf("%w: a %c frame in reply", canon.ErrMalformed, reply.kind)
	}
	if err != nil {
		state := connBroken
		if read == 0 && (errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET)) {
			state = connRetry
		}
		return nil, state, wrapTimeout(ctx, "receive from", host, err)
	}
	_ = c.SetDeadline(time.Time{})
	if reply.code == 0 {
		return reply.body, connAnswered, nil
	}
	// The server's deadline is the caller's remaining budget counted
	// from when it received the request, so it never expires before the
	// caller's. A failure that arrives once the caller's deadline has
	// passed (by the clock: ctx's own timer may not have fired yet) is
	// the caller's timeout, whatever the server ran out of.
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return nil, connAnswered, fmt.Errorf("transport: receive from %s: %w: %s", host, context.DeadlineExceeded, reply.body)
	}
	return nil, connAnswered, &RemoteError{Host: host, Msg: string(reply.body), Code: reply.code}
}
