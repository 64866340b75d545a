package transport

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// echoEndpoint records agent deliveries and echoes calls.
type echoEndpoint struct {
	mu     sync.Mutex
	agents [][]byte
	name   string
	// forward, if set, re-sends received agents to the named host —
	// exercising chained migration.
	forward string
	net     Network
	// stall delays call handling (deadline tests).
	stall time.Duration
}

func (e *echoEndpoint) HandleAgent(ctx context.Context, wire []byte) error {
	e.mu.Lock()
	e.agents = append(e.agents, append([]byte(nil), wire...))
	forward := e.forward
	e.mu.Unlock()
	if forward != "" {
		return e.net.SendAgent(ctx, forward, append(wire, '>'))
	}
	return nil
}

func (e *echoEndpoint) HandleCall(ctx context.Context, method string, body []byte) ([]byte, error) {
	if e.stall > 0 {
		select {
		case <-time.After(e.stall):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	switch method {
	case "echo":
		return append([]byte(e.name+":"), body...), nil
	case "fail":
		return nil, errors.New("deliberate failure")
	default:
		return nil, fmt.Errorf("%w: %s", ErrUnknownMethod, method)
	}
}

func (e *echoEndpoint) received() [][]byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.agents
}

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestInProcSendAndCall(t *testing.T) {
	ctx := ctxT(t)
	net := NewInProc()
	a := &echoEndpoint{name: "a"}
	net.Register("a", a)

	if err := net.SendAgent(ctx, "a", []byte("agent-bytes")); err != nil {
		t.Fatal(err)
	}
	if got := a.received(); len(got) != 1 || string(got[0]) != "agent-bytes" {
		t.Errorf("received = %q", got)
	}

	resp, err := net.Call(ctx, "a", "echo", []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "a:hi" {
		t.Errorf("call response = %q", resp)
	}
}

func TestInProcUnknownHost(t *testing.T) {
	ctx := ctxT(t)
	net := NewInProc()
	if err := net.SendAgent(ctx, "ghost", nil); !errors.Is(err, ErrUnknownHost) {
		t.Errorf("SendAgent: %v", err)
	}
	if _, err := net.Call(ctx, "ghost", "m", nil); !errors.Is(err, ErrUnknownHost) {
		t.Errorf("Call: %v", err)
	}
}

func TestInProcChainedMigration(t *testing.T) {
	ctx := ctxT(t)
	net := NewInProc()
	c := &echoEndpoint{name: "c"}
	b := &echoEndpoint{name: "b", forward: "c", net: net}
	a := &echoEndpoint{name: "a", forward: "b", net: net}
	net.Register("a", a)
	net.Register("b", b)
	net.Register("c", c)

	if err := net.SendAgent(ctx, "a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := c.received(); len(got) != 1 || string(got[0]) != "x>>" {
		t.Errorf("chained delivery = %q", got)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	ctx := ctxT(t)
	ep := &echoEndpoint{name: "srv"}
	srv, err := Serve("127.0.0.1:0", ep)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	net := NewTCPNetwork(map[string]string{"srv": srv.Addr()})
	defer net.Close()

	if err := net.SendAgent(ctx, "srv", []byte("wire")); err != nil {
		t.Fatal(err)
	}
	if got := ep.received(); len(got) != 1 || string(got[0]) != "wire" {
		t.Errorf("received = %q", got)
	}

	resp, err := net.Call(ctx, "srv", "echo", []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "srv:ping" {
		t.Errorf("response = %q", resp)
	}
}

// TestTCPConnectionReuse pins the per-peer pooling: sequential requests
// ride one connection instead of dialling each time.
func TestTCPConnectionReuse(t *testing.T) {
	ctx := ctxT(t)
	ep := &echoEndpoint{name: "srv"}
	srv, err := Serve("127.0.0.1:0", ep)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	net := NewTCPNetwork(map[string]string{"srv": srv.Addr()})
	defer net.Close()

	const reqs = 12
	for i := 0; i < reqs; i++ {
		if _, err := net.Call(ctx, "srv", "echo", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.ConnCount(); got != 1 {
		t.Errorf("server accepted %d connections for %d sequential requests, want 1", got, reqs)
	}
}

// TestTCPDeadlineFromContext pins the satellite contract: the caller's
// ctx deadline maps onto I/O deadlines and timeouts surface as wrapped
// context.DeadlineExceeded, distinguishable from remote failures.
func TestTCPDeadlineFromContext(t *testing.T) {
	ep := &echoEndpoint{name: "srv", stall: 2 * time.Second}
	srv, err := Serve("127.0.0.1:0", ep)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	net := NewTCPNetwork(map[string]string{"srv": srv.Addr()})
	defer net.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err = net.Call(ctx, "srv", "echo", []byte("x"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("stalled call: err = %v, want context.DeadlineExceeded", err)
	}
	var re *RemoteError
	if errors.As(err, &re) {
		t.Errorf("timeout misclassified as remote failure: %v", err)
	}
}

func TestTCPCancelledContext(t *testing.T) {
	ep := &echoEndpoint{name: "srv"}
	srv, err := Serve("127.0.0.1:0", ep)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	net := NewTCPNetwork(map[string]string{"srv": srv.Addr()})
	defer net.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := net.SendAgent(ctx, "srv", []byte("x")); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled send: err = %v, want context.Canceled", err)
	}
}

func TestTCPRemoteError(t *testing.T) {
	ctx := ctxT(t)
	ep := &echoEndpoint{name: "srv"}
	srv, err := Serve("127.0.0.1:0", ep)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	net := NewTCPNetwork(map[string]string{"srv": srv.Addr()})
	defer net.Close()
	_, err = net.Call(ctx, "srv", "fail", nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if re.Host != "srv" || !strings.Contains(re.Msg, "deliberate failure") || re.Code != CodeFailed || re.Unwrap() != nil {
		t.Errorf("remote error = %+v", re)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("remote failure misclassified as timeout: %v", err)
	}

	// A failure of the closed set keeps its identity across the wire.
	_, err = net.Call(ctx, "srv", "nosuch", nil)
	if !errors.As(err, &re) || re.Code != CodeUnknownMethod || !errors.Is(err, ErrUnknownMethod) {
		t.Errorf("unknown method: err = %v", err)
	}
	if want := "transport: remote srv: transport: unknown method: nosuch"; err.Error() != want {
		t.Errorf("unknown method reads %q, want %q", err, want)
	}
}

func TestTCPUnknownHostAndDialFailure(t *testing.T) {
	ctx := ctxT(t)
	net := NewTCPNetwork(nil)
	if _, err := net.Call(ctx, "ghost", "m", nil); !errors.Is(err, ErrUnknownHost) {
		t.Errorf("unknown host: %v", err)
	}
	// Address book entry pointing at a closed port: connection refused
	// is retried with backoff until the caller's deadline, then surfaces
	// as the distinguishable exhaustion error.
	net.AddHost("dead", "127.0.0.1:1")
	dctx, cancel := context.WithTimeout(ctx, 300*time.Millisecond)
	defer cancel()
	if err := net.SendAgent(dctx, "dead", nil); !errors.Is(err, ErrDialRetriesExhausted) {
		t.Errorf("dial to closed port = %v, want ErrDialRetriesExhausted", err)
	}
}

func TestTCPConcurrentCalls(t *testing.T) {
	ctx := ctxT(t)
	ep := &echoEndpoint{name: "srv"}
	srv, err := Serve("127.0.0.1:0", ep)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	net := NewTCPNetwork(map[string]string{"srv": srv.Addr()})
	defer net.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := fmt.Sprintf("m%d", i)
			resp, err := net.Call(ctx, "srv", "echo", []byte(msg))
			if err != nil {
				errs <- err
				return
			}
			if string(resp) != "srv:"+msg {
				errs <- fmt.Errorf("bad response %q", resp)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", &echoEndpoint{name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestTCPBetweenTwoServers(t *testing.T) {
	ctx := ctxT(t)
	// Full duplex deployment: two servers forwarding to each other via
	// the same address book.
	netw := NewTCPNetwork(nil)
	defer netw.Close()
	b := &echoEndpoint{name: "b"}
	srvB, err := Serve("127.0.0.1:0", b)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srvB.Close() }()
	a := &echoEndpoint{name: "a", forward: "b", net: netw}
	srvA, err := Serve("127.0.0.1:0", a)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srvA.Close() }()
	netw.AddHost("a", srvA.Addr())
	netw.AddHost("b", srvB.Addr())

	if err := netw.SendAgent(ctx, "a", []byte("m")); err != nil {
		t.Fatal(err)
	}
	if got := b.received(); len(got) != 1 || string(got[0]) != "m>" {
		t.Errorf("b received %q", got)
	}
}

// TestTCPStaleConnectionRetry pins that a pooled connection invalidated
// by a server restart is retried on a fresh dial instead of failing the
// request.
func TestTCPStaleConnectionRetry(t *testing.T) {
	ctx := ctxT(t)
	ep := &echoEndpoint{name: "srv"}
	srv, err := Serve("127.0.0.1:0", ep)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	net := NewTCPNetwork(map[string]string{"srv": addr})
	defer net.Close()

	if _, err := net.Call(ctx, "srv", "echo", []byte("1")); err != nil {
		t.Fatal(err)
	}
	// Restart the server on the same address: the pooled connection is
	// now stale.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := Serve(addr, ep)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv2.Close() }()

	if _, err := net.Call(ctx, "srv", "echo", []byte("2")); err != nil {
		t.Fatalf("call after server restart: %v", err)
	}
}
