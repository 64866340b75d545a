package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/canon"
)

// gobRequest and gobResponse are the messages of the wire the frame
// replaced: a persistent gob stream per connection.
type gobRequest struct {
	Kind         string
	Method       string
	Body         []byte
	TimeoutNanos int64
}

type gobResponse struct {
	Err  string
	Body []byte
}

// gobEraRequest is the bytes a gob-era client writes for its first
// call on a fresh connection.
func gobEraRequest(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(gobRequest{Kind: "call", Method: "echo", Body: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encodeFrame(f frame) []byte {
	return append(f.appendHeader(nil), f.body...)
}

// seedFrames are an agent frame, a call frame and a reply with each
// code.
func seedFrames() []frame {
	out := []frame{
		{kind: kindAgent, timeout: time.Second, body: []byte("agent wire")},
		{kind: kindCall, method: "node/status", body: []byte("body")},
		{kind: kindReply, body: []byte("reply")},
	}
	for c := CodeFailed; int(c) < len(sentinels); c++ {
		out = append(out, frame{kind: kindReply, code: c, body: []byte("failure text")})
	}
	return out
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	k, err := c.r.Read(p)
	c.n += k
	return k, err
}

// FuzzFrame holds the frame reader to its contract on arbitrary bytes:
// it never panics; a frame it accepts re-encodes to exactly the bytes
// it consumed; a declared size over the bound is refused before any of
// the body is read; and every truncation of an accepted frame is an
// error, not a wait.
func FuzzFrame(f *testing.F) {
	for _, fr := range seedFrames() {
		f.Add(encodeFrame(fr))
	}
	f.Add(gobEraRequest(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, read, err := readFrame(bytes.NewReader(data))
		if err == nil {
			if got := encodeFrame(fr); !bytes.Equal(got, data[:read]) {
				t.Fatalf("re-encoding differs:\n got %x\nwant %x", got, data[:read])
			}
			for _, cut := range []int64{0, read / 2, read - 1} {
				if _, _, err := readFrame(bytes.NewReader(data[:cut])); err == nil {
					t.Fatalf("frame cut to %d of %d bytes accepted", cut, read)
				}
			}
		}
		if len(data) >= 4 {
			over := append([]byte(nil), data...)
			binary.BigEndian.PutUint32(over, maxFrame+1+binary.BigEndian.Uint32(data)%(1<<31))
			r := &countingReader{r: bytes.NewReader(over)}
			if _, _, err := readFrame(r); !errors.Is(err, canon.ErrMalformed) || r.n != 4 {
				t.Fatalf("oversized frame: err %v after reading %d bytes", err, r.n)
			}
		}
	})
}

// TestFrameReadAllocatesAsBytesArrive pins the allocation bound: a
// frame declaring the maximum size whose body never comes costs one
// chunk, not the declared size.
func TestFrameReadAllocatesAsBytesArrive(t *testing.T) {
	head := binary.BigEndian.AppendUint32(nil, maxFrame)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range 10 {
		if _, _, err := readFrame(io.MultiReader(bytes.NewReader(head), bytes.NewReader(make([]byte, 100)))); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncated frame: %v", err)
		}
	}
	runtime.ReadMemStats(&m1)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / 10; per > 2*frameChunk {
		t.Fatalf("a %d-byte declaration with 100 bytes sent allocated %d bytes per read", maxFrame, per)
	}
}

// TestTCPRefusesGobEraAndWrongVersionClients: neither a gob-era
// client's first request nor a frame of another version is a frame this
// server reads. It closes that connection without calling the endpoint,
// and keeps serving well-formed clients.
func TestTCPRefusesGobEraAndWrongVersionClients(t *testing.T) {
	ep := &countingEndpoint{}
	srv, err := Serve("127.0.0.1:0", ep)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	nw := NewTCPNetwork(map[string]string{"srv": srv.Addr()})
	defer nw.Close()

	nextVersion := encodeFrame(frame{kind: kindCall, method: "echo"})
	nextVersion[4]++
	for name, req := range map[string][]byte{"gob-era": gobEraRequest(t), "next version": nextVersion} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := conn.Read(make([]byte, 64))
		_ = conn.Close()
		if err == nil || isTimeout(err) {
			t.Fatalf("%s request: read %d bytes, err %v; want the connection closed", name, n, err)
		}
		if got := ep.calls.Load(); got != 0 {
			t.Fatalf("endpoint called %d times for a %s request", got, name)
		}
	}
	if _, err := nw.Call(ctxT(t), "srv", "echo", nil); err != nil {
		t.Fatalf("well-formed call after the refused ones: %v", err)
	}
	if got := ep.calls.Load(); got != 1 {
		t.Fatalf("endpoint called %d times, want 1", got)
	}
}

// TestTCPFailsFastAgainstGobEraServer: a frame client dialling a server
// that still decodes gob gets a prompt error naming the host, not the
// server's idle timeout: the gob decoder fails on the frame's first
// bytes and the old server drops the connection. Bodies span small
// frames (size field 00 00 ..) to ones over 16 MiB.
func TestTCPFailsFastAgainstGobEraServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				_ = conn.SetReadDeadline(time.Now().Add(serverIdleTimeout))
				dec := gob.NewDecoder(bufio.NewReader(conn))
				enc := gob.NewEncoder(conn)
				for {
					var req gobRequest
					if dec.Decode(&req) != nil {
						return
					}
					if enc.Encode(gobResponse{Body: req.Body}) != nil {
						return
					}
				}
			}()
		}
	}()

	nw := NewTCPNetwork(map[string]string{"old": ln.Addr().String()})
	defer nw.Close()
	var sends []func(ctx context.Context) error
	for _, size := range []int{0, 10, 200, 26000, 1 << 20, 17 << 20} {
		body := bytes.Repeat([]byte{'x'}, size)
		sends = append(sends,
			func(ctx context.Context) error { _, err := nw.Call(ctx, "old", "echo", body); return err },
			func(ctx context.Context) error { return nw.SendAgent(ctx, "old", body) })
	}
	for _, send := range sends {
		start := time.Now()
		err := send(ctxT(t))
		if err == nil || !strings.Contains(err.Error(), "old") {
			t.Fatalf("exchange with a gob-era server: err = %v, want an error naming the host", err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("exchange with a gob-era server took %v", elapsed)
		}
	}
}

// countingEndpoint counts the requests that reach it.
type countingEndpoint struct{ calls atomic.Int64 }

func (e *countingEndpoint) HandleAgent(context.Context, []byte) error {
	e.calls.Add(1)
	return nil
}

func (e *countingEndpoint) HandleCall(context.Context, string, []byte) ([]byte, error) {
	e.calls.Add(1)
	return nil, nil
}

func isTimeout(err error) bool {
	var nerr net.Error
	return errors.As(err, &nerr) && nerr.Timeout()
}
