package main

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestServeDebug: the listener refuses an address that names no host,
// and on a loopback address serves profiles and the runtime metrics
// dump.
func TestServeDebug(t *testing.T) {
	for _, addr := range []string{":0", "6060", ""} {
		if ln, err := serveDebug(addr); err == nil {
			ln.Close()
			t.Errorf("serveDebug(%q) accepted an address without a host", addr)
		}
	}
	ln, err := serveDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for path, want := range map[string]string{
		"/debug/metrics":            "/memory/classes/heap/objects:bytes ",
		"/debug/pprof/heap?debug=1": "heap profile:",
		"/debug/pprof/":             "goroutine",
	} {
		resp, err := http.Get("http://" + ln.Addr().String() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Errorf("GET %s: status %d, body lacks %q", path, resp.StatusCode, want)
		}
	}
}
