package main

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime/metrics"
	"sort"
)

// serveDebug starts the opt-in introspection listener of -debug-addr:
// net/http/pprof under /debug/pprof/ and a plain-text runtime/metrics
// dump at /debug/metrics, so a stage can be attributed from a live node
// (docs/OPERATIONS.md, "Profiling a live node"). Profiles expose heap
// contents, so the address must say where it listens: one with no host
// would bind every interface and is refused; a loopback host is the
// intended use. It returns the listener (close it to stop serving).
func serveDebug(addr string) (net.Listener, error) {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("-debug-addr: %w", err)
	}
	if host == "" {
		return nil, fmt.Errorf("-debug-addr %q names no host and would listen on every interface; say 127.0.0.1:port", addr)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("-debug-addr: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/metrics", writeRuntimeMetrics)
	go http.Serve(ln, mux)
	return ln, nil
}

// writeRuntimeMetrics prints every runtime/metrics sample, one per
// line, sorted by name; a histogram is summarised by its count and the
// upper bounds of the buckets holding its median and 99th percentile.
func writeRuntimeMetrics(w http.ResponseWriter, _ *http.Request) {
	descs := metrics.All()
	samples := make([]metrics.Sample, len(descs))
	for i, d := range descs {
		samples[i].Name = d.Name
	}
	metrics.Read(samples)
	sort.Slice(samples, func(i, j int) bool { return samples[i].Name < samples[j].Name })
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			fmt.Fprintf(w, "%s %d\n", s.Name, s.Value.Uint64())
		case metrics.KindFloat64:
			fmt.Fprintf(w, "%s %g\n", s.Name, s.Value.Float64())
		case metrics.KindFloat64Histogram:
			h := s.Value.Float64Histogram()
			var n uint64
			for _, c := range h.Counts {
				n += c
			}
			fmt.Fprintf(w, "%s count=%d p50<=%g p99<=%g\n", s.Name, n, histQuantile(h, n, 0.50), histQuantile(h, n, 0.99))
		}
	}
}

// histQuantile returns the upper bound of the bucket in which the q-th
// of h's n samples falls (0 for an empty histogram).
func histQuantile(h *metrics.Float64Histogram, n uint64, q float64) float64 {
	if n == 0 {
		return 0
	}
	rank := uint64(q * float64(n))
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if seen > rank {
			return h.Buckets[i+1]
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}
