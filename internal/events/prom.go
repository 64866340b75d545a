package events

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"
)

// Prometheus text exposition (version 0.0.4) for a metrics snapshot.
// The snapshot's shapes map directly: monotone counters become
// `counter`, last-value metrics become `gauge`, and the fixed-bucket
// histograms become `histogram` with cumulative `le` buckets plus the
// implicit +Inf bucket the snapshot elides. Every sample carries the
// node as a label so one scrape file can hold a whole fleet.

// promNamespace prefixes every exposed metric name.
const promNamespace = "repro"

// WritePrometheus renders one node's snapshot in Prometheus text
// exposition format. Output is deterministic (sorted metric names)
// so diffs and tests are stable.
func WritePrometheus(w io.Writer, snap MetricsSnapshot) error {
	node := snap.Node

	for _, name := range slices.Sorted(maps.Keys(snap.Counters)) {
		m := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s{node=%q} %d\n",
			m, m, node, snap.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range slices.Sorted(maps.Keys(snap.Gauges)) {
		m := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s{node=%q} %g\n",
			m, m, node, snap.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range slices.Sorted(maps.Keys(snap.Histograms)) {
		h := snap.Histograms[name]
		m := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", m); err != nil {
			return err
		}
		// Snapshot buckets are per-bucket counts with empties elided;
		// the exposition format wants cumulative counts and an explicit
		// +Inf bucket equal to the total count.
		var cum int64
		for _, b := range h.Buckets {
			if b.LE < 0 {
				continue // overflow folds into +Inf below
			}
			cum += b.N
			if _, err := fmt.Fprintf(w, "%s_bucket{node=%q,le=%q} %d\n",
				m, node, trimFloat(b.LE), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{node=%q,le=\"+Inf\"} %d\n%s_sum{node=%q} %g\n%s_count{node=%q} %d\n",
			m, node, h.Count, m, node, h.Sum, m, node, h.Count); err != nil {
			return err
		}
	}

	// Bus-level ledger: accepted publishes and per-subscriber drops
	// (the loss the best-effort-bounded contract permits).
	pub := promNamespace + "_bus_published_total"
	if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s{node=%q} %d\n",
		pub, pub, node, snap.Published); err != nil {
		return err
	}
	if len(snap.Subscribers) > 0 {
		rec := promNamespace + "_subscriber_received_total"
		drop := promNamespace + "_subscriber_dropped_total"
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", rec); err != nil {
			return err
		}
		for _, s := range snap.Subscribers {
			if _, err := fmt.Fprintf(w, "%s{node=%q,subscriber=%q} %d\n",
				rec, node, s.Name, s.Received); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", drop); err != nil {
			return err
		}
		for _, s := range snap.Subscribers {
			if _, err := fmt.Fprintf(w, "%s{node=%q,subscriber=%q} %d\n",
				drop, node, s.Name, s.Dropped); err != nil {
				return err
			}
		}
	}
	return nil
}

// promName maps a snapshot metric name into the exposition's
// [a-zA-Z_:][a-zA-Z0-9_:]* namespace under the repro_ prefix.
func promName(name string) string {
	var b strings.Builder
	b.WriteString(promNamespace)
	b.WriteByte('_')
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// trimFloat renders a bucket bound the way Prometheus conventions
// expect ("5", "0.5", "2500").
func trimFloat(f float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", f), "0"), ".")
}
