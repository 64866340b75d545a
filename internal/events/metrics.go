package events

import (
	"container/list"
	"sync"
)

// metricsRingSize is the registry's subscriber ring. The registry
// drains on every Ready token and again inside Snapshot, so this only
// needs to absorb bursts between scheduler wakeups.
const metricsRingSize = 4096

// journeyTrackMax bounds the in-flight journeys the latency histogram
// is computed from; beyond it the oldest tracked journey is forgotten
// (its latency simply goes unobserved). Finished journeys do not count.
const journeyTrackMax = 4096

// Registry aggregates bus events into counters, gauges, and
// histograms. It consumes through its own bounded subscription — a
// drain goroutine keeps it current and Snapshot drains synchronously
// first, so a snapshot taken after a publish (happens-before) always
// reflects it. Counters are monotone across snapshots.
type Registry struct {
	bus *Bus
	sub *Subscription

	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*histogram

	// journey latency tracking: agent ID -> its element of order, a
	// FIFO of journeyStart bounded by journeyTrackMax. A journey leaves
	// both when it finishes or is forgotten.
	inflight map[string]*list.Element
	order    list.List

	done chan struct{}
}

// NewRegistry subscribes a registry to the bus and starts its drain
// goroutine. Close releases both.
func NewRegistry(bus *Bus) *Registry {
	r := &Registry{
		bus:      bus,
		sub:      bus.Subscribe("metrics", metricsRingSize),
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*histogram),
		inflight: make(map[string]*list.Element),
		done:     make(chan struct{}),
	}
	go r.run()
	return r
}

func (r *Registry) run() {
	defer close(r.done)
	for {
		r.drain()
		if r.sub.Closed() {
			r.drain()
			return
		}
		<-r.sub.Ready()
	}
}

// drain pulls pending events off the subscription and applies them,
// all under r.mu: the drain and the apply are one critical section,
// so a concurrent Snapshot can never copy the aggregates while a
// drained batch is still in flight toward them.
func (r *Registry) drain() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ev := range r.sub.Drain() {
		r.apply(ev)
	}
}

// apply updates aggregates for one event; caller holds r.mu.
func (r *Registry) apply(ev Event) {
	r.counters["events_total"]++
	r.counters[ev.Kind+"_total"]++
	r.gauges["last_event_unix_nano"] = float64(ev.UnixNano)
	switch ev.Kind {
	case KindIntake:
		r.trackIntake(ev.Agent, ev.UnixNano)
	case KindVerdict:
		if ev.Field("ok") == "false" {
			r.counters["verdict_failed_total"]++
		}
	case KindQuarantine, KindComplete, KindFailed:
		if el, ok := r.inflight[ev.Agent]; ok {
			delete(r.inflight, ev.Agent)
			r.order.Remove(el)
			ms := float64(ev.UnixNano-el.Value.(journeyStart).at) / 1e6
			r.histogram("journey_ms").observe(ms)
		}
	case KindExchangeRound:
		if ev.Field("ok") == "false" {
			r.counters["exchange_round_failed_total"]++
		}
		if n := atoi64(ev.Field("merged")); n > 0 {
			r.counters["exchange_entries_merged_total"] += n
			r.histogram("exchange_merged_per_round").observe(float64(n))
		}
	case KindGossipMerge:
		if n := atoi64(ev.Field("entries")); n > 0 {
			r.counters["gossip_entries_merged_total"] += n
		}
	case KindEscalation:
		if s := atof(ev.Field("suspicion")); s > r.gauges["escalation_suspicion_max"] {
			r.gauges["escalation_suspicion_max"] = s
		}
	}
}

// journeyStart is one tracked journey: the agent and its first intake
// at this node.
type journeyStart struct {
	agent string
	at    int64
}

// trackIntake records a journey start for the latency histogram,
// bounded FIFO; caller holds r.mu. The first intake wins: a journey
// that leaves and comes back (a home launching an agent and later
// receiving it for its last session) is measured from its launch.
func (r *Registry) trackIntake(agent string, at int64) {
	if agent == "" {
		return
	}
	if _, ok := r.inflight[agent]; ok {
		return
	}
	if r.order.Len() >= journeyTrackMax {
		oldest := r.order.Front()
		delete(r.inflight, r.order.Remove(oldest).(journeyStart).agent)
	}
	r.inflight[agent] = r.order.PushBack(journeyStart{agent: agent, at: at})
}

// histogram returns the named histogram, creating it with the default
// latency buckets; caller holds r.mu.
func (r *Registry) histogram(name string) *histogram {
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// MetricsSnapshot is a point-in-time copy of a registry plus the bus
// delivery ledger — what `node/metrics` serves and `agentctl metrics`
// prints.
type MetricsSnapshot struct {
	// Node is the bus publisher name.
	Node string
	// AtUnixNano is the snapshot time on the bus clock.
	AtUnixNano int64
	// Published counts events the bus accepted since construction.
	Published uint64
	// Counters holds monotone counts keyed by metric name.
	Counters map[string]int64
	// Gauges holds last-value metrics keyed by metric name.
	Gauges map[string]float64
	// Histograms holds distribution metrics keyed by metric name.
	Histograms map[string]HistogramSnapshot
	// Subscribers reports per-subscriber delivery and drop counters —
	// the loss the best-effort-bounded contract permits, reported
	// rather than hidden.
	Subscribers []SubscriberStats
}

// Counter returns a counter by name, 0 when absent.
func (m MetricsSnapshot) Counter(name string) int64 { return m.Counters[name] }

// Drops sums dropped events across subscribers.
func (m MetricsSnapshot) Drops() uint64 {
	var total uint64
	for _, s := range m.Subscribers {
		total += s.Dropped
	}
	return total
}

// Snapshot drains any pending events, then copies the aggregates.
// Because the drain is synchronous, a Snapshot that happens-after a
// Publish observes that event.
func (r *Registry) Snapshot() MetricsSnapshot {
	r.drain()
	st := r.bus.Stats()
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := MetricsSnapshot{
		Node:        r.bus.Node(),
		AtUnixNano:  r.bus.now().UnixNano(),
		Published:   st.Published,
		Counters:    make(map[string]int64, len(r.counters)),
		Gauges:      make(map[string]float64, len(r.gauges)),
		Histograms:  make(map[string]HistogramSnapshot, len(r.hists)),
		Subscribers: st.Subscribers,
	}
	for k, v := range r.counters {
		snap.Counters[k] = v
	}
	for k, v := range r.gauges {
		snap.Gauges[k] = v
	}
	for k, h := range r.hists {
		snap.Histograms[k] = h.snapshot()
	}
	return snap
}

// Close detaches the registry from the bus and stops its goroutine.
func (r *Registry) Close() {
	r.sub.Close()
	<-r.done
}

// histogramBuckets are the fixed upper bounds (exclusive of +Inf,
// which is implicit as the overflow bucket): log-ish scale covering
// sub-millisecond mechanism checks through multi-minute journeys, and
// doubling as small-count buckets for per-round merge sizes.
var histogramBuckets = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000, 300000}

// histogram is a fixed-bucket distribution; guarded by Registry.mu.
type histogram struct {
	counts []int64 // len(histogramBuckets)+1, last is overflow
	sum    float64
	n      int64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]int64, len(histogramBuckets)+1)}
}

func (h *histogram) observe(v float64) {
	h.sum += v
	h.n++
	for i, le := range histogramBuckets {
		if v <= le {
			h.counts[i]++
			return
		}
	}
	h.counts[len(histogramBuckets)]++
}

// BucketCount is one histogram bucket: the count of observations ≤ LE.
// The overflow bucket has LE = -1 (rendered as +Inf).
type BucketCount struct {
	// LE is the bucket's inclusive upper bound; -1 marks overflow.
	LE float64
	// N is the number of observations in this bucket (not cumulative).
	N int64
}

// HistogramSnapshot is a copied histogram.
type HistogramSnapshot struct {
	// Count is the total number of observations.
	Count int64
	// Sum is the sum of observed values.
	Sum float64
	// Buckets holds per-bucket counts in ascending LE order; empty
	// buckets are elided.
	Buckets []BucketCount
}

func (h *histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.n, Sum: h.sum}
	for i, n := range h.counts {
		if n == 0 {
			continue
		}
		le := -1.0
		if i < len(histogramBuckets) {
			le = histogramBuckets[i]
		}
		s.Buckets = append(s.Buckets, BucketCount{LE: le, N: n})
	}
	return s
}

// atoi64 parses a decimal field value, 0 on any error.
func atoi64(s string) int64 {
	var n int64
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int64(c-'0')
	}
	if s == "" {
		return 0
	}
	return n
}

// atof parses a simple non-negative decimal ("3.25"), 0 on any error.
func atof(s string) float64 {
	intPart, fracPart := s, ""
	for i := 0; i < len(s); i++ {
		if s[i] == '.' {
			intPart, fracPart = s[:i], s[i+1:]
			break
		}
	}
	whole := atoi64(intPart)
	if intPart != "" && whole == 0 && intPart != "0" {
		return 0
	}
	v := float64(whole)
	scale := 0.1
	for i := 0; i < len(fracPart); i++ {
		c := fracPart[i]
		if c < '0' || c > '9' {
			return 0
		}
		v += float64(c-'0') * scale
		scale /= 10
	}
	return v
}
