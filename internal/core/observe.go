package core

// The node's face of the observability plane (internal/events): the
// publish helpers every pipeline stage calls, and the node/metrics,
// node/events, and node/flight built-in calls that agentctl's
// `metrics`, `watch`, and `flight` subcommands consume. All three are
// plain request/response over the existing transport — the watch
// stream in particular is a cursor poll (bounded batch + resume
// token), not a transport extension.

import (
	"encoding/binary"

	"repro/internal/events"
	"repro/internal/shardstore"
)

// publish forwards one event to the node's pipeline; a no-op when the
// node runs without one. Bounded, non-blocking work — safe on every
// hot path (events.Bus.Publish never waits on a consumer).
func (n *Node) publish(ev events.Event) {
	n.cfg.Events.Publish(ev)
}

// publishVerdict renders a verdict as its bus event: the Host field
// carries the suspect for failed checks and the vouched-for host for
// clean ones, which is what lets consumers (campaign scoring, watch
// filters) attribute detections without re-parsing reasons.
func (n *Node) publishVerdict(v Verdict) {
	if n.cfg.Events == nil {
		return
	}
	hostName := v.CheckedHost
	ok := "true"
	if !v.OK {
		hostName = v.Suspect
		ok = "false"
	}
	n.publish(events.Event{
		Kind:  events.KindVerdict,
		Agent: v.AgentID,
		Host:  hostName,
		Fields: map[string]string{
			"mechanism": v.Mechanism,
			"ok":        ok,
			"reason":    v.Reason,
		},
	})
}

// MetricsCallBody builds the (empty) body for a node/metrics call.
func MetricsCallBody() []byte { return nil }

// MetricsReply is the answer to a node/metrics call: the event-derived
// metrics snapshot plus the node-side gauges a registry cannot see.
type MetricsReply struct {
	// Enabled is false when the node runs without an event pipeline;
	// the snapshot is then zero.
	Enabled bool
	// Snapshot is the registry's aggregate view (counters, gauges,
	// histograms, per-subscriber drop ledger).
	Snapshot events.MetricsSnapshot
	// JournalEntries and QuarantineEntries size the bookkeeping tiers
	// at snapshot time (gauges owned by the node, not the bus).
	JournalEntries    int
	QuarantineEntries int
	// WALs reports the durable stores' backend counters (appends,
	// fsyncs, records per fsync) — how observable fsync amortization
	// is, per store. Empty for memory-only nodes.
	WALs []WALStatsEntry
	// AdmissionRefused counts deliveries rejected by the node's
	// AdmissionPolicy; IntakeRefused counts RefuseWhenFull fast-fails.
	// Both also appear on node/plan.
	AdmissionRefused int64
	IntakeRefused    int64
	// Exchange carries the gossip mechanism's counters (the same
	// ExchangeStats node/reputation reports), so a metrics scrape shows
	// the extract-reuse and verify-memo hit rates without a second call.
	// Zero on nodes without a reputation mechanism.
	Exchange ExchangeStats
}

// WALStatsEntry names one durable store's backend counters in a
// MetricsReply.
type WALStatsEntry struct {
	Store string
	Stats shardstore.WALStats
}

// DecodeMetricsReply decodes a node/metrics response.
func DecodeMetricsReply(body []byte) (MetricsReply, error) {
	return decodeGob[MetricsReply]("metrics", body)
}

// metricsReply snapshots the node's metrics surface.
func (n *Node) metricsReply() MetricsReply {
	r := MetricsReply{
		JournalEntries:    n.journal.Len(),
		QuarantineEntries: n.quarantine.Len(),
		AdmissionRefused:  n.admissionRefused.Load(),
		IntakeRefused:     n.intakeRefused.Load(),
	}
	if st, ok := n.journal.BackendStats(); ok {
		r.WALs = append(r.WALs, WALStatsEntry{Store: "journal", Stats: st})
	}
	if st, ok := n.quarantine.BackendStats(); ok {
		r.WALs = append(r.WALs, WALStatsEntry{Store: "quarantine", Stats: st})
	}
	if n.cfg.Events != nil && n.cfg.Events.Metrics != nil {
		r.Enabled = true
		r.Snapshot = n.cfg.Events.Metrics.Snapshot()
	}
	r.Exchange, _ = n.exchangeStats()
	return r
}

// exchangeStats returns the counters of the node's exchange-reporting
// mechanism (zero when it has none) and whether it runs a loop.
func (n *Node) exchangeStats() (ExchangeStats, bool) {
	for _, m := range n.cfg.Mechanisms {
		if er, ok := m.(ExchangeReporter); ok {
			return er.ExchangeStats()
		}
	}
	return ExchangeStats{}, false
}

// DefaultEventsBatch bounds a node/events reply when the request asks
// for 0 events.
const DefaultEventsBatch = 256

// MaxEventsBatch caps a node/events reply regardless of the request.
const MaxEventsBatch = 1024

// EventsCallBody builds the body for a node/events call: resume from
// cursor (0 or 1 means "from the oldest retained event"), returning at
// most max events (0 means DefaultEventsBatch, capped at
// MaxEventsBatch).
func EventsCallBody(cursor uint64, max int) []byte {
	var b [12]byte
	binary.BigEndian.PutUint64(b[:8], cursor)
	binary.BigEndian.PutUint32(b[8:], uint32(max))
	return b[:]
}

// EventsReply is the answer to a node/events call: one bounded batch
// of the node's event journal plus the cursor to resume from. Polling
// with Next as the new cursor tails the node live; Missed > 0 means
// the poller fell behind the journal ring and that many events are
// gone (reported, not hidden — the best-effort-bounded contract).
type EventsReply struct {
	// Enabled is false when the node runs without an event pipeline.
	Enabled bool
	// Events is the batch, oldest first.
	Events []events.Event
	// Next is the cursor for the next poll.
	Next uint64
	// Missed counts events that fell off the ring before this cursor
	// could read them.
	Missed uint64
}

// DecodeEventsReply decodes a node/events response.
func DecodeEventsReply(body []byte) (EventsReply, error) {
	return decodeGob[EventsReply]("events", body)
}

// eventsReply serves one journal batch.
func (n *Node) eventsReply(body []byte) EventsReply {
	if n.cfg.Events == nil || n.cfg.Events.Bus == nil {
		return EventsReply{}
	}
	var cursor uint64
	max := 0
	if len(body) >= 12 {
		cursor = binary.BigEndian.Uint64(body[:8])
		max = int(binary.BigEndian.Uint32(body[8:12]))
	}
	if max <= 0 {
		max = DefaultEventsBatch
	}
	if max > MaxEventsBatch {
		max = MaxEventsBatch
	}
	evs, next, missed := n.cfg.Events.Bus.ReadSince(cursor, max)
	return EventsReply{Enabled: true, Events: evs, Next: next, Missed: missed}
}

// FlightCallBody builds the (empty) body for a node/flight call.
func FlightCallBody() []byte { return nil }

// FlightReply is the answer to a node/flight call: the flight
// recorder's current window — WAL-recovered pre-crash history plus
// events recorded since — oldest first.
type FlightReply struct {
	// Enabled is false when the node runs without a flight recorder
	// (no event pipeline, or a memory-only one).
	Enabled bool
	// Degraded reports a sticky recorder WAL failure: recording
	// continues in memory but will not survive the next crash.
	Degraded bool
	// Events is the recorded window sorted by sequence number.
	Events []events.Event
}

// DecodeFlightReply decodes a node/flight response.
func DecodeFlightReply(body []byte) (FlightReply, error) {
	return decodeGob[FlightReply]("flight", body)
}

// flightReply serves the recorder window.
func (n *Node) flightReply() FlightReply {
	if n.cfg.Events == nil || n.cfg.Events.Flight == nil {
		return FlightReply{}
	}
	rec := n.cfg.Events.Flight
	return FlightReply{Enabled: true, Degraded: rec.Degraded(), Events: rec.Events()}
}
