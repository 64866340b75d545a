// Package events is the platform's observability spine: a bounded,
// non-blocking pub/sub bus that every producing layer (core node,
// policy, protection, replication) publishes typed facts into, plus
// the three built-in consumers the operations control plane is made
// of — a metrics registry (counters/gauges/histograms), a cursor-based
// journal that `agentctl watch` tails over plain request/response, and
// a WAL-backed flight recorder for post-incident replay.
//
// The bus contract is best-effort-bounded: Publish never blocks and
// never waits on a consumer; a subscriber that falls behind loses the
// oldest buffered events and its drop counter says exactly how many.
// Ordering is per publisher — sequence numbers are assigned under the
// bus lock, so every consumer observes the same total order, but no
// cross-node ordering exists or is implied.
package events

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/canon"
)

// Event kinds. One constant per fact the platform publishes; consumers
// switch on these, so the strings are wire/WAL-stable.
const (
	// KindIntake fires when an agent is accepted into a node's queue.
	KindIntake = "intake"
	// KindVerdict fires for every mechanism verdict a node records.
	KindVerdict = "verdict"
	// KindQuarantine fires when a journey is quarantined.
	KindQuarantine = "quarantine"
	// KindComplete fires when a journey finishes its itinerary clean.
	KindComplete = "complete"
	// KindForward fires when an agent is forwarded to its next hop.
	KindForward = "forward"
	// KindFailed fires when a journey fails for a non-detection reason
	// (transport error, context cancellation, mechanism error).
	KindFailed = "failed"
	// KindJournalEvict fires when the node journal evicts an entry to
	// capacity or TTL pressure.
	KindJournalEvict = "journal-evict"
	// KindPersistError fires when a durable store reports a (sticky)
	// persistence failure.
	KindPersistError = "persist-error"
	// KindEvidencePrune fires immediately before an evidence file is
	// removed by the count or byte budget — the archive-before-drop
	// hook.
	KindEvidencePrune = "evidence-prune"
	// KindEscalation fires when a host's ledger suspicion crosses the
	// escalation threshold upward (via local observation or merge).
	KindEscalation = "escalation"
	// KindGossipMerge fires when verified gossip/exchange extracts are
	// merged into the local ledger.
	KindGossipMerge = "gossip-merge"
	// KindExchangeRound fires after every anti-entropy exchange round,
	// successful or not.
	KindExchangeRound = "exchange-round"
	// KindPeerCooldown fires when an exchange peer enters or extends
	// its failure cooldown.
	KindPeerCooldown = "peer-cooldown"
	// KindLevelEscalation fires when the adaptive gate escalates a
	// session to full re-execution because of suspicion.
	KindLevelEscalation = "level-escalation"
	// KindOwnerNotice fires when policy asks the platform to notify
	// the agent's owner.
	KindOwnerNotice = "owner-notice"
	// KindAdmissionRefused fires when a node's admission policy turns a
	// delivery away before intake (the verdict-free refusal path); Host
	// names the suspicious sender that was shunned.
	KindAdmissionRefused = "admission-refused"
	// KindIntakeRefused fires when a RefuseWhenFull node fast-fails a
	// delivery against a full intake queue — the overload spillover
	// signal planners route around.
	KindIntakeRefused = "intake-refused"
)

// Event is one typed fact on the bus. Node, Seq, and UnixNano are
// stamped by the bus at publish; producers fill Kind and whichever of
// Agent/Host/Fields apply. Fields is a small bag of extras (reason,
// mechanism, counts) — bounded at publish so the canonical encoding is
// total.
type Event struct {
	// Seq is the publisher-local sequence number; dense and monotone
	// per bus, and — when a flight recorder seeds the bus — monotone
	// across restarts of the same node.
	Seq uint64
	// Kind is one of the Kind* constants.
	Kind string
	// Node is the publishing node's name.
	Node string
	// Agent is the subject agent ID, if any.
	Agent string
	// Host is the subject host or peer name, if any (the suspect of a
	// failed verdict, the exchange partner, the next hop).
	Host string
	// UnixNano is the publish time on the bus clock.
	UnixNano int64
	// Fields holds bounded key/value extras; may be nil.
	Fields map[string]string
}

// Field returns a field value or "" when absent.
func (e Event) Field(key string) string {
	if e.Fields == nil {
		return ""
	}
	return e.Fields[key]
}

// Bounds on the canonical event encoding. Publish sanitizes events to
// fit, so EncodeEvent is total on anything that went through a bus.
const (
	// MaxEventFields caps the Fields map size.
	MaxEventFields = 16
	// MaxEventStringLen caps every string in an event (kind, names,
	// field keys and values). Longer strings are truncated at publish.
	MaxEventStringLen = 1024
)

// eventWireLabel versions the canonical event encoding.
const eventWireLabel = "event-v1"

// ErrEventWire reports a malformed canonical event encoding.
var ErrEventWire = errors.New("events: malformed event encoding")

// EncodeEvent renders an event as a bounded canonical tuple, the
// format the flight recorder persists through the WAL backend.
func EncodeEvent(e Event) []byte {
	var seq, ts [8]byte
	binary.BigEndian.PutUint64(seq[:], e.Seq)
	binary.BigEndian.PutUint64(ts[:], uint64(e.UnixNano))
	keys := make([]string, 0, len(e.Fields))
	for k := range e.Fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	kv := make([][]byte, 0, 2*len(keys))
	for _, k := range keys {
		kv = append(kv, []byte(k), []byte(e.Fields[k]))
	}
	return canon.Tuple(
		[]byte(eventWireLabel),
		seq[:],
		[]byte(e.Kind),
		[]byte(e.Node),
		[]byte(e.Agent),
		[]byte(e.Host),
		ts[:],
		canon.Tuple(kv...),
	)
}

// DecodeEvent parses a canonical event encoding produced by
// EncodeEvent, enforcing the same bounds Publish does.
func DecodeEvent(b []byte) (Event, error) {
	s, err := canon.ScanList(b, eventWireLabel, len(b), 7)
	if err != nil {
		return Event{}, fmt.Errorf("%w: %w", ErrEventWire, err)
	}
	e := Event{
		Seq:      s.Uint64(),
		Kind:     string(s.Field(MaxEventStringLen)),
		Node:     string(s.Field(MaxEventStringLen)),
		Agent:    string(s.Field(MaxEventStringLen)),
		Host:     string(s.Field(MaxEventStringLen)),
		UnixNano: int64(s.Uint64()),
	}
	fields := s.Field(len(b))
	if err := s.End(); err != nil {
		return Event{}, fmt.Errorf("%w: %w", ErrEventWire, err)
	}
	kv, err := canon.ScanTuple(fields)
	if err == nil && (kv.Len()%2 != 0 || kv.Len() > 2*MaxEventFields) {
		err = fmt.Errorf("%w: %d field keys and values", canon.ErrMalformed, kv.Len())
	}
	if err != nil {
		return Event{}, fmt.Errorf("%w: %w", ErrEventWire, err)
	}
	if kv.Len() > 0 {
		e.Fields = make(map[string]string, kv.Len()/2)
	}
	// Keys strictly increase, as EncodeEvent writes them: bytes with a
	// key out of order or repeated are not the encoding of any event.
	prev := ""
	for kv.Len() > 0 {
		k := string(kv.Field(MaxEventStringLen))
		if len(e.Fields) > 0 && k <= prev {
			return Event{}, fmt.Errorf("%w: %w: field key %q does not follow the key before it", ErrEventWire, canon.ErrMalformed, k)
		}
		e.Fields[k] = string(kv.Field(MaxEventStringLen))
		prev = k
	}
	if err := kv.End(); err != nil {
		return Event{}, fmt.Errorf("%w: %w", ErrEventWire, err)
	}
	return e, nil
}

// clip truncates a string to the event string bound. The kept prefix
// is a copy: a window would keep the whole source alive for as long as
// the journal holds the event, and some sources are a peer's reply
// text of up to a frame's size.
func clip(s string) string {
	if len(s) > MaxEventStringLen {
		return strings.Clone(s[:MaxEventStringLen])
	}
	return s
}

// sanitize bounds an event's strings and fields in place so every
// published event has a valid canonical encoding.
func sanitize(e *Event) {
	e.Kind = clip(e.Kind)
	e.Node = clip(e.Node)
	e.Agent = clip(e.Agent)
	e.Host = clip(e.Host)
	if len(e.Fields) == 0 {
		return
	}
	if len(e.Fields) > MaxEventFields {
		keys := slices.Sorted(maps.Keys(e.Fields))
		trimmed := make(map[string]string, MaxEventFields)
		for _, k := range keys[:MaxEventFields] {
			trimmed[k] = e.Fields[k]
		}
		e.Fields = trimmed
	}
	for k, v := range e.Fields {
		ck, cv := clip(k), clip(v)
		if ck != k {
			delete(e.Fields, k)
		}
		e.Fields[ck] = cv
	}
}
