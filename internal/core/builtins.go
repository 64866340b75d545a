package core

// HandleCall: the node's built-in calls, their reply types and the one
// gob codec pair operator tools decode them with, and mechanism calls.

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"strings"

	"repro/internal/transport"
)

// NodeCallNamespace is the reserved HandleCall namespace for built-in
// node methods (mechanism names must differ).
const NodeCallNamespace = "node"

// StatusCallBody builds the body for a node/status call.
func StatusCallBody(agentID string) []byte { return []byte(agentID) }

// DecodeStatusReply decodes a node/status response.
func DecodeStatusReply(body []byte) (AgentStatus, error) {
	return decodeGob[AgentStatus]("status", body)
}

// ReputationCallBody builds the body for a node/reputation call.
func ReputationCallBody(host string) []byte { return []byte(host) }

// ReputationReply is the answer to a node/reputation call: this node's
// local view of one host's standing. Reputation is per-node knowledge
// (each node fuses its own verdicts plus the gossip it verified), so
// different nodes legitimately answer differently.
type ReputationReply struct {
	// Policy names the node's verdict policy.
	Policy string
	// Tracked is false when the policy keeps no reputation ledger (the
	// strict built-in).
	Tracked bool
	// Known reports whether the ledger has observations for the host;
	// Rep is meaningful only when Known.
	Known bool
	Rep   HostReputation
	// ExchangeEnabled reports whether this node runs the anti-entropy
	// exchange loop; Exchange carries its counters (OffersServed is
	// filled even on loop-less nodes that answer peers' offers).
	ExchangeEnabled bool
	Exchange        ExchangeStats
}

// DecodeReputationReply decodes a node/reputation response.
func DecodeReputationReply(body []byte) (ReputationReply, error) {
	return decodeGob[ReputationReply]("reputation", body)
}

// HealthCallBody builds the (empty) body for a node/health call.
func HealthCallBody() []byte { return nil }

// HealthReply is the answer to a node/health call: the node's
// durability posture. A node whose WAL can no longer accept records
// keeps serving from memory (persistence degrades, the platform does
// not stop), which makes the degradation invisible until the restart
// that loses state — this reply is the operator surface that breaks
// that silence. Degraded is sticky: WAL errors are not retried (a log
// with holes would replay into a silently wrong state), so only a
// restart against repaired storage clears it.
type HealthReply struct {
	// Host is the answering node's principal name.
	Host string
	// Durable reports whether the node runs with a DataDir at all.
	Durable bool
	// Degraded reports at least one persistence failure since open;
	// PersistFailures counts them (WAL appends, compactions, evidence
	// spills, and any co-located state folded in via
	// Node.NotePersistError).
	Degraded        bool
	PersistFailures int64
	// FirstPersistError is the first failure's message, with its
	// timestamp; LastPersistUnixNano the most recent failure's.
	FirstPersistError    string
	FirstPersistUnixNano int64
	LastPersistUnixNano  int64
	// JournalEntries and QuarantineEntries size the in-memory
	// bookkeeping tiers.
	JournalEntries    int
	QuarantineEntries int
	// EventsEnabled reports whether the node runs an event pipeline;
	// EventsPublished and EventDrops are then its delivery ledger
	// (total events accepted by the bus, and total dropped across all
	// subscribers — the loss the best-effort-bounded contract permits,
	// reported rather than hidden).
	EventsEnabled   bool
	EventsPublished uint64
	EventDrops      uint64
	// FlightRecorder reports whether a WAL-backed flight recorder
	// runs; FlightDegraded that its WAL hit a sticky persistence
	// failure (recording continues in memory but will not survive the
	// next crash). FlightDegraded implies Degraded.
	FlightRecorder bool
	FlightDegraded bool
}

// DecodeHealthReply decodes a node/health response.
func DecodeHealthReply(body []byte) (HealthReply, error) {
	return decodeGob[HealthReply]("health", body)
}

// Health snapshots the node's durability posture (what node/health
// serves).
func (n *Node) Health() HealthReply {
	n.healthMu.Lock()
	r := HealthReply{
		Host:                 n.cfg.Host.Name(),
		Durable:              n.cfg.DataDir != "",
		Degraded:             n.persistFailures > 0,
		PersistFailures:      n.persistFailures,
		FirstPersistError:    n.firstPersistErr,
		FirstPersistUnixNano: n.firstPersistUnix,
		LastPersistUnixNano:  n.lastPersistUnix,
	}
	n.healthMu.Unlock()
	r.JournalEntries = n.journal.Len()
	r.QuarantineEntries = n.quarantine.Len()
	if p := n.cfg.Events; p != nil {
		r.EventsEnabled = true
		if p.Bus != nil {
			r.EventsPublished = p.Bus.Stats().Published
		}
		r.EventDrops = p.Drops()
		r.FlightRecorder = p.Flight != nil
		if p.Degraded() {
			// A flight recorder that can no longer persist is a
			// durability degradation like any other WAL failure: the
			// next crash silently loses the incident record.
			r.FlightDegraded = true
			r.Degraded = true
		}
	}
	return r
}

// QuarantineCallBody builds the body for a node/quarantine call.
func QuarantineCallBody(agentID string) []byte { return []byte(agentID) }

// QuarantineReply is the answer to a node/quarantine call: whether the
// agent is held in quarantine at this node, and the evidence it
// carries.
type QuarantineReply struct {
	// Held reports that the agent's retained copy is in quarantine
	// here; Evicted that it was quarantined here but the copy has been
	// evicted under capacity pressure (the detection itself remains on
	// record in Status).
	Held    bool
	Evicted bool
	// Evidence is the node-local path of the evicted agent's spilled
	// canonical bytes, set only when Evicted and the node runs with a
	// data dir. It names a file on the answering node's filesystem
	// (inspect it there with `agentctl evidence`).
	Evidence string
	// Status is the agent's journal status at this node.
	Status AgentStatus
	// Owner, Hops, and Verdicts describe the retained agent; set only
	// when Held.
	Owner    string
	Hops     int
	Verdicts []Verdict
}

// DecodeQuarantineReply decodes a node/quarantine response.
func DecodeQuarantineReply(body []byte) (QuarantineReply, error) {
	return decodeGob[QuarantineReply]("quarantine", body)
}

// HandleCall implements transport.Endpoint: methods are namespaced
// "mechanism/method" and dispatched to the mechanism's CallHandler.
// The "node" namespace is reserved for built-ins: "node/status" takes
// an agent ID and returns its gob-encoded AgentStatus, which is how
// remote launchers (cmd/agentctl) track asynchronous journeys.
func (n *Node) HandleCall(ctx context.Context, method string, body []byte) ([]byte, error) {
	name, rest, ok := strings.Cut(method, "/")
	if !ok {
		return nil, fmt.Errorf("%w: %q", transport.ErrUnknownMethod, method)
	}
	if name == NodeCallNamespace {
		switch rest {
		case "status":
			return gobReply("status", n.Status(string(body)))
		case "reputation":
			reply := ReputationReply{Policy: n.policy().Name()}
			if rr, ok := n.policy().(ReputationReporter); ok {
				reply.Tracked = true
				reply.Rep, reply.Known = rr.HostReputation(string(body))
			}
			reply.Exchange, reply.ExchangeEnabled = n.exchangeStats()
			return gobReply("reputation", reply)
		case "quarantine":
			id := string(body)
			reply := QuarantineReply{Status: n.Status(id)}
			switch ag, err := n.Quarantined(id); {
			case err == nil:
				reply.Held = true
				reply.Owner = ag.Owner
				reply.Hops = ag.Hop
				reply.Verdicts = AgentVerdicts(ag)
			case errors.Is(err, ErrQuarantineEvicted):
				reply.Evicted = true
				var evErr *QuarantineEvictedError
				if errors.As(err, &evErr) {
					reply.Evidence = evErr.Evidence
				}
			}
			return gobReply("quarantine", reply)
		case "health":
			return gobReply("health", n.Health())
		case "metrics":
			return gobReply("metrics", n.metricsReply())
		case "plan":
			return gobReply("plan", n.planReply())
		case "events":
			return gobReply("events", n.eventsReply(body))
		case "flight":
			return gobReply("flight", n.flightReply())
		default:
			return nil, fmt.Errorf("%w: node/%s", transport.ErrUnknownMethod, rest)
		}
	}
	for _, m := range n.cfg.Mechanisms {
		if m.Name() != name {
			continue
		}
		h, ok := m.(CallHandler)
		if !ok {
			return nil, fmt.Errorf("%w: mechanism %q takes no calls", transport.ErrUnknownMethod, name)
		}
		reply, err := h.HandleCall(ctx, n.hc, rest, body)
		if err != nil || n.urgent == nil {
			return reply, err
		}
		// Mechanism replies (never node/ builtins — external tools gob-
		// decode those raw) carry urgent quarantine-level extracts when
		// the provider has any: the caller learns of a fresh detection
		// in the same RPC that triggered it.
		if baggage := n.urgent.UrgentReplyBaggage(n.hc); len(baggage) > 0 {
			reply = transport.WrapReply(reply, baggage)
		}
		return reply, nil
	}
	return nil, fmt.Errorf("%w: no mechanism %q", transport.ErrUnknownMethod, name)
}

// gobReply encodes a built-in call response. With decodeGob, which every
// Decode*Reply calls, it is the package's one gob codec pair: what peers
// write into an agent travels in canon codecs instead.
func gobReply(method string, v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("core: encoding %s reply: %w", method, err)
	}
	return buf.Bytes(), nil
}

// decodeGob decodes a built-in call response gobReply encoded.
func decodeGob[T any](method string, body []byte) (T, error) {
	var v T
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&v); err != nil {
		var zero T
		return zero, fmt.Errorf("core: decoding %s reply: %w", method, err)
	}
	return v, nil
}
