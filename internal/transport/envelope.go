package transport

import "repro/internal/canon"

// Urgent-reply envelope. A node answering a protocol call may have
// fresh quarantine-level detections that the caller should not have to
// wait an exchange round to hear about. Rather than a second RPC, the
// reply itself grows an optional baggage slot: the payload the method
// produced, plus an opaque urgent-baggage blob the caller's policy
// layer verifies and merges exactly like gossip. The envelope is a
// transport concern only — it frames bytes, it does not interpret them.
//
// Compatibility is by construction: WrapReply leaves a reply untouched
// when there is no baggage, and OpenReply passes any non-envelope bytes
// through as the payload. Every existing reply codec (gob builtins,
// canon-tuple protocol messages) therefore round-trips unchanged, and a
// caller that never learned about envelopes keeps working until the
// moment a peer actually has something urgent to say.
const (
	// replyEnvelopeLabel versions the envelope framing. No legitimate
	// payload codec starts a canon tuple with this label, so detection
	// by label cannot misfire on real traffic.
	replyEnvelopeLabel = "transport-urgent-envelope"

	// MaxReplyBaggageBytes bounds the urgent-baggage slot; an envelope
	// declaring more is stripped of its baggage (the payload still
	// passes through). Matches the gossip wire bound — baggage carries
	// the same signed-extract lists.
	MaxReplyBaggageBytes = 64 * 1024
)

// WrapReply attaches urgent baggage to a reply payload. Empty baggage
// returns the payload unchanged — the common case costs nothing and
// stays byte-identical to a pre-envelope reply. Oversized baggage is
// dropped rather than sent: the receiver would strip it anyway.
func WrapReply(payload, baggage []byte) []byte {
	if len(baggage) == 0 || len(baggage) > MaxReplyBaggageBytes {
		return payload
	}
	return canon.Tuple([]byte(replyEnvelopeLabel), payload, baggage)
}

// OpenReply splits a reply into payload and urgent baggage. Bytes that
// are not an envelope — malformed tuples, wrong label, wrong arity —
// are returned whole as the payload with nil baggage, so callers can
// unconditionally OpenReply every response. Baggage over the bound is
// dropped (nil) while the payload is still returned; the baggage is
// advisory second-hand evidence, never worth failing the call over.
func OpenReply(raw []byte) (payload, baggage []byte) {
	s, err := canon.ScanList(raw, replyEnvelopeLabel, len(raw), 2)
	if err != nil {
		return raw, nil
	}
	payload, baggage = s.Field(len(raw)), s.Field(len(raw))
	switch {
	case s.End() != nil:
		return raw, nil
	case len(baggage) > MaxReplyBaggageBytes:
		return payload, nil
	}
	return payload, baggage
}
