package transport

import (
	"bytes"
	"testing"

	"repro/internal/canon"
)

// FuzzOpenReply feeds the urgent reply envelope — which a caller opens on
// every reply a peer sends it — the bytes a hostile peer could send. It
// must not panic; the baggage it returns is within MaxReplyBaggageBytes;
// bytes that are not an envelope come back whole as the payload; and an
// envelope it accepts with baggage is exactly what WrapReply makes of
// that payload and baggage.
func FuzzOpenReply(f *testing.F) {
	f.Add([]byte("a plain reply"))
	f.Add(canon.Tuple([]byte("policy-gossip-delta"), []byte("x")))
	f.Add(WrapReply([]byte("payload"), []byte("urgent extracts")))
	f.Add(canon.Tuple([]byte(replyEnvelopeLabel), []byte("payload"), make([]byte, MaxReplyBaggageBytes+1)))
	f.Fuzz(func(t *testing.T, raw []byte) {
		payload, baggage := OpenReply(raw)
		if len(baggage) > MaxReplyBaggageBytes {
			t.Fatalf("baggage of %d bytes, over the %d bound", len(baggage), MaxReplyBaggageBytes)
		}
		s, err := canon.ScanTuple(raw)
		arity := s.Len()
		label := s.Field(len(raw))
		s.Field(len(raw))
		s.Field(len(raw))
		envelope := err == nil && arity == 3 && string(label) == replyEnvelopeLabel && s.End() == nil
		if !envelope {
			if !bytes.Equal(payload, raw) || baggage != nil {
				t.Fatalf("a non-envelope came back as payload %q, baggage %q", payload, baggage)
			}
			return
		}
		if len(baggage) > 0 && !bytes.Equal(WrapReply(payload, baggage), raw) {
			t.Fatal("WrapReply(OpenReply(x)) != x for an accepted envelope")
		}
	})
}
