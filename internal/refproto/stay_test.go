package refproto

import (
	"context"
	"testing"

	"repro/internal/agentlang"
	"repro/internal/value"
)

// TestHandoffEndsWithTheStay: the handoff the next host records on
// arrival is consumed when the agent departs again. Where the stay ends
// instead — the journey completes there, or the check quarantines the
// agent — the node ends the stay, and the hop bed's next host must be
// left with no pending handoff.
func TestHandoffEndsWithTheStay(t *testing.T) {
	pending := func(p pair) int {
		p.mu.Lock()
		defer p.mu.Unlock()
		return len(p.stays)
	}
	for _, tc := range []struct {
		name string
		lie  bool // the executing host reports an input its session never read
	}{{"completed", false}, {"quarantined", true}} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			bed := newHopBed(t, bedConfig{vars: 2})
			if tc.lie {
				bed.rec.Input = append(bed.rec.Input, agentlang.InputRecord{
					Call: "read", Args: []value.Value{value.Str("k")}, Result: value.Int(1)})
			}
			arrived := bed.depart(t)
			v, err := bed.mNext.CheckAfterSession(ctx, bed.hcNext, arrived)
			if err != nil {
				t.Fatal(err)
			}
			if v == nil || v.OK == tc.lie {
				t.Fatalf("verdict %+v, want OK = %v", v, !tc.lie)
			}
			if n := pending(bed.mNext); n != 1 {
				t.Fatalf("%d handoffs pending after arrival, want 1", n)
			}
			if !tc.lie {
				if _, err := bed.mNext.check.CheckAfterTask(ctx, bed.hcNext, arrived, nil); err != nil {
					t.Fatal(err)
				}
			}
			bed.mNext.check.EndStay(bed.hcNext, arrived)
			if n := pending(bed.mNext); n != 0 {
				t.Fatalf("%d handoffs pending after the stay ended, want 0", n)
			}
		})
	}
}
