package main

import (
	"testing"

	"repro/internal/core"
)

func TestStatusLine(t *testing.T) {
	for _, tt := range []struct {
		name string
		st   core.AgentStatus
		want string
	}{
		{"forwarded", core.AgentStatus{Phase: core.PhaseForwarded, NextHost: "back"},
			"agentctl: shop: forwarded -> back"},
		{"failed", core.AgentStatus{Phase: core.PhaseFailed, Err: "session: runtime error"},
			"agentctl: shop: failed (session: runtime error)"},
		{"failed with refuser", core.AgentStatus{Phase: core.PhaseFailed, Err: "forward to back failed", RefusedBy: "back"},
			"agentctl: shop: failed (forward to back failed) refused-by=back"},
		{"completed", core.AgentStatus{Phase: core.PhaseCompleted}, "agentctl: shop: completed"},
	} {
		if got := statusLine("shop", tt.st); got != tt.want {
			t.Errorf("%s: statusLine = %q, want %q", tt.name, got, tt.want)
		}
	}
	// The refuser is part of what track compares to decide whether to
	// print again.
	failed := core.AgentStatus{Phase: core.PhaseFailed, Err: "forward to back failed"}
	refused := failed
	refused.RefusedBy = "back"
	if statusLine("shop", failed) == statusLine("shop", refused) {
		t.Error("a status that gained a refuser renders as the one without")
	}
}
