package policy

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/events"
)

func testClock(start time.Time) (*time.Time, func() time.Time) {
	t := start
	return &t, func() time.Time { return t }
}

func TestLedgerDecay(t *testing.T) {
	clock, now := testClock(time.Unix(1000, 0))
	l := NewLedger(LedgerConfig{HalfLife: time.Minute, Now: now})
	l.Observe("mallory", false, 0)
	if got := l.Suspicion("mallory"); got != 1.0 {
		t.Fatalf("suspicion after one failure = %v, want 1", got)
	}
	*clock = clock.Add(time.Minute)
	if got := l.Suspicion("mallory"); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("suspicion after one half-life = %v, want 0.5", got)
	}
	*clock = clock.Add(10 * time.Minute)
	if got := l.Suspicion("mallory"); got > 0.001 {
		t.Fatalf("suspicion after 11 half-lives = %v, want ~0", got)
	}
	// OK observations count events but add no suspicion.
	l.Observe("alice", true, 0)
	if got := l.Suspicion("alice"); got != 0 {
		t.Fatalf("suspicion after OK = %v, want 0", got)
	}
	rep, ok := l.Report("alice")
	if !ok || rep.Events != 1 || rep.Failures != 0 {
		t.Fatalf("report = %+v ok=%v, want 1 event 0 failures", rep, ok)
	}
}

func TestLedgerAccumulation(t *testing.T) {
	_, now := testClock(time.Unix(1000, 0))
	l := NewLedger(LedgerConfig{HalfLife: time.Minute, Now: now})
	for i := 0; i < 3; i++ {
		l.Observe("mallory", false, 0)
	}
	if got := l.Suspicion("mallory"); got != 3.0 {
		t.Fatalf("suspicion after three failures = %v, want 3", got)
	}
	rep, _ := l.Report("mallory")
	if rep.Failures != 3 || rep.Events != 3 {
		t.Fatalf("report = %+v, want 3/3", rep)
	}
}

func TestLedgerMergeDampsAndIsIdempotent(t *testing.T) {
	_, now := testClock(time.Unix(1000, 0))
	l := NewLedger(LedgerConfig{HalfLife: time.Minute, Now: now})
	at := time.Unix(1000, 0)
	l.Merge("mallory", 2.0, at)
	first := l.Suspicion("mallory")
	if math.Abs(first-1.8) > 1e-9 { // 2.0 * 0.9 damping
		t.Fatalf("merged suspicion = %v, want 1.8", first)
	}
	// Re-merging the same observation must not inflate.
	l.Merge("mallory", 2.0, at)
	if got := l.Suspicion("mallory"); got != first {
		t.Fatalf("re-merge changed suspicion %v -> %v", first, got)
	}
	// A lower remote value never reduces local knowledge.
	l.Merge("mallory", 0.5, at)
	if got := l.Suspicion("mallory"); got != first {
		t.Fatalf("lower merge reduced suspicion %v -> %v", first, got)
	}
	// Garbage is dropped.
	l.Merge("mallory", math.NaN(), at)
	l.Merge("mallory", math.Inf(1), at)
	l.Merge("", 3, at)
	if got := l.Suspicion("mallory"); got != first {
		t.Fatalf("garbage merge changed suspicion %v -> %v", first, got)
	}
}

func failedVerdict(suspect string) core.Verdict {
	return core.Verdict{
		Mechanism: "test", Moment: core.AfterSession,
		CheckedHost: suspect, Checker: "checker",
		OK: false, Suspect: suspect, Reason: "test failure",
	}
}

func TestReputationEscalation(t *testing.T) {
	_, now := testClock(time.Unix(1000, 0))
	led := NewLedger(LedgerConfig{HalfLife: time.Hour, Now: now})
	p := NewReputation(ReputationConfig{Ledger: led})

	// First offense: lenient — flag + notify, no quarantine.
	d := p.Decide("ag", failedVerdict("mallory"))
	if d.Quarantine || !d.Flag || !d.NotifyOwner {
		t.Fatalf("first offense decision = %+v, want flag+notify", d)
	}
	// Second offense within the window crosses the threshold.
	d = p.Decide("ag", failedVerdict("mallory"))
	if !d.Quarantine || !d.NotifyOwner {
		t.Fatalf("second offense decision = %+v, want quarantine", d)
	}
	// OK verdicts produce no response but are recorded.
	ok := failedVerdict("alice")
	ok.OK = true
	if d := p.Decide("ag", ok); d != (core.Decision{}) {
		t.Fatalf("OK verdict decision = %+v, want zero", d)
	}
	rep, found := p.HostReputation("mallory")
	if !found || rep.Failures != 2 {
		t.Fatalf("reporter = %+v found=%v, want 2 failures", rep, found)
	}
}

func TestReputationFirstOffenseQuarantines(t *testing.T) {
	p := NewReputation(ReputationConfig{FirstOffenseQuarantines: true})
	if d := p.Decide("ag", failedVerdict("mallory")); !d.Quarantine {
		t.Fatalf("strict-mode decision = %+v, want quarantine", d)
	}
}

// TestEscalationEventMatchesGate pins one escalation threshold: the
// ledger's escalation event fires on the observation that lifts a host
// to the suspicion at which the gate starts re-executing every session
// of it, and below that suspicion neither the event nor the gate's
// level escalation fires.
func TestEscalationEventMatchesGate(t *testing.T) {
	_, now := testClock(time.Unix(1000, 0))
	bus := events.NewBus(events.BusConfig{Node: "n", Now: now})
	defer bus.Close()
	led := NewLedger(LedgerConfig{HalfLife: time.Hour, Now: now, Bus: bus})
	g := NewGate(GateConfig{Ledger: led, AuditInterval: -1, Bus: bus})
	cursor := bus.NextSeq()
	published := func() map[string]int {
		evs, next, _ := bus.ReadSince(cursor, 0)
		cursor = next
		kinds := map[string]int{}
		for _, ev := range evs {
			if ev.Host != "shady" {
				t.Fatalf("%s event about %q", ev.Kind, ev.Host)
			}
			kinds[ev.Kind]++
		}
		return kinds
	}

	half := DefaultEscalateThreshold / 2
	led.Observe("shady", false, half)
	if g.ShouldReExecute("shady") {
		t.Fatalf("gate escalated at suspicion %v", led.Suspicion("shady"))
	}
	if kinds := published(); len(kinds) != 0 {
		t.Fatalf("below the threshold: published %v, want nothing", kinds)
	}

	led.Observe("shady", false, half)
	if kinds := published(); kinds[events.KindEscalation] != 1 || len(kinds) != 1 {
		t.Fatalf("observation lifting suspicion to %v published %v, want one escalation", led.Suspicion("shady"), kinds)
	}
	if !g.ShouldReExecute("shady") {
		t.Fatalf("gate did not escalate at suspicion %v", led.Suspicion("shady"))
	}
	if kinds := published(); kinds[events.KindLevelEscalation] != 1 || len(kinds) != 1 {
		t.Fatalf("gate check at the threshold published %v, want one level-escalation", kinds)
	}
}

func TestGateEscalation(t *testing.T) {
	_, now := testClock(time.Unix(1000, 0))
	led := NewLedger(LedgerConfig{HalfLife: time.Hour, Now: now})
	g := NewGate(GateConfig{Ledger: led, AuditInterval: 4})

	// Clean host: only the baseline audit cadence (every 4th session).
	var audited []int
	for i := 1; i <= 8; i++ {
		if g.ShouldReExecute("clean") {
			audited = append(audited, i)
		}
	}
	if len(audited) != 2 || audited[0] != 4 || audited[1] != 8 {
		t.Fatalf("audited sessions %v, want [4 8]", audited)
	}
	// One failure pushes the host over the gate threshold: every
	// session is checked from then on.
	led.Observe("shady", false, 0)
	for i := 0; i < 3; i++ {
		if !g.ShouldReExecute("shady") {
			t.Fatal("suspect host's session not escalated")
		}
	}
	// AuditInterval < 0 disables the baseline cadence.
	g2 := NewGate(GateConfig{Ledger: led, AuditInterval: -1})
	for i := 0; i < 64; i++ {
		if g2.ShouldReExecute("clean") {
			t.Fatal("audit fired with cadence disabled")
		}
	}
}
