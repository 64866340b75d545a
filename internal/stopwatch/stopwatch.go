// Package stopwatch accumulates wall-clock time per named phase. The
// benchmark harness uses it to reproduce the column structure of the
// paper's Tables 1 and 2: "sign & verify" (cryptographic operations),
// "cycle" (the agent's computation loop), and "remainder" (everything
// else), against the measured "overall" time.
package stopwatch

import (
	"maps"
	"slices"
	"sync"
	"time"
)

// Well-known phase names used across the repository.
const (
	PhaseSignVerify = "sign&verify"
	PhaseCycle      = "cycle"
)

// PhaseTimer accumulates durations per phase, and counts the spans
// they came in. It is safe for concurrent use. The zero value is ready
// to use.
type PhaseTimer struct {
	mu     sync.Mutex
	phases map[string]phase
}

type phase struct {
	d     time.Duration
	spans int
}

// Add accumulates d into the named phase as one span.
func (t *PhaseTimer) Add(name string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.phases == nil {
		t.phases = make(map[string]phase)
	}
	p := t.phases[name]
	p.d += d
	p.spans++
	t.phases[name] = p
}

// Time starts timing the named phase and returns a stop function;
// intended for defer:
//
//	defer timer.Time(stopwatch.PhaseSignVerify)()
func (t *PhaseTimer) Time(phase string) func() {
	start := time.Now()
	return func() { t.Add(phase, time.Since(start)) }
}

// Get returns the accumulated duration for a phase.
func (t *PhaseTimer) Get(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.phases[name].d
}

// Count returns how many spans a phase accumulated. Mechanisms that
// time each signature and verification on its own make it their
// operation count.
func (t *PhaseTimer) Count(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.phases[name].spans
}

// Phases returns the recorded phase names in sorted order.
func (t *PhaseTimer) Phases() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Sorted(maps.Keys(t.phases))
}
