package core

import (
	"cmp"
	"testing"
)

// ShrinkRetention lowers the journal, quarantine and evidence bounds of
// every node built until t ends, so a test can force journal eviction,
// quarantine spills and evidence pruning without thousands of agents.
// A zero keeps that bound at its default.
func ShrinkRetention(t testing.TB, journal, quarantine, evidence int) {
	saved := [...]int{journalLimit, quarantineLimit, evidenceLimit}
	t.Cleanup(func() {
		journalLimit, quarantineLimit, evidenceLimit = saved[0], saved[1], saved[2]
	})
	journalLimit = cmp.Or(journal, journalLimit)
	quarantineLimit = cmp.Or(quarantine, quarantineLimit)
	evidenceLimit = cmp.Or(evidence, evidenceLimit)
}
