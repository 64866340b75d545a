package core

// Crash-window tests for the quarantine durability path: spillEvidence
// runs under the shard lock BEFORE the eviction's delete reaches the
// WAL, which opens a window where a kill lands after the spill but
// before the logged delete. These tests pin what a restart recovers
// from each side of that window.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestRestartBetweenSpillAndLoggedDelete simulates the kill landing in
// the window: the evidence file is on disk but the WAL still holds the
// agent's Put with no Delete. Replay must recover the agent in memory
// (the WAL is the source of truth), byte-identical, with the stale
// evidence file remaining a valid — merely redundant — recovery
// artifact rather than confusing the lookup.
func TestRestartBetweenSpillAndLoggedDelete(t *testing.T) {
	b := newDurableBed(t, nil)
	id := "window-1"
	b.runToCheck(id)
	held, err := b.checker.Quarantined(id)
	if err != nil {
		t.Fatalf("agent not quarantined: %v", err)
	}
	wantWire := marshalOrFatal(t, held)

	b.crashChecker()
	// The spill that a real eviction would have written just before the
	// crash: same path, same canonical bytes.
	evDir := filepath.Join(b.cfgC.DataDir, evidenceDirName)
	if err := os.WriteFile(EvidencePath(evDir, id), wantWire, 0o644); err != nil {
		t.Fatal(err)
	}

	b.reopenChecker()
	rec, err := b.checker.Quarantined(id)
	if err != nil {
		t.Fatalf("agent not recovered in memory after in-window crash: %v", err)
	}
	if !bytes.Equal(marshalOrFatal(t, rec), wantWire) {
		t.Fatal("recovered agent is not byte-identical to the quarantined one")
	}
	// The stale spill still loads cleanly if an operator inspects it.
	ev, err := LoadEvidence(EvidencePath(evDir, id))
	if err != nil {
		t.Fatalf("stale evidence unreadable: %v", err)
	}
	if !bytes.Equal(marshalOrFatal(t, ev), wantWire) {
		t.Fatal("stale evidence diverged from the recovered agent")
	}
}

// TestReplayEvictionSpillsEvidence pins the other recovery edge: a
// node restarts with a smaller quarantine bound than it crashed with,
// so replay itself overflows capacity. The replay eviction must run
// the same spill path as a live eviction — the overflowing agent comes
// back as a QuarantineEvictedError pointing at freshly spilled,
// byte-identical evidence, not as silent loss.
func TestReplayEvictionSpillsEvidence(t *testing.T) {
	b := newDurableBed(t, nil)
	first := "replay-spill-1"
	second := shardMateID(first)
	b.runToCheck(first)
	held, err := b.checker.Quarantined(first)
	if err != nil {
		t.Fatalf("first agent not quarantined: %v", err)
	}
	wantWire := marshalOrFatal(t, held)
	b.runToCheck(second)
	if _, err := b.checker.Quarantined(second); err != nil {
		t.Fatalf("second agent not quarantined: %v", err)
	}

	b.crashChecker()
	ShrinkRetention(t, 0, 1, 0)
	b.reopenChecker()

	_, err = b.checker.Quarantined(first)
	var evErr *QuarantineEvictedError
	if !errors.As(err, &evErr) || !errors.Is(err, ErrQuarantineEvicted) {
		t.Fatalf("replay-evicted agent error = %v, want QuarantineEvictedError", err)
	}
	if evErr.Evidence == "" {
		t.Fatal("replay eviction spilled no evidence despite the data dir")
	}
	ev, err := LoadEvidence(evErr.Evidence)
	if err != nil {
		t.Fatalf("LoadEvidence: %v", err)
	}
	if !bytes.Equal(marshalOrFatal(t, ev), wantWire) {
		t.Fatal("replay-spilled evidence is not byte-identical")
	}
	if _, err := b.checker.Quarantined(second); err != nil {
		t.Fatalf("younger agent lost in replay: %v", err)
	}
}
