package core_test

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/policy"
	"repro/internal/shardstore"
	"repro/internal/sigcrypto"
	"repro/internal/transport"
)

// TestNodeRestartMidFleet is the durability acceptance scenario: a
// checking node running a reputation policy is stopped mid-fleet and
// reopened against its data dir. It must come back with its reputation
// ledger, settled journal receipts, and quarantine evidence intact —
// and, crucially, a repeat offender must pick up where its suspicion
// left off instead of getting the free reset a stateless detector would
// hand it.
func TestNodeRestartMidFleet(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	reg := sigcrypto.NewRegistry()
	net := transport.NewInProc()
	dataDir := t.TempDir()

	mkHost := func(name string, trusted bool) *host.Host {
		keys, err := sigcrypto.GenerateKeyPair(name)
		if err != nil {
			t.Fatal(err)
		}
		h, err := host.New(host.Config{Name: name, Keys: keys, Registry: reg, Trusted: trusted})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	homeHost := mkHost("home", true)
	checkHost := mkHost("checker", false)

	home, err := core.NewNode(core.NodeConfig{Host: homeHost, Net: net})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = home.Close() })
	net.Register("home", home)

	// openChecker builds the checking node the way a process start
	// does: recover the durable ledger, build the reputation policy
	// over it, recover the node's journal and quarantine state.
	openChecker := func() (*core.Node, *policy.Ledger) {
		backend, err := shardstore.OpenWAL(filepath.Join(dataDir, "ledger"), shardstore.WALConfig{FlushInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		// Undecayed, so the two offenses reach the quarantine threshold
		// and a restart loses nothing to the real time it takes.
		led, err := policy.OpenLedger(policy.LedgerConfig{HalfLife: -1, Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		node, err := core.NewNode(core.NodeConfig{
			Host:       checkHost,
			Net:        net,
			Mechanisms: []core.Mechanism{blamingMechanism{}},
			Policy:     policy.NewReputation(policy.ReputationConfig{Ledger: led}),
			DataDir:    dataDir,
		})
		if err != nil {
			t.Fatal(err)
		}
		net.Register("checker", node)
		return node, led
	}
	checker, ledger := openChecker()

	journey := func(id string) core.Result {
		ag, err := agent.New(id, "owner", `
proc main() { migrate("checker", "fin") }
proc fin() { done() }`, "main")
		if err != nil {
			t.Fatal(err)
		}
		rcs := []*core.Receipt{home.Watch(id), checker.Watch(id)}
		if _, err := home.Launch(ctx, ag); err != nil {
			t.Fatal(err)
		}
		res, err := core.AwaitAny(ctx, rcs...)
		if err != nil && !errors.Is(err, core.ErrDetection) {
			t.Fatal(err)
		}
		return res
	}

	// First offense is flagged; second crosses the threshold and is
	// quarantined — the fleet state the restart must preserve.
	if res := journey("fleet-1"); res.Err != nil {
		t.Fatalf("first journey should continue flagged: %v", res.Err)
	}
	if res := journey("fleet-2"); !res.Aborted {
		t.Fatalf("second journey should be quarantined: %+v", res)
	}
	held, err := checker.Quarantined("fleet-2")
	if err != nil {
		t.Fatal(err)
	}
	wantWire, err := held.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	wantSuspicion := ledger.Suspicion("home")
	if wantSuspicion < policy.DefaultQuarantineThreshold {
		t.Fatalf("pre-restart suspicion = %v, want at/above threshold", wantSuspicion)
	}
	wantFlags := checker.Status("fleet-1").Flags

	// Stop the node mid-fleet and bring it back over the same data dir.
	if err := checker.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ledger.Close(); err != nil {
		t.Fatal(err)
	}
	checker, ledger = openChecker()
	t.Cleanup(func() { _ = checker.Close(); _ = ledger.Close() })

	// Reputation survived, at/above the threshold.
	if got := ledger.Suspicion("home"); got < policy.DefaultQuarantineThreshold || got > wantSuspicion {
		t.Fatalf("recovered suspicion = %v, want in [%v, %v]", got, policy.DefaultQuarantineThreshold, wantSuspicion)
	}
	// Settled journal receipts survived: the flagged journey's flags,
	// and the quarantined journey's terminal status with a resolved
	// receipt.
	if got := checker.Status("fleet-1").Flags; got != wantFlags {
		t.Fatalf("recovered flags = %d, want %d", got, wantFlags)
	}
	if st := checker.Status("fleet-2"); st.Phase != core.PhaseQuarantined {
		t.Fatalf("recovered status = %+v, want quarantined", st)
	}
	if res, ok := checker.Watch("fleet-2").Result(); !ok || !res.Aborted {
		t.Fatalf("recovered receipt = %+v (ok=%v), want resolved+aborted", res, ok)
	}
	// Quarantine evidence survived byte-identically.
	rec, err := checker.Quarantined("fleet-2")
	if err != nil {
		t.Fatalf("quarantine evidence lost across restart: %v", err)
	}
	gotWire, err := rec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotWire, wantWire) {
		t.Fatal("recovered quarantined agent is not byte-identical")
	}
	// No free reset: the next offense lands on the recovered suspicion
	// and quarantines immediately, where a forgetful node would merely
	// flag a "first" offense again.
	if res := journey("fleet-3"); !res.Aborted || !errors.Is(res.Err, core.ErrDetection) {
		t.Fatalf("post-restart offense got a fresh start: %+v", res)
	}
}
