package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/canon"
	"repro/internal/events"
	"repro/internal/host"
	"repro/internal/sigcrypto"
	"repro/internal/transport"
)

// durableBed is a two-node bed whose checking node runs with a data
// dir and can be "crashed" (closed) and reopened against the same
// directory, keeping host identity and keys stable across the restart.
type durableBed struct {
	t       *testing.T
	ctx     context.Context
	reg     *sigcrypto.Registry
	net     *transport.InProc
	home    *Node
	checker *Node
	hostC   *host.Host
	cfgC    NodeConfig
}

func newDurableBed(t *testing.T, mutate func(*NodeConfig)) *durableBed {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	b := &durableBed{t: t, ctx: ctx, reg: sigcrypto.NewRegistry(), net: transport.NewInProc()}

	mkHost := func(name string, trusted bool) *host.Host {
		keys, err := sigcrypto.GenerateKeyPair(name)
		if err != nil {
			t.Fatal(err)
		}
		h, err := host.New(host.Config{Name: name, Keys: keys, Registry: b.reg, Trusted: trusted})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	hostH := mkHost("home", true)
	b.hostC = mkHost("checker", false)

	home, err := NewNode(NodeConfig{Host: hostH, Net: b.net})
	if err != nil {
		t.Fatal(err)
	}
	b.home = home
	b.net.Register("home", home)
	t.Cleanup(func() { _ = home.Close() })

	b.cfgC = NodeConfig{
		Host:       b.hostC,
		Net:        b.net,
		Mechanisms: []Mechanism{failingMechanism{}},
		DataDir:    t.TempDir(),
	}
	if mutate != nil {
		mutate(&b.cfgC)
	}
	b.reopenChecker()
	return b
}

// reopenChecker builds (or rebuilds) the checking node over the same
// config and data dir — the restart.
func (b *durableBed) reopenChecker() {
	b.t.Helper()
	node, err := NewNode(b.cfgC)
	if err != nil {
		b.t.Fatalf("reopening checker: %v", err)
	}
	b.checker = node
	b.net.Register("checker", node)
	b.t.Cleanup(func() { _ = node.Close() })
}

// crashChecker closes the checking node (flushing its WALs — the test
// double for a clean shutdown; torn-write behaviour is covered at the
// WAL layer, where crashes actually tear).
func (b *durableBed) crashChecker() {
	b.t.Helper()
	if err := b.checker.Close(); err != nil {
		b.t.Fatalf("closing checker: %v", err)
	}
}

// runToCheck launches an agent that migrates to the checking node,
// where failingMechanism quarantines it.
func (b *durableBed) runToCheck(id string) Result {
	b.t.Helper()
	ag, err := agent.New(id, "owner", `
proc main() { migrate("checker", "fin") }
proc fin() { done() }`, "main")
	if err != nil {
		b.t.Fatal(err)
	}
	rcs := []*Receipt{b.home.Watch(id), b.checker.Watch(id)}
	if _, err := b.home.Launch(b.ctx, ag); err != nil {
		b.t.Fatal(err)
	}
	res, err := AwaitAny(b.ctx, rcs...)
	if err != nil && !errors.Is(err, ErrDetection) {
		b.t.Fatal(err)
	}
	return res
}

func marshalOrFatal(t *testing.T, ag *agent.Agent) []byte {
	t.Helper()
	wire, err := ag.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

func TestNodeRestartRecoversJournalAndQuarantine(t *testing.T) {
	b := newDurableBed(t, nil)
	if res := b.runToCheck("dur-1"); !res.Aborted {
		t.Fatalf("journey not aborted: %+v", res)
	}
	held, err := b.checker.Quarantined("dur-1")
	if err != nil {
		t.Fatalf("not quarantined before restart: %v", err)
	}
	wantWire := marshalOrFatal(t, held)
	wantStatus := b.checker.Status("dur-1")

	b.crashChecker()
	b.reopenChecker()

	if st := b.checker.Status("dur-1"); st != wantStatus || st.Phase != PhaseQuarantined {
		t.Fatalf("status after restart = %+v, want %+v", st, wantStatus)
	}
	rec, err := b.checker.Quarantined("dur-1")
	if err != nil {
		t.Fatalf("quarantined agent lost across restart: %v", err)
	}
	if !bytes.Equal(marshalOrFatal(t, rec), wantWire) {
		t.Fatal("recovered quarantined agent is not byte-identical to the retained copy")
	}
	// The recovered receipt is already resolved, with the quarantine
	// outcome readable through it.
	rc := b.checker.Watch("dur-1")
	select {
	case <-rc.Done():
	default:
		t.Fatal("recovered receipt for a terminal outcome is unresolved")
	}
	res, ok := rc.Result()
	if !ok || !res.Aborted || !errors.Is(res.Err, ErrDetection) {
		t.Fatalf("recovered receipt result = %+v (ok=%v), want aborted detection", res, ok)
	}
}

// TestRestartKeepsRefusedBy pins that the journal WAL keeps a forward
// failure's attribution: after a restart, node/status at the host whose
// forward failed still names the hop, not just the error.
func TestRestartKeepsRefusedBy(t *testing.T) {
	b := newDurableBed(t, func(cfg *NodeConfig) { cfg.Mechanisms = nil })
	const id = "refused-1"
	ag, err := agent.New(id, "owner", `
proc main() { migrate("checker", "next") }
proc next() { migrate("gone", "fin") }
proc fin() { done() }`, "main")
	if err != nil {
		t.Fatal(err)
	}
	rc := b.checker.Watch(id)
	if _, err := b.home.Launch(b.ctx, ag); err != nil {
		t.Fatal(err)
	}
	if _, err := AwaitAny(b.ctx, rc); err == nil {
		t.Fatal("forward to an unregistered host succeeded")
	}
	want := b.checker.Status(id)
	if want.Phase != PhaseFailed || want.RefusedBy != "gone" {
		t.Fatalf("status before restart = %+v, want failed, refused by gone", want)
	}

	b.crashChecker()
	b.reopenChecker()

	if st := b.checker.Status(id); st != want {
		t.Fatalf("status after restart = %+v, want %+v", st, want)
	}
}

// FuzzJournalEntry feeds bytes to the journal entry decoder, which
// every restart of a durable node replays. It must not panic; an
// accepted record whose phase the decoder keeps (all but queued and
// running, which it rewrites as failed) encodes back to exactly its
// input; and a record in the older five-field layout reads back with
// RefusedBy empty.
func FuzzJournalEntry(f *testing.F) {
	codec := journalCodec("n")
	for _, st := range []AgentStatus{
		{Phase: PhaseCompleted},
		{Phase: PhaseForwarded, NextHost: "m2"},
		{Phase: PhaseFailed, Err: "forward refused", RefusedBy: "m3"},
		{Phase: PhaseQuarantined},
		{Phase: PhaseRunning},
	} {
		rec, err := codec.Encode(&journalEntry{rc: newReceipt("a1"), st: st, flags: 2})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec)
	}
	// A record from before refused-by was kept: refusing it would stop
	// an upgraded node from opening its journal.
	old := canon.Tuple([]byte(journalWireLabel), []byte("a1"), []byte(PhaseFailed), nil, []byte("boom"), canon.Uint64Field(1))
	if e, err := codec.Decode(old); err != nil || e.st.Phase != PhaseFailed || e.st.Err != "boom" || e.flags != 1 {
		f.Fatalf("five-field record: %+v, %v", e, err)
	}
	f.Add(old)
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := codec.Decode(data)
		if err != nil {
			return
		}
		s, err := canon.ScanTuple(data)
		if err != nil {
			t.Fatalf("accepted record is no tuple: %v", err)
		}
		fields := s.Len()  // the label's included
		s.Field(len(data)) // label
		s.Field(len(data)) // agent ID
		phase := string(s.Field(len(data)))
		switch {
		case fields == 6:
			if e.st.RefusedBy != "" {
				t.Fatalf("five-field record read back refused by %q", e.st.RefusedBy)
			}
		case phase == PhaseQueued || phase == PhaseRunning:
			if e.st.Phase != PhaseFailed {
				t.Fatalf("interrupted %s delivery read back as %q", phase, e.st.Phase)
			}
		default:
			enc, err := codec.Encode(e)
			if err != nil {
				t.Fatalf("accepted record does not encode: %v", err)
			}
			if !bytes.Equal(enc, data) {
				t.Fatal("encode(decode(x)) != x for an accepted record")
			}
		}
	})
}

// shardMateID finds an agent ID that lands in the same journal/
// quarantine shard as base, replicating the store's inlined FNV-1a
// striping. Same shard means strict FIFO between the two keys, which
// makes eviction order deterministic for the spill test.
func shardMateID(base string) string {
	shardOf := func(key string) uint32 {
		h := uint32(2166136261)
		for i := 0; i < len(key); i++ {
			h ^= uint32(key[i])
			h *= 16777619
		}
		return h & 31 // DefaultShards(32) - 1
	}
	want := shardOf(base)
	for i := 0; ; i++ {
		id := fmt.Sprintf("mate-%d", i)
		if shardOf(id) == want {
			return id
		}
	}
}

func TestQuarantineEvictionSpillsRecoverableEvidence(t *testing.T) {
	ShrinkRetention(t, 0, 1, 0)
	b := newDurableBed(t, nil)
	first := "spill-1"
	second := shardMateID(first)

	b.runToCheck(first)
	held, err := b.checker.Quarantined(first)
	if err != nil {
		t.Fatalf("first agent not quarantined: %v", err)
	}
	wantWire := marshalOrFatal(t, held)

	// The second quarantine overflows the quarantine bound; same shard, so
	// the older first agent is evicted — and spilled — deterministically.
	b.runToCheck(second)
	if _, err := b.checker.Quarantined(second); err != nil {
		t.Fatalf("second agent not held: %v", err)
	}
	_, err = b.checker.Quarantined(first)
	var evErr *QuarantineEvictedError
	if !errors.As(err, &evErr) || !errors.Is(err, ErrQuarantineEvicted) {
		t.Fatalf("evicted agent error = %v, want QuarantineEvictedError", err)
	}
	if evErr.Evidence == "" {
		t.Fatal("eviction with a data dir carried no evidence path")
	}
	rec, err := LoadEvidence(evErr.Evidence)
	if err != nil {
		t.Fatalf("LoadEvidence: %v", err)
	}
	if !bytes.Equal(marshalOrFatal(t, rec), wantWire) {
		t.Fatal("spilled evidence does not recover the byte-identical canonical agent")
	}

	// The spill and the eviction both survive a restart.
	b.crashChecker()
	b.reopenChecker()
	_, err = b.checker.Quarantined(first)
	if !errors.As(err, &evErr) || evErr.Evidence == "" {
		t.Fatalf("after restart, evicted agent error = %v, want evidence reference", err)
	}
	if rec, err = LoadEvidence(evErr.Evidence); err != nil {
		t.Fatalf("LoadEvidence after restart: %v", err)
	}
	if !bytes.Equal(marshalOrFatal(t, rec), wantWire) {
		t.Fatal("evidence changed across restart")
	}
	if _, err := b.checker.Quarantined(second); err != nil {
		t.Fatalf("held agent lost across restart: %v", err)
	}
}

func TestEvidenceDirectoryIsBounded(t *testing.T) {
	ShrinkRetention(t, 0, 1, 2)
	b := newDurableBed(t, nil)
	// Five quarantines against limit 1 force four evictions (exact
	// eviction order is per-shard, but with limit 1 every overflow
	// evicts someone, and every eviction spills); with an evidence bound of 2
	// the directory must never exceed two files.
	for i := 0; i < 5; i++ {
		b.runToCheck(fmt.Sprintf("flood-%d", i))
	}
	files, err := os.ReadDir(filepath.Join(b.cfgC.DataDir, "evidence"))
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, f := range files {
		if strings.HasSuffix(f.Name(), ".agent") {
			count++
		}
	}
	if count > 2 {
		t.Fatalf("evidence directory holds %d files, want <= the evidence bound 2", count)
	}
	if count == 0 {
		t.Fatal("no evidence spilled at all")
	}
}

// TestEvidencePrunePublishesEachFile: with an evidence bound of one
// file, every spill after the first prunes the oldest file, and each
// prune is published as an evidence-prune event naming the file and
// its size before the file goes.
func TestEvidencePrunePublishesEachFile(t *testing.T) {
	pipe, err := events.Open(events.PipelineConfig{Node: "checker"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pipe.Close() })
	sub := pipe.Bus.Subscribe("prune-watch", 4096)
	ShrinkRetention(t, 0, 1, 1)
	b := newDurableBed(t, func(cfg *NodeConfig) { cfg.Events = pipe })
	evidenceDir := filepath.Join(b.cfgC.DataDir, "evidence")
	// Every file the directory ever held, with its size: one spill per
	// run, and the newest file survives its own spill, so a listing
	// after each run sees every file before any prune removes it.
	seen := map[string]int64{}
	listing := func() map[string]int64 {
		files, err := os.ReadDir(evidenceDir)
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		out := map[string]int64{}
		for _, f := range files {
			if !strings.HasSuffix(f.Name(), ".agent") {
				continue
			}
			info, err := f.Info()
			if err != nil {
				t.Fatal(err)
			}
			out[f.Name()] = info.Size()
			seen[f.Name()] = info.Size()
		}
		return out
	}
	for i := 0; i < 5; i++ {
		b.runToCheck(fmt.Sprintf("prune-%d", i))
		listing()
	}
	present := listing()
	if len(present) != 1 {
		t.Fatalf("evidence directory holds %d files, want the newest one", len(present))
	}

	// Pruned, and observably so: one evidence-prune event per file that
	// disappeared, naming it and its size.
	pruned := map[string]int64{}
	for _, ev := range sub.Drain() {
		if ev.Kind != events.KindEvidencePrune {
			continue
		}
		name := filepath.Base(ev.Fields["path"])
		if filepath.Dir(ev.Fields["path"]) != evidenceDir {
			t.Errorf("evidence-prune path %q is outside %s", ev.Fields["path"], evidenceDir)
		}
		if _, dup := pruned[name]; dup {
			t.Errorf("evidence-prune published twice for %s", name)
		}
		size, err := strconv.ParseInt(ev.Fields["bytes"], 10, 64)
		if err != nil {
			t.Fatalf("evidence-prune bytes %q: %v", ev.Fields["bytes"], err)
		}
		pruned[name] = size
	}
	if _, dropped := sub.Stats(); dropped != 0 {
		t.Fatalf("subscriber dropped %d events", dropped)
	}
	if len(pruned) == 0 {
		t.Fatal("evidence bound never pruned despite repeated spills")
	}
	for name, size := range seen {
		_, still := present[name]
		got, published := pruned[name]
		switch {
		case still && published:
			t.Errorf("evidence-prune published for %s, which is still on disk", name)
		case !still && !published:
			t.Errorf("%s disappeared from evidence/ without an evidence-prune event", name)
		case published && got != size:
			t.Errorf("evidence-prune for %s says %d bytes, the file held %d", name, got, size)
		}
	}
	for name := range pruned {
		if _, ok := seen[name]; !ok {
			t.Errorf("evidence-prune names %s, which evidence/ never held", name)
		}
	}
}

func TestRestartInterruptedDeliveryReadsFailed(t *testing.T) {
	b := newDurableBed(t, nil)
	// Simulate a crash mid-processing: a journal entry persisted in a
	// non-settled phase, with no worker alive to finish it.
	b.checker.setPhase("ghost-running", AgentStatus{Phase: PhaseRunning})
	b.checker.setPhase("ghost-forwarded", AgentStatus{Phase: PhaseForwarded, NextHost: "home"})
	b.crashChecker()
	b.reopenChecker()

	// Running died with the process: reads back failed, receipt
	// resolves with ErrJournalEvicted.
	st := b.checker.Status("ghost-running")
	if st.Phase != PhaseFailed {
		t.Fatalf("interrupted delivery status = %+v, want failed", st)
	}
	res, ok := b.checker.Watch("ghost-running").Result()
	if !ok || !errors.Is(res.Err, ErrJournalEvicted) {
		t.Fatalf("interrupted receipt = %+v (ok=%v), want ErrJournalEvicted", res, ok)
	}
	// Forwarded keeps its truthful status, but the local receipt can
	// never resolve from recorded state.
	st = b.checker.Status("ghost-forwarded")
	if st.Phase != PhaseForwarded || st.NextHost != "home" {
		t.Fatalf("forwarded status after restart = %+v", st)
	}
	if res, ok := b.checker.Watch("ghost-forwarded").Result(); !ok || !errors.Is(res.Err, ErrJournalEvicted) {
		t.Fatalf("forwarded receipt = %+v (ok=%v), want ErrJournalEvicted", res, ok)
	}
}

func TestJournalTTLShedsSettledEntries(t *testing.T) {
	reg := sigcrypto.NewRegistry()
	net := transport.NewInProc()
	keys, err := sigcrypto.GenerateKeyPair("solo")
	if err != nil {
		t.Fatal(err)
	}
	h, err := host.New(host.Config{Name: "solo", Keys: keys, Registry: reg, Trusted: true})
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewNode(NodeConfig{Host: h, Net: net, JournalTTL: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	net.Register("solo", node)

	ag, err := agent.New("ttl-1", "owner", `proc main() { done() }`, "main")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rc, err := node.Launch(ctx, ag)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if st := node.Status("ttl-1"); st.Phase != PhaseCompleted {
		t.Fatalf("status = %+v, want completed", st)
	}
	// The sweeper sheds the settled entry by age; poll until it does.
	deadline := time.Now().Add(5 * time.Second)
	for node.Status("ttl-1").Phase != PhaseUnknown {
		if time.Now().After(deadline) {
			t.Fatal("settled journal entry not shed by JournalTTL")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestNodeMetricsReportPerStoreWALs pins the node/metrics WAL surface:
// a durable node reports one entry per store, each with its own
// appends.
func TestNodeMetricsReportPerStoreWALs(t *testing.T) {
	b := newDurableBed(t, nil)
	if res := b.runToCheck("stats-1"); !res.Aborted {
		t.Fatalf("journey not aborted: %+v", res)
	}
	mr := b.checker.metricsReply()
	if len(mr.WALs) != 2 {
		t.Fatalf("metrics report %d WAL entries, want 2 (journal + quarantine): %+v", len(mr.WALs), mr.WALs)
	}
	for _, w := range mr.WALs {
		if w.Stats.Appends == 0 {
			t.Fatalf("store %s reports zero WAL appends", w.Store)
		}
	}
}

// TestWatchClosedDurableNodeWritesNothing: a Watch on a closed node
// must not append to its closed WAL (which would mark the node degraded
// and publish a persist error); a fresh ID gets a receipt already
// resolved with ErrNodeClosed, a known one its existing receipt.
func TestWatchClosedDurableNodeWritesNothing(t *testing.T) {
	b := newDurableBed(t, nil)
	if res := b.runToCheck("known-1"); !res.Aborted {
		t.Fatalf("journey not aborted: %+v", res)
	}
	b.crashChecker()

	select {
	case <-b.checker.Watch("known-1").Done():
	default:
		t.Fatal("watch of a settled agent on a closed node returned an unresolved receipt")
	}
	rc := b.checker.Watch("fresh-1")
	select {
	case <-rc.Done():
	default:
		t.Fatal("watch of a fresh ID on a closed node returned an unresolved receipt")
	}
	if _, err := rc.Wait(b.ctx); !errors.Is(err, ErrNodeClosed) {
		t.Fatalf("watch on a closed node resolved with %v, want ErrNodeClosed", err)
	}
	if h := b.checker.Health(); h.PersistFailures != 0 || h.Degraded {
		t.Fatalf("watch on a closed node wrote to its WAL: %+v", h)
	}
}
