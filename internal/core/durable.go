package core

// Durable node bookkeeping. With NodeConfig.DataDir set, the node's two
// durability-critical stores — the per-agent journal and the quarantine
// evidence store — are layered over WAL backends (internal/shardstore)
// so settled receipts, recorded statuses, and retained quarantined
// agents survive a platform restart. A node that forgets
// its suspicion bookkeeping on restart would hand a malicious host a
// free reset; see DESIGN.md §7 for the durability contract.
//
// This file holds the codecs that translate the in-memory bookkeeping
// to and from the WAL's byte records, the recovery rules applied while
// replaying them, and the quarantine spill-to-evidence path.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/agent"
	"repro/internal/canon"
	"repro/internal/events"
	"repro/internal/shardstore"
)

// Data-dir layout under NodeConfig.DataDir.
const (
	// journalDirName holds the journal store's WAL.
	journalDirName = "journal"
	// quarantineDirName holds the quarantine store's WAL.
	quarantineDirName = "quarantine"
	// evidenceDirName holds spilled canonical agent bytes of
	// quarantined agents evicted under capacity pressure.
	evidenceDirName = "evidence"
)

// journalWireLabel versions the journal entry record format.
const journalWireLabel = "journal-entry"

// QuarantineEvictedError reports that an agent was quarantined at a
// node but its retained in-memory copy has been evicted under capacity
// pressure. It wraps ErrQuarantineEvicted (match with errors.Is); when
// the node runs with a data dir, Evidence names the file holding the
// agent's spilled canonical bytes, recoverable with LoadEvidence.
type QuarantineEvictedError struct {
	// Node is the host name of the node that held the agent.
	Node string
	// AgentID is the evicted agent.
	AgentID string
	// Evidence is the path of the spilled canonical agent bytes on the
	// node's filesystem; empty when the node runs without a data dir
	// (the retained copy is then unrecoverable).
	Evidence string
}

// Error renders the eviction, naming the evidence file if one exists.
func (e *QuarantineEvictedError) Error() string {
	if e.Evidence == "" {
		return fmt.Sprintf("core: node %s: agent %s: %v", e.Node, e.AgentID, ErrQuarantineEvicted)
	}
	return fmt.Sprintf("core: node %s: agent %s: %v (evidence spilled to %s)",
		e.Node, e.AgentID, ErrQuarantineEvicted, e.Evidence)
}

// Unwrap lets errors.Is(err, ErrQuarantineEvicted) match.
func (e *QuarantineEvictedError) Unwrap() error { return ErrQuarantineEvicted }

// EvidencePath returns the file a node with the given evidence
// directory spills (or would spill) the agent's canonical bytes to.
// The agent ID is percent-escaped, so arbitrary IDs map to safe,
// reversible file names.
func EvidencePath(evidenceDir, agentID string) string {
	return filepath.Join(evidenceDir, url.PathEscape(agentID)+".agent")
}

// LoadEvidence reads a spilled evidence file back into the byte-
// identical quarantined agent: the file holds the agent's canonical
// wire encoding (the record the quarantine store held, which is what
// agent.Marshal produces), so re-marshalling the returned agent
// reproduces the file's bytes exactly.
func LoadEvidence(path string) (*agent.Agent, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: reading evidence: %w", err)
	}
	ag, err := agent.Unmarshal(data)
	if err != nil {
		return nil, fmt.Errorf("core: evidence %s: %w", path, err)
	}
	return ag, nil
}

// spillEvidence writes a quarantined agent's held record — its
// canonical bytes, as is — to the evidence directory, pruning the
// oldest spilled files beyond the node's evidence bound (a flood of
// failing agents bounded out of memory by the quarantine bound must not
// fill the disk instead). It runs from the quarantine store's
// OnEvict hook — under the shard lock, before the eviction reaches the
// WAL — so a crash between the spill and the logged delete recovers
// the agent in memory rather than losing it. The file is written whole
// and durably (shardstore.WriteFile) so a torn spill never masquerades
// as evidence.
func (n *Node) spillEvidence(agentID string, record []byte) {
	if n.evidenceDir == "" {
		return
	}
	path := EvidencePath(n.evidenceDir, agentID)
	if err := shardstore.WriteFile(path, record, 0o644); err != nil {
		n.NotePersistError(fmt.Errorf("core: spilling evidence for %s: %w", agentID, err))
		return
	}
	n.recordEvidenceFile(path, int64(len(record)))
}

// evidenceFile is one spilled evidence file in the oldest-first ledger.
type evidenceFile struct {
	path string
	size int64
}

// recordEvidenceFile appends a freshly spilled file to the oldest-first
// ledger and prunes the oldest files beyond the node's evidence bound.
// An evidence-prune bus event names each pruned file *before* its
// removal.
func (n *Node) recordEvidenceFile(path string, size int64) {
	n.evMu.Lock()
	defer n.evMu.Unlock()
	// A re-spill of the same agent replaces its file in place: keep the
	// ledger's one entry (at its old age position) with the new size.
	replaced := false
	for i := range n.evFiles {
		if n.evFiles[i].path == path {
			n.evFiles[i].size = size
			replaced = true
			break
		}
	}
	if !replaced {
		n.evFiles = append(n.evFiles, evidenceFile{path: path, size: size})
	}
	for len(n.evFiles) > n.evLimit {
		f := n.evFiles[0]
		n.publish(events.Event{
			Kind:   events.KindEvidencePrune,
			Fields: map[string]string{"path": f.path, "bytes": fmt.Sprintf("%d", f.size)},
		})
		_ = os.Remove(f.path)
		n.evFiles = n.evFiles[1:]
	}
}

// loadEvidenceLedger seeds the oldest-first evidence ledger from the
// directory's existing files (by modification time), so pruning keeps
// working across restarts.
func (n *Node) loadEvidenceLedger() error {
	entries, err := os.ReadDir(n.evidenceDir)
	if err != nil {
		return err
	}
	type fileAge struct {
		path string
		mod  int64
		size int64
	}
	files := make([]fileAge, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".agent") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, fileAge{filepath.Join(n.evidenceDir, e.Name()), info.ModTime().UnixNano(), info.Size()})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod < files[j].mod })
	n.evMu.Lock()
	defer n.evMu.Unlock()
	n.evFiles = n.evFiles[:0]
	for _, f := range files {
		n.evFiles = append(n.evFiles, evidenceFile{path: f.path, size: f.size})
	}
	return nil
}

// journalCodec persists a journal entry as its status and flag count —
// the facts worth surviving a restart. The record is the tuple label,
// agent ID, phase, next host, error, flags, refused-by; a record
// without the last field (written before refused-by was kept) reads
// back with RefusedBy empty. Receipts are runtime handles (channels a
// waiter of the dead process held); decode manufactures a fresh
// receipt for hostName's journal and resolves it under the recovery
// rules:
//
//   - completed / quarantined / failed: the recorded outcome stands;
//     the receipt resolves to match (with no agent — the recovered
//     journal is a status record, not the agent itself).
//   - queued / running: the delivery died with the process (intake
//     queues are deliberately volatile), so the entry reads back as
//     failed and the receipt resolves with ErrJournalEvicted.
//   - forwarded / unknown: the status survives as recorded, but the
//     receipt can never resolve from local knowledge — it resolves
//     with ErrJournalEvicted, exactly like a journal eviction.
func journalCodec(hostName string) shardstore.Codec[*journalEntry] {
	return shardstore.Codec[*journalEntry]{
		Encode: func(e *journalEntry) ([]byte, error) {
			var flags [8]byte
			binary.BigEndian.PutUint64(flags[:], uint64(e.flags))
			return canon.Tuple(
				[]byte(journalWireLabel),
				[]byte(e.rc.AgentID()),
				[]byte(e.st.Phase),
				[]byte(e.st.NextHost),
				[]byte(e.st.Err),
				flags[:],
				[]byte(e.st.RefusedBy),
			), nil
		},
		Decode: func(b []byte) (*journalEntry, error) {
			s, err := canon.ScanList(b, journalWireLabel, len(b), 6)
			if err != nil {
				return nil, fmt.Errorf("core: decoding journal entry: %w", err)
			}
			id := s.Field(len(b))
			st := AgentStatus{
				Phase:    string(s.Field(len(b))),
				NextHost: string(s.Field(len(b))),
				Err:      string(s.Field(len(b))),
			}
			flags := s.Uint64()
			if s.Len() > 0 {
				st.RefusedBy = string(s.Field(len(b)))
			}
			if err := s.End(); err != nil {
				return nil, fmt.Errorf("core: decoding journal entry: %w", err)
			}
			e := &journalEntry{rc: newReceipt(string(id)), st: st, flags: int(flags)}
			switch st.Phase {
			case PhaseCompleted:
				e.rc.resolve(nil, false, nil)
			case PhaseQuarantined:
				e.rc.resolve(nil, true, fmt.Errorf("%w: recovered from journal after restart", ErrDetection))
			case PhaseFailed:
				e.rc.resolve(nil, false, errors.New(st.Err))
			case PhaseQueued, PhaseRunning:
				msg := fmt.Sprintf("core: node %s: delivery interrupted by restart", hostName)
				e.st = AgentStatus{Phase: PhaseFailed, Err: msg, Flags: st.Flags}
				e.rc.resolve(nil, false, fmt.Errorf("%s: %w", msg, ErrJournalEvicted))
			default: // forwarded, unknown
				e.rc.resolve(nil, false, fmt.Errorf("core: node %s: receipt recovered without a terminal outcome: %w", hostName, ErrJournalEvicted))
			}
			return e, nil
		},
	}
}

// quarantineCodec persists retained quarantined agents as the records
// the store holds — their canonical wire encoding, the same bytes
// evidence spills write — so the codec is the identity and a recovered
// agent re-marshals byte-identically. Records written as agent.Marshal
// output read back unchanged: it is the same encoding.
func quarantineCodec() shardstore.Codec[[]byte] {
	return shardstore.Codec[[]byte]{
		Encode: func(record []byte) ([]byte, error) { return record, nil },
		Decode: func(b []byte) ([]byte, error) { return b, nil },
	}
}

// openStores builds the node's journal and quarantine stores: memory-
// only by default, WAL-backed under cfg.DataDir when set (replaying any
// prior state before the node accepts work).
func (n *Node) openStores() error {
	cfg := n.cfg
	jcfg := shardstore.Config[*journalEntry]{
		Capacity:       journalLimit,
		RefreshOnWrite: true,
		// Entries still queued or running are never evicted or expired —
		// an active worker must resolve the receipt a waiter may hold.
		Evictable: func(_ string, e *journalEntry) bool {
			switch e.st.Phase {
			case PhaseQueued, PhaseRunning:
				return false
			}
			return true
		},
		// An evicted entry whose receipt never resolved (a watch on a
		// node the agent only transited, or never reached) reports
		// explicitly instead of hanging forever. resolve is a no-op on
		// already-resolved receipts.
		OnEvict: func(key string, e *journalEntry, reason shardstore.Reason) {
			e.rc.resolve(nil, false, fmt.Errorf("core: node %s: %w", cfg.Host.Name(), ErrJournalEvicted))
			n.publish(events.Event{
				Kind:   events.KindJournalEvict,
				Agent:  key,
				Fields: map[string]string{"reason": reason.String()},
			})
		},
	}
	if cfg.JournalTTL > 0 {
		jcfg.TTL = cfg.JournalTTL
	}
	qcfg := shardstore.Config[[]byte]{
		Capacity: quarantineLimit,
		// Spill the canonical agent bytes before the eviction lands, so
		// ErrQuarantineEvicted stays recoverable (no-op without a data
		// dir).
		OnEvict: func(id string, record []byte, _ shardstore.Reason) {
			n.spillEvidence(id, record)
		},
	}
	if cfg.DataDir == "" {
		n.journal = shardstore.New(jcfg)
		n.quarantine = shardstore.New(qcfg)
		return nil
	}
	if err := os.MkdirAll(filepath.Join(cfg.DataDir, evidenceDirName), 0o755); err != nil {
		return fmt.Errorf("core: node %s: %w", cfg.Host.Name(), err)
	}
	n.evidenceDir = filepath.Join(cfg.DataDir, evidenceDirName)
	if err := n.loadEvidenceLedger(); err != nil {
		return fmt.Errorf("core: node %s: scanning evidence: %w", cfg.Host.Name(), err)
	}
	jw, err := shardstore.OpenWAL(filepath.Join(cfg.DataDir, journalDirName), shardstore.WALConfig{})
	if err != nil {
		return fmt.Errorf("core: node %s: %w", cfg.Host.Name(), err)
	}
	qw, err := shardstore.OpenWAL(filepath.Join(cfg.DataDir, quarantineDirName), shardstore.WALConfig{})
	if err != nil {
		_ = jw.Close()
		return fmt.Errorf("core: node %s: %w", cfg.Host.Name(), err)
	}
	n.journal, err = shardstore.NewPersistent(jcfg, shardstore.PersistConfig[*journalEntry]{
		Backend: jw,
		Codec:   journalCodec(cfg.Host.Name()),
		OnError: n.NotePersistError,
	})
	if err != nil {
		_ = qw.Close()
		return fmt.Errorf("core: node %s: recovering journal: %w", cfg.Host.Name(), err)
	}
	n.quarantine, err = shardstore.NewPersistent(qcfg, shardstore.PersistConfig[[]byte]{
		Backend: qw,
		Codec:   quarantineCodec(),
		OnError: n.NotePersistError,
	})
	if err != nil {
		_ = n.journal.Close()
		return fmt.Errorf("core: node %s: recovering quarantine: %w", cfg.Host.Name(), err)
	}
	return nil
}
