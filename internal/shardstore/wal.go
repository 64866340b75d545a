package shardstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/canon"
)

// WAL defaults.
const (
	// DefaultSyncEvery is the fsync batch size when WALConfig.SyncEvery
	// is zero: the file is synced once per this many appended records
	// (and by the background flusher in between), so a burst of writes
	// pays one fsync, not one per record.
	DefaultSyncEvery = 64
	// DefaultFlushInterval is the background flush cadence when
	// WALConfig.FlushInterval is zero: a lone record never sits in the
	// write buffer longer than this before it is flushed and synced.
	DefaultFlushInterval = 100 * time.Millisecond
	// maxRecordBytes bounds one framed record; a corrupt length prefix
	// reads as corruption, not as a request to allocate gigabytes.
	maxRecordBytes = 1 << 27
)

// ErrWALClosed is returned by Append/Sync/Compact on a closed WAL.
var ErrWALClosed = errors.New("shardstore: wal closed")

// ErrCorrupt wraps mid-log corruption found during replay: a record
// whose frame or checksum is invalid and that is *not* the torn tail of
// the final segment. A torn final record is expected after a crash and
// is silently truncated; anything else means the log was damaged at
// rest and replay refuses to guess.
var ErrCorrupt = errors.New("shardstore: wal corrupt")

// WALConfig parameterizes a WAL.
type WALConfig struct {
	// SyncEvery is the number of appended records per fsync batch; 0
	// means DefaultSyncEvery, 1 syncs on every append.
	SyncEvery int
	// FlushInterval is the background flush-and-sync cadence for
	// partially filled batches; 0 means DefaultFlushInterval, negative
	// disables the background flusher (tests that want deterministic
	// sync points call Sync explicitly).
	FlushInterval time.Duration
}

// WAL is the file-backed Backend: append-only CRC-framed segment files
// plus compacted snapshots, all under one directory.
//
// Layout (seq is a monotonically increasing segment number):
//
//	wal-<seq>.log    log segments, records in append order
//	snap-<seq>.snap  snapshot of the full state as of segment seq's
//	                 creation; makes segments numbered below seq dead
//
// Record frame, identical in segments and snapshots:
//
//	uint32 big-endian payload length
//	uint32 big-endian CRC-32 (IEEE) of the payload
//	payload = canon.Tuple(op, key, value)
//
// On open, the final segment's torn tail (a partially written frame
// from a crash mid-append) is truncated away; corruption anywhere else
// fails Replay with ErrCorrupt. Snapshots are written to a temp file
// and renamed into place, so a crash mid-compaction leaves the previous
// snapshot and all segments intact.
type WAL struct {
	dir string
	cfg WALConfig

	mu      sync.Mutex // guards the active segment and counters
	f       *os.File
	w       *bufio.Writer
	seq     int // active segment number
	snapSeq int // latest durable snapshot's segment number; 0 = none
	pending int // records appended since the last sync
	closed  bool
	// firstErr is the first write/sync failure, sticky: after a failed
	// fsync the kernel may have dropped the dirty pages, so retrying
	// would falsely report durability. Every later Append/Sync returns
	// it (surfacing background-flusher failures on the caller's path),
	// and Close folds it in.
	firstErr error

	compactMu sync.Mutex // serializes Compact calls
	// syncMu serializes fsync, segment rotation, and final close, and
	// is never held while w.mu-protected appends need to proceed: the
	// flush-to-OS step runs under w.mu (fast), the fsync itself only
	// under syncMu, so appenders holding a shard lock never wait on
	// disk.
	syncMu sync.Mutex

	flushStop chan struct{}
	flushDone chan struct{}
	// kick asks the flusher for an early off-goroutine sync when a
	// batch fills; Append never fsyncs inline while a flusher runs, so
	// callers holding a shard lock pay a buffered write, not disk I/O.
	kick chan struct{}

	// Lifetime counters (see Stats). Atomics so Stats never contends
	// with the append or sync paths.
	statAppends    atomic.Int64
	statSyncs      atomic.Int64
	statSyncedRecs atomic.Int64
}

// WALStats are lifetime counters for one WAL: how many records were
// appended, how many fsyncs the active segment paid, and how many
// records those fsyncs covered. SyncedRecords/Syncs is the mean group
// size per fsync — the number that makes fsync amortization observable
// instead of inferred.
type WALStats struct {
	Appends       int64 `json:"appends"`
	Syncs         int64 `json:"syncs"`
	SyncedRecords int64 `json:"synced_records"`
}

// MeanBatch is the mean number of records made durable per fsync.
func (s WALStats) MeanBatch() float64 {
	if s.Syncs == 0 {
		return 0
	}
	return float64(s.SyncedRecords) / float64(s.Syncs)
}

// Stats returns the WAL's lifetime counters. Safe to call concurrently
// with appends and after Close.
func (w *WAL) Stats() WALStats {
	return WALStats{
		Appends:       w.statAppends.Load(),
		Syncs:         w.statSyncs.Load(),
		SyncedRecords: w.statSyncedRecs.Load(),
	}
}

var _ Backend = (*WAL)(nil)

// OpenWAL opens (or creates) a WAL directory, truncates any torn final
// record left by a crash, and readies the latest segment for appending.
// Call Replay before the first Append.
func OpenWAL(dir string, cfg WALConfig) (*WAL, error) {
	if cfg.SyncEvery <= 0 {
		cfg.SyncEvery = DefaultSyncEvery
	}
	if cfg.FlushInterval == 0 {
		cfg.FlushInterval = DefaultFlushInterval
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shardstore: opening wal: %w", err)
	}
	segs, snaps, tmps, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	// A temp snapshot is a compaction that never completed; the log it
	// meant to replace is still whole, so the temp file is just litter.
	for _, t := range tmps {
		_ = os.Remove(filepath.Join(dir, t))
	}
	w := &WAL{dir: dir, cfg: cfg}
	if len(snaps) > 0 {
		w.snapSeq = snaps[len(snaps)-1]
	}
	w.seq = 1
	if len(segs) > 0 {
		w.seq = segs[len(segs)-1]
		// Only the final segment can legitimately end mid-frame.
		if err := truncateTornTail(filepath.Join(dir, segName(w.seq))); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(filepath.Join(dir, segName(w.seq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("shardstore: opening wal segment: %w", err)
	}
	w.f = f
	w.w = bufio.NewWriter(f)
	if cfg.FlushInterval > 0 {
		w.flushStop = make(chan struct{})
		w.flushDone = make(chan struct{})
		w.kick = make(chan struct{}, 1)
		go w.flusher()
	}
	return w, nil
}

// segName and snapName build the on-disk file names for a segment
// number.
func segName(seq int) string  { return fmt.Sprintf("wal-%08d.log", seq) }
func snapName(seq int) string { return fmt.Sprintf("snap-%08d.snap", seq) }

// scanDir lists the directory's segment and snapshot sequence numbers
// (ascending) plus any leftover temp files.
func scanDir(dir string) (segs, snaps []int, tmps []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("shardstore: scanning wal dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			tmps = append(tmps, name)
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			if n, perr := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")); perr == nil {
				segs = append(segs, n)
			}
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			if n, perr := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap")); perr == nil {
				snaps = append(snaps, n)
			}
		}
	}
	sort.Ints(segs)
	sort.Ints(snaps)
	return segs, snaps, tmps, nil
}

// frame appends the framed record to dst.
func frame(dst []byte, op Op, key string, value []byte) []byte {
	payload := canon.Tuple([]byte{byte(op)}, []byte(key), value)
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// parseRecord splits a frame's payload, the tuple frame writes, into
// its op, key and value, which alias payload; ok is false when payload
// is not such a tuple.
func parseRecord(payload []byte) (op Op, key, value []byte, ok bool) {
	s, err := canon.ScanTuple(payload)
	opf, key, value := s.Field(1), s.Field(len(payload)), s.Field(len(payload))
	if err != nil || s.End() != nil || len(opf) != 1 {
		return 0, nil, nil, false
	}
	return Op(opf[0]), key, value, true
}

// readFrames streams the valid frames of one file into apply. It
// returns the byte offset just past the last valid frame and whether
// the file ended cleanly (false: a torn or corrupt frame follows the
// offset).
func readFrames(path string, apply func(op Op, key string, value []byte) error) (validEnd int64, clean bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, true, nil
		}
		return 0, false, fmt.Errorf("shardstore: reading wal file: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var off int64
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return off, true, nil
			}
			return off, false, nil // torn header
		}
		n := binary.BigEndian.Uint32(hdr[:4])
		sum := binary.BigEndian.Uint32(hdr[4:])
		if n > maxRecordBytes {
			return off, false, nil // nonsense length: corrupt frame
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return off, false, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return off, false, nil
		}
		op, key, val, ok := parseRecord(payload)
		if !ok {
			return off, false, nil
		}
		if apply != nil {
			// Copy key and value out of the read buffer: apply's
			// consumer outlives this frame.
			if err := apply(op, string(key), append([]byte(nil), val...)); err != nil {
				return off, false, err
			}
		}
		off += int64(len(hdr)) + int64(n)
	}
}

// truncateTornTail chops a partially written final frame off the
// segment, so the next append starts at a clean frame boundary instead
// of extending garbage. A bad frame is only a torn tail if nothing
// *beyond its own extent* still parses as a valid frame: appends are
// sequential, so a crash can tear the end of the log but can never
// leave acknowledged records beyond the tear. Damage followed by
// further valid frames is at-rest corruption and refuses to open with
// ErrCorrupt rather than silently discarding durable records.
//
// The scan deliberately excludes the failed record's own payload
// region (its extent is known whenever its length header is sane):
// record values carry caller data — for the quarantine store,
// agent-author-controlled bytes — and an embedded fake frame inside a
// torn record's payload must not be able to turn a routine crash
// artifact into a permanent refusal to open.
func truncateTornTail(path string) error {
	validEnd, clean, err := readFrames(path, nil)
	if err != nil {
		return err
	}
	if clean {
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("shardstore: scanning wal tail: %w", err)
	}
	// Where may acknowledged records still live? Strictly after the
	// failed record's declared extent when its header is intact; only
	// when the length itself is garbage is the extent unknowable and
	// the scan starts right past the failure point.
	scanFrom := int64(len(data)) // nothing to scan by default
	switch {
	case validEnd+8 > int64(len(data)):
		// Torn header: nothing of the record (or anything after it)
		// ever reached the file.
	case int64(binary.BigEndian.Uint32(data[validEnd:])) <= maxRecordBytes:
		// Sane length: the record's extent is known. If the file ends
		// inside it, the tear is mid-payload and nothing follows; if
		// the payload is fully present (checksum or framing failed),
		// acknowledged records could only live after it.
		scanFrom = validEnd + 8 + int64(binary.BigEndian.Uint32(data[validEnd:]))
	default:
		// Nonsense length: the header itself is damaged, the extent is
		// unknowable — scan everything after the failure point.
		scanFrom = validEnd + 1
	}
	if anyValidFrameIn(data, scanFrom) {
		return fmt.Errorf("%w: %s: damaged record at offset %d precedes valid records", ErrCorrupt, filepath.Base(path), validEnd)
	}
	if err := os.Truncate(path, validEnd); err != nil {
		return fmt.Errorf("shardstore: truncating torn wal tail: %w", err)
	}
	return nil
}

// anyValidFrameIn reports whether any offset at or after from yields a
// complete, checksum-valid, well-formed frame. A CRC-32 plus
// canon-tuple match at a random offset is vanishingly unlikely, so a
// hit means real records survive beyond the damage.
func anyValidFrameIn(data []byte, from int64) bool {
	if from < 0 {
		from = 0
	}
	for off := from; off+8 < int64(len(data)); off++ {
		n := int64(binary.BigEndian.Uint32(data[off:]))
		if n == 0 || n > maxRecordBytes || off+8+n > int64(len(data)) {
			continue
		}
		sum := binary.BigEndian.Uint32(data[off+4:])
		payload := data[off+8 : off+8+n]
		if crc32.ChecksumIEEE(payload) != sum {
			continue
		}
		if _, _, _, ok := parseRecord(payload); ok {
			return true
		}
	}
	return false
}

// Replay implements Backend: the latest snapshot's records, then every
// log record appended after that snapshot was taken. A torn final
// record has already been truncated at open; corruption anywhere else
// returns ErrCorrupt.
func (w *WAL) Replay(apply func(op Op, key string, value []byte) error) error {
	w.mu.Lock()
	snapSeq, lastSeg := w.snapSeq, w.seq
	w.mu.Unlock()
	if snapSeq > 0 {
		_, clean, err := readFrames(filepath.Join(w.dir, snapName(snapSeq)), apply)
		if err != nil {
			return err
		}
		if !clean {
			// Snapshots are written whole and renamed into place; a bad
			// frame inside one is damage, not a crash artifact.
			return fmt.Errorf("%w: snapshot %s", ErrCorrupt, snapName(snapSeq))
		}
	}
	segs, _, _, err := scanDir(w.dir)
	if err != nil {
		return err
	}
	for _, seq := range segs {
		if seq < snapSeq {
			continue // dead: fully covered by the snapshot
		}
		_, clean, err := readFrames(filepath.Join(w.dir, segName(seq)), apply)
		if err != nil {
			return err
		}
		if !clean && seq != lastSeg {
			return fmt.Errorf("%w: segment %s", ErrCorrupt, segName(seq))
		}
	}
	return nil
}

// Append implements Backend: frame the record into the active
// segment's write buffer. Syncing is batched: with the background
// flusher running, a full batch (SyncEvery records) kicks it for an
// off-goroutine fsync so Append itself never does disk I/O beyond the
// buffered write — callers (store mutations under a shard lock) stay
// fast. With the flusher disabled, full batches sync inline. A prior
// sync failure is sticky and returned to every later Append.
func (w *WAL) Append(op Op, key string, value []byte) error {
	buf := frame(nil, op, key, value)
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrWALClosed
	}
	if err := w.firstErr; err != nil {
		w.mu.Unlock()
		return err
	}
	if _, err := w.w.Write(buf); err != nil {
		err = fmt.Errorf("shardstore: wal append: %w", err)
		w.firstErr = err
		w.mu.Unlock()
		return err
	}
	w.pending++
	needSync := w.pending >= w.cfg.SyncEvery
	w.mu.Unlock()
	w.statAppends.Add(1)
	if !needSync {
		return nil
	}
	if w.kick != nil {
		select {
		case w.kick <- struct{}{}:
		default: // a kick is already queued
		}
		return nil
	}
	return w.syncNow()
}

// syncNow flushes the write buffer (under w.mu, a fast in-memory move
// to the OS) and fsyncs the segment (under syncMu only, so concurrent
// appends proceed). The first failure is sticky and returned without
// retrying: a failed fsync means the kernel may have dropped the
// dirty pages, and a succeeding retry would lie about durability.
func (w *WAL) syncNow() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	return w.syncHoldingSyncMu()
}

func (w *WAL) syncHoldingSyncMu() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrWALClosed
	}
	if err := w.firstErr; err != nil {
		w.mu.Unlock()
		return err
	}
	if err := w.w.Flush(); err != nil {
		err = fmt.Errorf("shardstore: wal flush: %w", err)
		w.firstErr = err
		w.mu.Unlock()
		return err
	}
	f := w.f
	flushed := w.pending
	w.mu.Unlock()
	// The fsync runs without w.mu; rotation and close are excluded by
	// syncMu, so f cannot be swapped or closed underneath it.
	if err := f.Sync(); err != nil {
		err = fmt.Errorf("shardstore: wal sync: %w", err)
		w.mu.Lock()
		if w.firstErr == nil {
			w.firstErr = err
		}
		w.mu.Unlock()
		return err
	}
	w.statSyncs.Add(1)
	w.statSyncedRecs.Add(int64(flushed))
	w.mu.Lock()
	if w.pending -= flushed; w.pending < 0 {
		w.pending = 0
	}
	w.mu.Unlock()
	return nil
}

// flusher syncs filled batches when kicked and partial batches on a
// timer, so a lone record is durable within FlushInterval even if no
// further appends arrive. Failures are recorded sticky by syncNow and
// surface on the next Append/Sync/Close.
func (w *WAL) flusher() {
	defer close(w.flushDone)
	t := time.NewTicker(w.cfg.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-w.flushStop:
			return
		case <-w.kick:
		case <-t.C:
		}
		w.mu.Lock()
		idle := w.closed || w.pending == 0
		w.mu.Unlock()
		if !idle {
			_ = w.syncNow() // recorded in firstErr
		}
	}
}

// Compact implements Backend. It rotates to a fresh segment, streams
// the store's full live state (via write) into a temp snapshot file,
// fsyncs and renames it into place, and only then deletes the segments
// and snapshots the new snapshot made dead — a crash at any point
// leaves a replayable log.
func (w *WAL) Compact(write func(emit func(key string, value []byte) error) error) error {
	w.compactMu.Lock()
	defer w.compactMu.Unlock()

	// Rotate: all records from here on land in the new segment, which
	// the snapshot does not cover and replay therefore keeps. syncMu
	// excludes concurrent fsyncs while the file handle is swapped.
	w.syncMu.Lock()
	if err := w.syncHoldingSyncMu(); err != nil {
		w.syncMu.Unlock()
		return err
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		w.syncMu.Unlock()
		return ErrWALClosed
	}
	// Flush and sync stragglers appended since the fsync above, then
	// retire the old segment. This fsync does hold w.mu, but rotation
	// happens once per DefaultCompactEvery records, not per batch.
	if err := w.w.Flush(); err != nil {
		w.mu.Unlock()
		w.syncMu.Unlock()
		return fmt.Errorf("shardstore: wal rotate: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		w.mu.Unlock()
		w.syncMu.Unlock()
		return fmt.Errorf("shardstore: wal rotate: %w", err)
	}
	w.statSyncs.Add(1)
	w.statSyncedRecs.Add(int64(w.pending))
	if err := w.f.Close(); err != nil {
		w.mu.Unlock()
		w.syncMu.Unlock()
		return fmt.Errorf("shardstore: wal rotate: %w", err)
	}
	w.seq++
	newSeq := w.seq
	f, err := os.OpenFile(filepath.Join(w.dir, segName(newSeq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		w.mu.Unlock()
		w.syncMu.Unlock()
		return fmt.Errorf("shardstore: wal rotate: %w", err)
	}
	w.f = f
	w.w = bufio.NewWriter(f)
	w.pending = 0
	w.mu.Unlock()
	w.syncMu.Unlock()

	// Stream the snapshot without holding the WAL mutex: appends to the
	// new segment proceed concurrently.
	tmpPath := filepath.Join(w.dir, snapName(newSeq)+".tmp")
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return fmt.Errorf("shardstore: wal snapshot: %w", err)
	}
	bw := bufio.NewWriter(tmp)
	werr := write(func(key string, value []byte) error {
		_, err := bw.Write(frame(nil, OpPut, key, value))
		return err
	})
	if werr == nil {
		werr = bw.Flush()
	}
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		_ = os.Remove(tmpPath)
		return fmt.Errorf("shardstore: wal snapshot: %w", werr)
	}
	if err := os.Rename(tmpPath, filepath.Join(w.dir, snapName(newSeq))); err != nil {
		_ = os.Remove(tmpPath)
		return fmt.Errorf("shardstore: wal snapshot: %w", err)
	}
	syncDir(w.dir)

	// The rename is durable: segments below newSeq and older snapshots
	// are now dead weight.
	segs, snaps, _, err := scanDir(w.dir)
	if err != nil {
		return err
	}
	for _, seq := range segs {
		if seq < newSeq {
			_ = os.Remove(filepath.Join(w.dir, segName(seq)))
		}
	}
	for _, seq := range snaps {
		if seq < newSeq {
			_ = os.Remove(filepath.Join(w.dir, snapName(seq)))
		}
	}
	w.mu.Lock()
	w.snapSeq = newSeq
	w.mu.Unlock()
	return nil
}

// syncDir fsyncs the directory so a just-renamed file survives a
// crash (best effort: some filesystems refuse directory syncs).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// WriteFile writes data to path in one durable, atomic step: a reader
// sees the old file or the new one, never part of one, and once it
// returns the new file survives a crash. The bytes go to a temporary
// file in path's directory, named ".<base>.*.tmp" so that no scan for
// a suffix (".agent", ".pub") takes it for the real file, which is
// synced, closed, given perm and renamed over path; then the directory
// is synced. On failure the temporary file is removed.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmp.Name(), perm)
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	syncDir(dir)
	return nil
}

// Close implements Backend: stop the flusher, sync what is buffered,
// and close the active segment. Any sticky failure from the WAL's
// lifetime (including background-flusher sync errors) is returned.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	if w.flushStop != nil {
		close(w.flushStop)
		<-w.flushDone
	}
	// syncMu excludes an in-flight Sync/Compact fsync from racing the
	// final close of the file handle.
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.firstErr != nil {
		_ = w.f.Close()
		return w.firstErr
	}
	if err := w.w.Flush(); err != nil {
		_ = w.f.Close()
		return fmt.Errorf("shardstore: wal close: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		_ = w.f.Close()
		return fmt.Errorf("shardstore: wal close: %w", err)
	}
	w.statSyncs.Add(1)
	w.statSyncedRecs.Add(int64(w.pending))
	return w.f.Close()
}
