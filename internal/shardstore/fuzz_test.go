package shardstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// walRecord is one replayed record.
type walRecord struct {
	op    Op
	key   string
	value []byte
}

// openReplay opens the WAL in dir and replays it.
func openReplay(dir string) ([]walRecord, error) {
	w, err := OpenWAL(dir, WALConfig{FlushInterval: -1})
	if err != nil {
		return nil, err
	}
	var recs []walRecord
	err = w.Replay(func(op Op, key string, value []byte) error {
		recs = append(recs, walRecord{op, key, value})
		return nil
	})
	return recs, errors.Join(err, w.Close())
}

// FuzzWALReplay writes the input as a node's only log segment, as a
// crash or a damaged disk may leave it, and restarts on it: OpenWAL
// then Replay. It must not panic and must either succeed or report
// ErrCorrupt; it replays no more records than the input has 8-byte
// frame headers; the replayed records, framed again, are a prefix of
// the input; and a second open replays the same records.
func FuzzWALReplay(f *testing.F) {
	one := frame(nil, OpPut, "agent-1", []byte("state"))
	two := frame(append([]byte(nil), one...), OpDelete, "agent-1", nil)
	f.Add([]byte{})
	f.Add(one)
	f.Add(two)
	f.Add(two[:len(two)-3])                                                // torn tail
	f.Add(append(append([]byte{0, 0, 0, 3, 1, 2, 3, 4}, 9, 9, 9), one...)) // damage before a valid record
	f.Add([]byte("garbage that is no frame at all"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := openReplay(dir)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("replay failed with %v, want success or ErrCorrupt", err)
			}
			return
		}
		if len(recs) > len(data)/8 {
			t.Fatalf("%d records from %d bytes", len(recs), len(data))
		}
		var framed []byte
		for _, r := range recs {
			framed = frame(framed, r.op, r.key, r.value)
		}
		if !bytes.HasPrefix(data, framed) {
			t.Fatalf("replayed records frame to %x, not a prefix of %x", framed, data)
		}
		again, err := openReplay(dir)
		if err != nil {
			t.Fatalf("second open: %v", err)
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("second open replays %v, first %v", again, recs)
		}
	})
}
