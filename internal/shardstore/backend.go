package shardstore

// Op tags one record in a persistence backend's log: an insert/update
// or a removal. The two ops are all a Store needs to mirror its state
// into an append-only log — replaying the ops in order rebuilds the
// exact live key set.
type Op byte

const (
	// OpPut records that a key was inserted or overwritten with the
	// encoded value carried by the record.
	OpPut Op = 1
	// OpDelete records that a key was removed (Delete, capacity
	// eviction, or TTL expiry); the record carries no value.
	OpDelete Op = 2
)

// String names the op.
func (o Op) String() string {
	switch o {
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	default:
		return "op(?)"
	}
}

// Backend is the pluggable persistence layer under a Store: an
// append-only log of (op, key, value) records plus periodic compacted
// snapshots. The in-memory sharded Store stays the cache and the only
// read path; the backend exists so the cache can be rebuilt after a
// process restart.
//
// Contract:
//
//   - Replay must be called once, before the first Append, and streams
//     every surviving record in append order: the latest snapshot's
//     records first (all OpPut), then every log record written after
//     that snapshot was taken. Applying the records in order to an
//     empty map yields the persisted state.
//   - Append durably records one mutation. Implementations may batch
//     the actual sync (see WALConfig).
//   - Compact asks the backend to replace its accumulated log with a
//     fresh snapshot: it invokes write, which emits the store's full
//     live contents, and on success drops log records made redundant by
//     the snapshot. Append may be called concurrently with Compact;
//     records appended while the snapshot is being written must survive
//     replay (re-applying such a record after the snapshot is harmless
//     because the snapshot already reflects it or an even newer write).
//   - Close flushes and releases the backend. The Store that owns the
//     backend calls Close from its own Close.
//
// Implementations must be safe for concurrent Append/Compact.
type Backend interface {
	Replay(apply func(op Op, key string, value []byte) error) error
	Append(op Op, key string, value []byte) error
	Compact(write func(emit func(key string, value []byte) error) error) error
	Close() error
}

// Codec converts store values to and from the byte strings a Backend
// persists. Encode runs under the value's shard lock (so the encoded
// bytes are consistent with the in-memory state even for pointer values
// mutated in place); it must not call back into the store.
type Codec[V any] struct {
	Encode func(V) ([]byte, error)
	Decode func([]byte) (V, error)
}

// BytesCodec is the identity codec for stores whose values are already
// encoded byte strings (e.g. retained reference packages).
func BytesCodec() Codec[[]byte] {
	return Codec[[]byte]{
		Encode: func(b []byte) ([]byte, error) { return b, nil },
		Decode: func(b []byte) ([]byte, error) { return b, nil },
	}
}
