package events

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/shardstore"
)

// DefaultFlightCapacity is the flight recorder ring size.
const DefaultFlightCapacity = 4096

// flightCapacity is DefaultFlightCapacity; tests lower it.
var flightCapacity = DefaultFlightCapacity

// RecorderConfig parameterizes a flight recorder.
type RecorderConfig struct {
	// OnError observes the recorder's first (sticky) persistence
	// failure; may be nil. The recorder keeps running in memory — the
	// degraded flag is what health reporting surfaces.
	OnError func(error)
}

// Recorder is the flight recorder: a ring of the most recent bus
// events persisted through the shardstore WAL backend, so the moments
// before a crash are replayable afterwards (`agentctl flight`).
//
// The recorder is opened *before* the bus so its recovered high-water
// sequence can seed BusConfig.FirstSeq — recorded sequence numbers
// then stay monotone across restarts and replayed history sorts
// unambiguously against live events.
type Recorder struct {
	store *shardstore.Store[Event]
	cap   int

	mu      sync.Mutex
	lo, hi  uint64 // live window [lo, hi]; 0,0 when empty
	lastSeq uint64 // highest seq ever recorded or recovered

	sub      *Subscription
	done     chan struct{}
	degraded atomic.Bool
	err      error
}

// flightKey renders a sequence number as a fixed-width sortable key.
func flightKey(seq uint64) string { return fmt.Sprintf("%020d", seq) }

// OpenRecorder opens (or recovers) a flight recorder whose WAL lives
// in dir. Call Attach to start consuming from a bus.
func OpenRecorder(dir string, cfg RecorderConfig) (*Recorder, error) {
	r := &Recorder{cap: flightCapacity, done: make(chan struct{})}
	wal, err := shardstore.OpenWAL(dir, shardstore.WALConfig{})
	if err != nil {
		return nil, fmt.Errorf("events: open flight WAL: %w", err)
	}
	store, err := shardstore.NewPersistent(
		// The recorder bounds its window itself with explicit deletes;
		// the store capacity is a backstop well above it so FIFO
		// eviction never races the ring arithmetic.
		shardstore.Config[Event]{Capacity: r.cap * 2},
		shardstore.PersistConfig[Event]{
			Backend: wal,
			Codec: shardstore.Codec[Event]{
				Encode: func(e Event) ([]byte, error) { return EncodeEvent(e), nil },
				Decode: DecodeEvent,
			},
			OnError: func(err error) {
				r.degraded.Store(true)
				r.mu.Lock()
				if r.err == nil {
					r.err = err
				}
				r.mu.Unlock()
				if cfg.OnError != nil {
					cfg.OnError(err)
				}
			},
		},
	)
	if err != nil {
		return nil, fmt.Errorf("events: open flight store: %w", err)
	}
	r.store = store
	// Recover the window bounds from the replayed state.
	store.Range(func(_ string, e Event) bool {
		if r.lo == 0 || e.Seq < r.lo {
			r.lo = e.Seq
		}
		if e.Seq > r.hi {
			r.hi = e.Seq
		}
		return true
	})
	r.lastSeq = r.hi
	return r, nil
}

// NextSeq returns the sequence number after the highest recorded
// event — the value to seed BusConfig.FirstSeq with.
func (r *Recorder) NextSeq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastSeq + 1
}

// Attach subscribes the recorder to a bus and starts the persist
// goroutine. Attach at most once.
func (r *Recorder) Attach(bus *Bus) {
	r.sub = bus.Subscribe("flight", r.cap)
	go r.run()
}

func (r *Recorder) run() {
	defer close(r.done)
	for {
		r.record(r.sub.Drain())
		if r.sub.Closed() {
			r.record(r.sub.Drain())
			return
		}
		<-r.sub.Ready()
	}
}

// record persists a drained batch and trims the window.
func (r *Recorder) record(evs []Event) {
	for _, ev := range evs {
		r.store.Put(flightKey(ev.Seq), ev)
		r.mu.Lock()
		if r.lo == 0 {
			r.lo = ev.Seq
		}
		if ev.Seq > r.hi {
			r.hi = ev.Seq
		}
		if ev.Seq > r.lastSeq {
			r.lastSeq = ev.Seq
		}
		var drop []uint64
		for r.hi-r.lo >= uint64(r.cap) {
			drop = append(drop, r.lo)
			r.lo++
		}
		r.mu.Unlock()
		for _, seq := range drop {
			r.store.Delete(flightKey(seq))
		}
	}
}

// Events returns the recorded window sorted by sequence number —
// recovered pre-crash history plus whatever has been consumed live.
func (r *Recorder) Events() []Event {
	var out []Event
	r.store.Range(func(_ string, e Event) bool {
		out = append(out, e)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Degraded reports whether the recorder's WAL has hit a sticky
// persistence failure (it keeps recording in memory).
func (r *Recorder) Degraded() bool { return r.degraded.Load() }

// Err returns the sticky persistence failure, if any.
func (r *Recorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Close detaches from the bus (if attached), flushes, and closes the
// WAL. It returns the sticky persistence failure, if any.
func (r *Recorder) Close() error {
	if r.sub != nil {
		r.sub.Close()
		<-r.done
	}
	return r.store.Close()
}
