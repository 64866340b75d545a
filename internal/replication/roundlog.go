package replication

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/agent"
	"repro/internal/canon"
	"repro/internal/shardstore"
)

// Round-state checkpointing. A coordinator that crashes mid-itinerary
// used to restart the whole journey: every already-decided stage ran
// again, replicas re-executed sessions whose majority was already on
// record, and a transient no-majority at stage k cost the k decided
// stages before it. The RoundLog closes that gap by checkpointing the
// adopted agent after every decided stage on the same WAL machinery the
// node's journal and ledger use — one record per in-flight agent,
// deleted when the journey reaches a terminal outcome.
//
// What is deliberately NOT persisted: per-stage vote tallies. The
// StageReport is evidence for the run that produced it; a resumed run
// re-earns its reports for the stages it actually executes. The ledger
// and event stream already carry the decided history.

const (
	// roundWireLabel versions the checkpoint record framing.
	roundWireLabel = "replication-round"
	// maxRoundWireBytes bounds a checkpoint record: one stage index plus
	// one marshalled agent, so the vote bound (sized for the same state)
	// plus slack covers it.
	maxRoundWireBytes = MaxVoteWireBytes + 4096
)

// ErrRoundLog is wrapped by every rejection of persisted round state.
var ErrRoundLog = errors.New("replication: malformed round checkpoint")

// RoundLog is a coordinator's durable round state: for each in-flight
// agent, the last decided stage and the agent adopted after it. Open it
// over any shardstore.Backend (typically a dedicated WAL) and set it as
// Coordinator.Rounds; one RoundLog may serve many runs concurrently.
type RoundLog struct {
	mu      sync.Mutex
	backend shardstore.Backend
	// state mirrors the backend's live records (agent ID -> encoded
	// checkpoint) so lookups never replay the log.
	state map[string][]byte
}

// OpenRoundLog replays backend and returns the log. Records that fail
// to decode are dropped (a torn checkpoint costs the resume, never the
// coordinator); a backend replay error is fatal — a log with holes
// would resume silently wrong.
func OpenRoundLog(backend shardstore.Backend) (*RoundLog, error) {
	rl := &RoundLog{backend: backend, state: make(map[string][]byte)}
	err := backend.Replay(func(op shardstore.Op, key string, value []byte) error {
		switch op {
		case shardstore.OpPut:
			rl.state[key] = append([]byte(nil), value...)
		case shardstore.OpDelete:
			delete(rl.state, key)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("replication: replaying round log: %w", err)
	}
	return rl, nil
}

// encodeRound renders one checkpoint record.
func encodeRound(stage int, cur *agent.Agent) ([]byte, error) {
	wire, err := cur.Marshal()
	if err != nil {
		return nil, err
	}
	var idx [8]byte
	binary.BigEndian.PutUint64(idx[:], uint64(stage))
	out := canon.Tuple([]byte(roundWireLabel), idx[:], wire)
	if len(out) > maxRoundWireBytes {
		return nil, fmt.Errorf("%w: %d encoded bytes over %d", ErrRoundLog, len(out), maxRoundWireBytes)
	}
	return out, nil
}

// decodeRound parses one checkpoint record.
func decodeRound(b []byte) (stage int, cur *agent.Agent, err error) {
	if len(b) > maxRoundWireBytes {
		return 0, nil, fmt.Errorf("%w: %d bytes over %d", ErrRoundLog, len(b), maxRoundWireBytes)
	}
	fields, err := canon.ParseTuple(b)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrRoundLog, err)
	}
	if len(fields) != 3 || string(fields[0]) != roundWireLabel || len(fields[1]) != 8 {
		return 0, nil, fmt.Errorf("%w: bad framing", ErrRoundLog)
	}
	ag, err := agent.Unmarshal(fields[2])
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrRoundLog, err)
	}
	return int(binary.BigEndian.Uint64(fields[1])), ag, nil
}

// Lookup returns the checkpoint for agentID: the last decided stage
// index and the agent adopted after it. ok is false when no (valid)
// checkpoint exists.
func (rl *RoundLog) Lookup(agentID string) (stage int, cur *agent.Agent, ok bool) {
	rl.mu.Lock()
	enc, found := rl.state[agentID]
	rl.mu.Unlock()
	if !found {
		return 0, nil, false
	}
	stage, cur, err := decodeRound(enc)
	if err != nil || cur.ID != agentID {
		return 0, nil, false
	}
	return stage, cur, true
}

// Save checkpoints the agent adopted after the decided stage, and syncs
// — a checkpoint that might vanish in a crash is worse than none,
// because the resume path trusts what it reads.
func (rl *RoundLog) Save(stage int, cur *agent.Agent) error {
	enc, err := encodeRound(stage, cur)
	if err != nil {
		return err
	}
	rl.mu.Lock()
	defer rl.mu.Unlock()
	rl.state[cur.ID] = enc
	if err := rl.backend.Append(shardstore.OpPut, cur.ID, enc); err != nil {
		return err
	}
	return rl.backend.Sync()
}

// Clear drops agentID's checkpoint — the journey reached a terminal
// outcome and must not resume.
func (rl *RoundLog) Clear(agentID string) error {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if _, found := rl.state[agentID]; !found {
		return nil
	}
	delete(rl.state, agentID)
	if err := rl.backend.Append(shardstore.OpDelete, agentID, nil); err != nil {
		return err
	}
	return rl.backend.Sync()
}
