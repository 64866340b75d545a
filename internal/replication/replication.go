// Package replication implements the server-replication mechanism of
// Minsky, van Renesse, Schneider and Stoller as analysed by the paper
// (§3.2): "for every stage, i.e. an execution session on one host, a
// set of independent, replicated hosts" executes the agent in parallel,
// and "after the execution, the hosts vote about the result of the
// step. ... The executions with the most votes wins, and the next step
// is executed. Obviously, even (n/2 - 1) malicious hosts can be
// tolerated."
//
// In the framework's attribute space: moment = after every session;
// reference data = the replicated resources (each replica offers the
// same data) and the resulting states of the peer executions; checking
// algorithm = counting equal results ("an execution is checked by
// using a set of other executions").
//
// The reproduction centralizes vote collection in a Coordinator driven
// by the agent owner; the paper's fully distributed collection ("at
// all hosts of the next step, the votes are collected") changes who
// tallies, not what is tallied. Replicas answer execute requests over
// the network and sign their votes, so a replica cannot impersonate
// another's result.
package replication

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"

	"repro/internal/agent"
	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/sigcrypto"
	"repro/internal/transport"
	"repro/internal/value"
)

// MechanismName is the call namespace.
const MechanismName = "replication"

// Mechanism is the replica-side protocol: it answers "execute" calls by
// running one session locally and returning a signed vote. It performs
// no per-migration checking (replication replaces the migration
// pipeline entirely).
type Mechanism struct {
	core.BaseMechanism
}

var (
	_ core.Mechanism         = (*Mechanism)(nil)
	_ core.CallHandler       = (*Mechanism)(nil)
	_ core.ResourceRequester = (*Mechanism)(nil)
)

// New builds the replica-side mechanism.
func New() *Mechanism { return &Mechanism{} }

// Name implements core.Mechanism.
func (m *Mechanism) Name() string { return MechanismName }

// RequestsResource declares that replication relies on replicated host
// resources (Fig. 4).
func (m *Mechanism) RequestsResource() {}

// Vote is a replica's signed execution result.
type Vote struct {
	Replica     string
	Hop         int
	StateEnc    []byte // canonical encoding of the resulting state
	ResultEntry string
	Sig         sigcrypto.Signature
}

// Digest returns the vote's ballot: what equality is counted over.
func (v *Vote) Digest() canon.Digest {
	return canon.HashTuple([]byte("replication-ballot"), v.StateEnc, []byte(v.ResultEntry))
}

func (v *Vote) bindingBytes(agentID string) []byte {
	d := v.Digest()
	return canon.Tuple(
		[]byte("replication-vote"),
		[]byte(agentID),
		[]byte(v.Replica),
		[]byte(fmt.Sprintf("%d", v.Hop)),
		d[:],
	)
}

// The vote wire codec: votes cross the untrusted network, so they move
// in the repo's bounded canon.Tuple format (PR 1's wire policy) instead
// of gob — total size and every field length are checked before any
// content-proportional allocation, and a malformed message is a typed
// error, not a speculative decode.
const (
	// voteWireLabel versions the vote framing.
	voteWireLabel = "replication-vote-wire"
	// MaxVoteWireBytes bounds an encoded vote; the dominant field is
	// the canonical state encoding, so the bound is sized for large
	// agent states with room to spare.
	MaxVoteWireBytes = 1 << 20
	// maxVoteNameLen bounds the replica-name field; maxVoteEntryLen the
	// result-entry procedure name; maxVoteSigLen the signature.
	maxVoteNameLen  = 256
	maxVoteEntryLen = 1024
	maxVoteSigLen   = 128
)

// ErrVoteWire is wrapped by every rejection of the vote wire codec.
var ErrVoteWire = errors.New("replication: malformed vote wire data")

// encodeVote renders a vote in the bounded tuple format.
func encodeVote(v *Vote) ([]byte, error) {
	if len(v.Replica) > maxVoteNameLen || len(v.ResultEntry) > maxVoteEntryLen ||
		len(v.Sig.Signer) > maxVoteNameLen || len(v.Sig.Sig) > maxVoteSigLen {
		return nil, fmt.Errorf("%w: field over bound", ErrVoteWire)
	}
	var hop [8]byte
	binary.BigEndian.PutUint64(hop[:], uint64(v.Hop))
	out := canon.Tuple(
		[]byte(voteWireLabel),
		[]byte(v.Replica),
		hop[:],
		v.StateEnc,
		[]byte(v.ResultEntry),
		[]byte(v.Sig.Signer),
		v.Sig.Sig,
	)
	if len(out) > MaxVoteWireBytes {
		return nil, fmt.Errorf("%w: %d encoded bytes over %d", ErrVoteWire, len(out), MaxVoteWireBytes)
	}
	return out, nil
}

// decodeVote parses a vote, rejecting oversized or malformed input
// before allocating for it.
func decodeVote(b []byte) (*Vote, error) {
	s, err := canon.ScanList(b, voteWireLabel, MaxVoteWireBytes, 6)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrVoteWire, err)
	}
	v := &Vote{Replica: string(s.Field(maxVoteNameLen)), Hop: int(s.Uint64())}
	state := s.Field(len(b))
	v.ResultEntry = string(s.Field(maxVoteEntryLen))
	signer, sig := s.Field(maxVoteNameLen), s.Field(maxVoteSigLen)
	if err := s.End(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrVoteWire, err)
	}
	v.StateEnc = append([]byte(nil), state...)
	v.Sig.Signer = string(signer)
	v.Sig.Sig = append([]byte(nil), sig...)
	return v, nil
}

// HandleCall implements core.CallHandler: method "execute" runs one
// session on the local host and returns the signed vote.
func (m *Mechanism) HandleCall(ctx context.Context, hc *core.HostContext, method string, body []byte) ([]byte, error) {
	if method != "execute" {
		return nil, fmt.Errorf("%w: replication/%s", transport.ErrUnknownMethod, method)
	}
	ag, err := agent.Unmarshal(body)
	if err != nil {
		return nil, fmt.Errorf("replication: %w", err)
	}
	hop := ag.Hop
	if _, err := hc.Host.RunSession(ctx, ag, host.SessionOptions{}); err != nil {
		return nil, fmt.Errorf("replication: session: %w", err)
	}
	v := Vote{
		Replica:     hc.Host.Name(),
		Hop:         hop,
		StateEnc:    canon.EncodeState(ag.State),
		ResultEntry: ag.Entry,
	}
	v.Sig = hc.Host.Keys().Sign(v.bindingBytes(ag.ID))
	enc, err := encodeVote(&v)
	if err != nil {
		return nil, fmt.Errorf("replication: encoding vote: %w", err)
	}
	return enc, nil
}

// StageReport describes one stage's vote.
type StageReport struct {
	Stage    int
	Replicas []string
	// Votes maps replica name to its ballot digest; replicas that
	// failed to answer are absent.
	Votes map[string]canon.Digest
	// Failures maps each replica whose vote could not be counted to
	// the reason: transport errors, malformed or oversized vote wire
	// data, a vote naming the wrong replica or hop, or a signature
	// that did not verify. A replica present in Failures crashed,
	// vanished, or cheated on the protocol level; a replica present in
	// Votes with a losing ballot dissented on the content — operators
	// can finally tell the two apart.
	Failures map[string]string
	// Winner is the majority ballot; Dissenters voted differently or
	// not at all — under the honest-majority assumption these are the
	// attacking (or faulty) hosts.
	Winner  canon.Digest
	WinnerN int
	// WinnerReplica is a real host that cast the majority ballot (the
	// lexicographically first, for determinism); it is the name the
	// coordinator records on the agent's route so downstream
	// reputation and appraisal can attribute the stage to an actual
	// principal.
	WinnerReplica string
	Dissenters    []string
}

// Report is the whole journey's outcome.
type Report struct {
	Final  *agent.Agent
	Stages []StageReport
}

// Errors returned by the coordinator.
var (
	// ErrNoMajority is returned when no ballot reaches a strict
	// majority of the stage's replica set.
	ErrNoMajority = errors.New("replication: no majority among replicas")
	// ErrAgentFailed is returned when the winning execution terminated
	// the agent before the itinerary's last stage.
	ErrAgentFailed = errors.New("replication: agent finished before the last stage")
)

// Coordinator drives an agent through staged replicated execution.
type Coordinator struct {
	// Net reaches the replicas.
	Net transport.Network
	// Registry verifies vote signatures.
	Registry *sigcrypto.Registry
	// Stages is the itinerary: one replica set per stage.
	Stages [][]string
}

// Run executes the agent through all stages and returns the report.
// The input agent is not mutated; the final agent is a fresh instance
// carrying the majority state. ctx bounds every replica call;
// cancellation between stages aborts the run.
func (c *Coordinator) Run(ctx context.Context, ag *agent.Agent) (*Report, error) {
	if len(c.Stages) == 0 {
		return nil, errors.New("replication: no stages configured")
	}
	cur := ag.Clone()
	rep := &Report{}
	for i := 0; i < len(c.Stages); i++ {
		replicas := c.Stages[i]
		if err := ctx.Err(); err != nil {
			return rep, fmt.Errorf("replication: stage %d: %w", i, err)
		}
		if len(replicas) == 0 {
			return nil, fmt.Errorf("replication: stage %d has no replicas", i)
		}
		stage, winnerVote, err := c.runStage(ctx, i, replicas, cur)
		rep.Stages = append(rep.Stages, stage)
		if err != nil {
			return rep, err
		}
		st, err := canon.DecodeState(winnerVote.StateEnc)
		if err != nil {
			return rep, fmt.Errorf("replication: stage %d: decoding winner state: %w", i, err)
		}
		cur.SetState(st)
		cur.Entry = winnerVote.ResultEntry
		cur.Hop++
		// The route records the replica whose execution was adopted — a
		// real host, so downstream reputation/appraisal can attribute
		// the stage to a principal (a synthetic "stageN" name would be
		// unchargeable).
		cur.Route = append(cur.Route, stage.WinnerReplica)
		if cur.Entry == "" {
			if i != len(c.Stages)-1 {
				rep.Final = cur
				return rep, fmt.Errorf("%w (stage %d of %d)", ErrAgentFailed, i+1, len(c.Stages))
			}
			break
		}
	}
	rep.Final = cur
	return rep, nil
}

// runStage fans the agent out to the stage's replicas, collects signed
// votes, and tallies.
func (c *Coordinator) runStage(ctx context.Context, stageIdx int, replicas []string, cur *agent.Agent) (StageReport, *Vote, error) {
	report := StageReport{
		Stage:    stageIdx,
		Replicas: append([]string(nil), replicas...),
		Votes:    make(map[string]canon.Digest, len(replicas)),
		Failures: make(map[string]string),
	}
	wire, err := cur.Marshal()
	if err != nil {
		return report, nil, fmt.Errorf("replication: stage %d: %w", stageIdx, err)
	}

	type result struct {
		replica string
		vote    *Vote
		err     error
	}
	results := make(chan result, len(replicas))
	var wg sync.WaitGroup
	for _, r := range replicas {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, err := c.Net.Call(ctx, r, MechanismName+"/execute", wire)
			if err != nil {
				results <- result{replica: r, err: fmt.Errorf("call: %w", err)}
				return
			}
			// A replica running inside a full node may wrap its reply in
			// the urgent envelope; the coordinator runs over the raw
			// transport, so it unwraps here (tolerant: a bare vote passes
			// through). The baggage itself is second-hand reputation
			// evidence the coordinator has no ledger to merge into — the
			// owner's node ingests it on its own calls.
			body, _ = transport.OpenReply(body)
			v, err := decodeVote(body)
			if err != nil {
				results <- result{replica: r, err: err}
				return
			}
			results <- result{replica: r, vote: v}
		}()
	}
	wg.Wait()
	close(results)

	votes := make(map[string]*Vote, len(replicas))
	var pending []result
	for res := range results {
		// A replica that produced no countable vote is still implicit
		// dissent for the tally, but the report records *why* — a
		// crashed replica and a cheating one are different operational
		// problems.
		if res.err != nil {
			report.Failures[res.replica] = res.err.Error()
			continue
		}
		v := res.vote
		// A vote must be attributable: right replica, right hop, valid
		// signature. Structural checks run here; signatures are checked
		// below, in one batch across the stage's surviving votes.
		if v.Replica != res.replica {
			report.Failures[res.replica] = fmt.Sprintf("vote names replica %q", v.Replica)
			continue
		}
		if v.Hop != cur.Hop {
			report.Failures[res.replica] = fmt.Sprintf("vote for hop %d, stage expects %d", v.Hop, cur.Hop)
			continue
		}
		pending = append(pending, res)
	}
	// One signature pass for the whole stage. A nil errs slice from
	// VerifyBatch means every vote verified; failed slots carry the
	// exact scalar error, so per-replica attribution is unchanged.
	batch := make([]sigcrypto.BatchEntry, len(pending))
	for i, res := range pending {
		batch[i] = sigcrypto.BatchEntry{Msg: res.vote.bindingBytes(cur.ID), Sig: res.vote.Sig}
	}
	sigErrs := c.Registry.VerifyBatch(batch)
	for i, res := range pending {
		if sigErrs != nil && sigErrs[i] != nil {
			report.Failures[res.replica] = fmt.Sprintf("signature: %v", sigErrs[i])
			continue
		}
		votes[res.replica] = res.vote
		report.Votes[res.replica] = res.vote.Digest()
	}

	// Tally.
	counts := make(map[canon.Digest]int)
	for _, v := range votes {
		counts[v.Digest()]++
	}
	var winner canon.Digest
	best := 0
	for d, n := range counts {
		if n > best {
			winner, best = d, n
		}
	}
	report.Winner = winner
	report.WinnerN = best
	for _, r := range replicas {
		d, ok := report.Votes[r]
		if !ok || d != winner {
			report.Dissenters = append(report.Dissenters, r)
		}
	}
	sort.Strings(report.Dissenters)

	// Strict majority of the configured replica set, as the fault bound
	// requires ("even (n/2 - 1) malicious hosts can be tolerated").
	if best*2 <= len(replicas) {
		return report, nil, fmt.Errorf("%w: stage %d: best ballot has %d of %d", ErrNoMajority, stageIdx, best, len(replicas))
	}
	// Adopt the lexicographically first majority voter's vote, so the
	// winner recorded on the route is deterministic.
	var winnerVote *Vote
	for _, r := range slices.Sorted(maps.Keys(votes)) {
		if votes[r].Digest() == winner {
			winnerVote = votes[r]
			report.WinnerReplica = r
			break
		}
	}
	if winnerVote == nil {
		return report, nil, fmt.Errorf("replication: stage %d: internal: winner vote not found", stageIdx)
	}
	return report, winnerVote, nil
}

// MaxTolerated returns the number of malicious replicas a stage of
// size n tolerates: ceil(n/2) - 1.
func MaxTolerated(n int) int {
	if n <= 0 {
		return 0
	}
	return (n+1)/2 - 1
}

// EqualResources reports whether two hosts' resource offerings are
// identical — the precondition for replicas ("hosts that offer the
// same set of resources").
func EqualResources(a, b map[string]value.Value) bool {
	return value.Map(a).Equal(value.Map(b))
}
