// Package host implements the agent platform: the execution environment
// that takes an agent's initial state, runs an execution session feeding
// it input, and produces the resulting state (paper §2.1, Fig. 1).
//
// A Host owns a signing identity and a resource store (its
// "database"). With RecordTrace a
// session returns its execution trace in the SessionRecord and the host
// keeps no copy: a mechanism that needs traces for later audit (vigna,
// proof) retains what it needs itself. A Host knows nothing about
// protection mechanisms; those are layered on top by package core,
// which invokes hosts through the session API defined here. Malicious
// behaviour is injected through the Behavior hook so that the attack
// library can corrupt executions without the platform code carrying
// attack logic.
package host

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/agent"
	"repro/internal/agentlang"
	"repro/internal/canon"
	"repro/internal/shardstore"
	"repro/internal/sigcrypto"
	"repro/internal/trace"
	"repro/internal/value"
)

// InputFeed services read(key) requests: the data a host hands to the
// agent from the outside (shop prices, query results, ...). It may be
// nil, in which case read falls back to the resource store.
type InputFeed func(agentID, key string) (value.Value, error)

// ActionSink observes output actions (send, act) the agent performs.
// It may be nil. Returning an error aborts the agent's execution.
type ActionSink func(agentID, action string, args []value.Value) error

// Behavior is the malicious-host hook. A nil Behavior is an honest
// host. The attack library implements this interface; the platform
// calls it at the three points where a host can cheat without breaking
// the protocol framing: while serving the session (WrapEnv), on the
// resulting state (TamperState), and on the session record it reports
// to checking mechanisms (TamperRecord).
type Behavior interface {
	// WrapEnv may interpose on the agent's environment, e.g. to return
	// forged input or execute statements incorrectly.
	WrapEnv(env agentlang.Env) agentlang.Env
	// TamperState may mutate the resulting agent state after execution
	// (a "manipulation of data" attack, Fig. 2 area 5).
	TamperState(st value.State)
	// TamperRecord may falsify what the host tells checking mechanisms
	// about the session (e.g. lie about the input, Fig. 2 area 12).
	TamperRecord(rec *SessionRecord)
}

// Config configures a host.
type Config struct {
	// Name is the host's principal name, unique in the deployment.
	Name string
	// Keys is the host's signing identity.
	Keys *sigcrypto.KeyPair
	// Registry is the shared principal registry (PKI).
	Registry *sigcrypto.Registry
	// Trusted marks hosts the agent owner trusts (home hosts, §5.1:
	// "execution sessions on trusted hosts are not checked"). New marks
	// the name trusted in Registry, where checkers look it up.
	Trusted bool
	// Resources is the host's data offering, served via resource(key)
	// and as the read() fallback.
	Resources map[string]value.Value
	// Feed services read(key); may be nil.
	Feed InputFeed
	// Sink observes output actions; may be nil.
	Sink ActionSink
	// Clock supplies time(); defaults to a deterministic session
	// counter starting at a fixed epoch. Wall-clock realism is not
	// needed because the value is recorded as input either way.
	Clock func() int64
	// RandSeed seeds the host's deterministic rand() source.
	RandSeed int64
	// RecordTrace enables full execution-trace recording (needed by the
	// vigna and proof mechanisms; the example mechanism needs only the
	// input log).
	RecordTrace bool
	// Behavior injects malicious conduct; nil means honest.
	Behavior Behavior
}

// Host is one agent platform node. The per-agent action ledger lives
// in a sharded store so concurrent sessions of distinct agents never
// serialize on one mutex; mu guards only the host-global clock and
// rand state.
type Host struct {
	cfg Config
	// actions records output actions performed on this host, per agent.
	actions *shardstore.Store[[]ActionRecord]

	mu     sync.Mutex
	clockN int64
	randSt uint64
}

// ActionRecord is one output action performed by an agent on this host.
type ActionRecord struct {
	Action string
	Args   []value.Value
}

// ErrRefused is returned when a host refuses an agent (failed
// validation).
var ErrRefused = errors.New("host: agent refused")

// New creates a host and registers its key and trust with the registry.
func New(cfg Config) (*Host, error) {
	if cfg.Name == "" {
		return nil, errors.New("host: name must not be empty")
	}
	if cfg.Keys == nil {
		return nil, fmt.Errorf("host %s: keys must not be nil", cfg.Name)
	}
	if cfg.Registry == nil {
		return nil, fmt.Errorf("host %s: registry must not be nil", cfg.Name)
	}
	if cfg.Keys.ID() != cfg.Name {
		return nil, fmt.Errorf("host %s: key principal %q does not match host name", cfg.Name, cfg.Keys.ID())
	}
	if err := cfg.Registry.RegisterKeyPair(cfg.Keys); err != nil {
		return nil, fmt.Errorf("host %s: registering key: %w", cfg.Name, err)
	}
	if cfg.Trusted {
		cfg.Registry.Trust(cfg.Name)
	} else if cfg.Registry.Trusted(cfg.Name) {
		return nil, fmt.Errorf("host %s: the registry trusts this name, but the host is configured untrusted", cfg.Name)
	}
	seed := uint64(cfg.RandSeed)
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15 // golden-ratio default; recorded as input anyway
	}
	return &Host{
		cfg:     cfg,
		actions: shardstore.New[[]ActionRecord](shardstore.Config[[]ActionRecord]{}),
		randSt:  seed,
	}, nil
}

// Name returns the host's principal name.
func (h *Host) Name() string { return h.cfg.Name }

// Keys returns the host's signing identity.
func (h *Host) Keys() *sigcrypto.KeyPair { return h.cfg.Keys }

// Registry returns the shared principal registry.
func (h *Host) Registry() *sigcrypto.Registry { return h.cfg.Registry }

// Actions returns the output actions the given agent performed on this
// host, in order.
func (h *Host) Actions(agentID string) []ActionRecord {
	var out []ActionRecord
	h.actions.View(agentID, func(recs []ActionRecord, _ bool) {
		out = append(out, recs...)
	})
	return out
}

// SessionRecord captures everything about one execution session that
// checking mechanisms may use as reference data (paper §3.5): the
// initial state, the resulting state, the input, and the execution log
// (trace). It is the host-side ground truth; what a malicious host
// *reports* may differ (see Behavior.TamperRecord).
type SessionRecord struct {
	HostName string
	AgentID  string
	Hop      int
	Entry    string
	// Initial and Resulting are copy-on-write snapshots of the data
	// state before and after the session (value.State.Snapshot): they
	// are isolated from every platform write path — further sessions,
	// Agent.SetVar, interpreter writes — without paying a deep copy.
	// Code outside the platform that mutates nested agent state
	// directly must Clone first.
	Initial   value.State
	Resulting value.State
	// ResultEntry is the execution state after the session: the entry
	// procedure for the next session (empty if the agent finished).
	ResultEntry string
	// Input is the ordered input log of the session.
	Input []agentlang.InputRecord
	// Trace is the execution trace, present only if the host records
	// traces.
	Trace trace.Trace
	// Outputs lists the output actions performed.
	Outputs []ActionRecord
	// Outcome is how the session ended.
	Outcome agentlang.Outcome

	// Memoized state digests: several mechanisms digest the same
	// finalized record (refproto signs both states, vigna and proof the
	// resulting one), so each state is hashed at most once per session.
	digMu           sync.Mutex
	initDig, resDig canon.Digest
	initOK, resOK   bool
}

// InitialDigest returns the canonical digest of the initial state,
// memoized on first use. Call only once the record is finalized.
func (r *SessionRecord) InitialDigest() canon.Digest {
	r.digMu.Lock()
	defer r.digMu.Unlock()
	if !r.initOK {
		r.initDig = canon.HashState(r.Initial)
		r.initOK = true
	}
	return r.initDig
}

// ResultingDigest returns the canonical digest of the resulting state,
// memoized on first use. Call only once the record is finalized.
func (r *SessionRecord) ResultingDigest() canon.Digest {
	r.digMu.Lock()
	defer r.digMu.Unlock()
	if !r.resOK {
		r.resDig = canon.HashState(r.Resulting)
		r.resOK = true
	}
	return r.resDig
}

// SessionOptions tunes one session run.
type SessionOptions struct {
	// ExtraHook is chained after trace recording; used by the benchmark
	// harness for per-procedure phase timing.
	ExtraHook agentlang.Hook
}

// RunSession executes one session of the agent on this host: validates
// the agent, snapshots the initial state, runs the entry procedure with
// recording, applies malicious behaviour if configured, and advances
// the agent's execution state (entry, hop, route).
//
// ctx gates session admission: a session never starts under a done
// context. The execution itself is bounded by fuel, not ctx — an
// admitted session runs to completion so the platform never observes a
// half-executed state.
//
// The agent is mutated in place. The returned record holds deep
// snapshots, so later mutation of the agent cannot alter it.
func (h *Host) RunSession(ctx context.Context, ag *agent.Agent, opts SessionOptions) (*SessionRecord, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("host %s: session admission: %w", h.cfg.Name, err)
	}
	if err := ag.Validate(); err != nil {
		return nil, fmt.Errorf("%w by %s: %v", ErrRefused, h.cfg.Name, err)
	}
	prog, err := ag.Program()
	if err != nil {
		return nil, fmt.Errorf("%w by %s: %v", ErrRefused, h.cfg.Name, err)
	}

	rec := &SessionRecord{
		HostName: h.cfg.Name,
		AgentID:  ag.ID,
		Hop:      ag.Hop,
		Entry:    ag.Entry,
		Initial:  ag.State.Snapshot(),
	}

	// Build the environment stack: base host env -> (malicious wrapper)
	// -> input recorder. The recorder sits outermost so the input log
	// reflects what the agent actually received — including forged
	// values; a lying host instead tampers the record afterwards
	// (TamperRecord), which is the attack the mechanisms cannot detect
	// (§4.2).
	var env agentlang.Env = &hostEnv{h: h, agentID: ag.ID}
	if h.cfg.Behavior != nil {
		env = h.cfg.Behavior.WrapEnv(env)
	}
	recEnv := &agentlang.RecordingEnv{Inner: env}

	var hook agentlang.Hook
	var tracer *trace.Recorder
	if h.cfg.RecordTrace {
		tracer = trace.NewRecorder()
		hook = tracer
	}
	if opts.ExtraHook != nil {
		if hook == nil {
			hook = opts.ExtraHook
		} else {
			hook = multiHook{hook, opts.ExtraHook}
		}
	}

	outcome, err := agentlang.Run(prog, ag.Entry, ag.State, recEnv, agentlang.Options{Hook: hook})
	if err != nil {
		return nil, fmt.Errorf("host %s: session hop %d: %w", h.cfg.Name, ag.Hop, err)
	}

	if h.cfg.Behavior != nil {
		h.cfg.Behavior.TamperState(ag.State)
	}
	// The interpreter (and a malicious Behavior) wrote the state map
	// directly; drop the memoized digest before anyone reads it.
	ag.InvalidateStateDigest()

	rec.Outcome = outcome
	rec.Input = recEnv.Records
	rec.Resulting = ag.State.Snapshot()
	if tracer != nil {
		rec.Trace = tracer.Take()
	}
	rec.Outputs = h.Actions(ag.ID)

	// Advance the agent's execution state.
	ag.Route = append(ag.Route, h.cfg.Name)
	ag.Hop++
	if outcome.Kind == agentlang.OutcomeMigrated {
		if !prog.HasProc(outcome.MigrateEntry) {
			return nil, fmt.Errorf("host %s: agent migrates to unknown entry %q", h.cfg.Name, outcome.MigrateEntry)
		}
		ag.Entry = outcome.MigrateEntry
		rec.ResultEntry = outcome.MigrateEntry
	} else {
		ag.Entry = ""
		rec.ResultEntry = ""
	}

	if h.cfg.Behavior != nil {
		h.cfg.Behavior.TamperRecord(rec)
	}
	return rec, nil
}

// Replay re-executes a recorded session: the checking half of
// RunSession, shared by every mechanism that re-executes (refproto's
// check after each session, vigna's audit of a whole journey). It runs
// prog's entry procedure on a copy-on-write snapshot of initial and
// answers every input request from the recorded log, in order, without
// touching any host. Snapshotting first gives the replay the same
// copy-on-write flags the live run saw, so alias-sensitive programs
// behave identically; initial's values stay intact for evidence.
//
// It returns the replayed state, the entry the agent continues at (""
// unless it migrated), the number of input records the run never
// consumed, and the run error (a replay divergence, a run-time fault).
// hook, when non-nil, observes the re-execution.
func Replay(prog *agentlang.Program, entry string, initial value.State, input []agentlang.InputRecord, hook agentlang.Hook) (value.State, string, int, error) {
	state := initial.Snapshot()
	env := agentlang.NewReplayEnv(input)
	outcome, err := agentlang.Run(prog, entry, state, env, agentlang.Options{Hook: hook})
	next := ""
	if outcome.Kind == agentlang.OutcomeMigrated {
		next = outcome.MigrateEntry
	}
	return state, next, env.Remaining(), err
}

// hostEnv adapts the host to the agentlang environment interface.
type hostEnv struct {
	h       *Host
	agentID string
}

var _ agentlang.Env = (*hostEnv)(nil)

func (e *hostEnv) Input(call string, args []value.Value) (value.Value, error) {
	h := e.h
	switch call {
	case "read":
		key := args[0]
		if key.Kind != value.KindString {
			return value.Null(), fmt.Errorf("read key must be string, got %s", key.Kind)
		}
		if h.cfg.Feed != nil {
			return h.cfg.Feed(e.agentID, key.Str)
		}
		if v, ok := h.cfg.Resources[key.Str]; ok {
			return v.Clone(), nil
		}
		return value.Null(), fmt.Errorf("host %s has no input for key %q", h.cfg.Name, key.Str)
	case "resource":
		key := args[0]
		if key.Kind != value.KindString {
			return value.Null(), fmt.Errorf("resource key must be string, got %s", key.Kind)
		}
		if v, ok := h.cfg.Resources[key.Str]; ok {
			return v.Clone(), nil
		}
		return value.Null(), fmt.Errorf("host %s has no resource %q", h.cfg.Name, key.Str)
	case "recv":
		// Messages have no sender in this reproduction: recv() stays a
		// logged input, and every host answers it with null.
		return value.Null(), nil
	case "time":
		if h.cfg.Clock != nil {
			return value.Int(h.cfg.Clock()), nil
		}
		h.mu.Lock()
		defer h.mu.Unlock()
		h.clockN++
		return value.Int(1_000_000_000 + h.clockN), nil
	case "rand":
		n := args[0]
		if n.Kind != value.KindInt || n.Int <= 0 {
			return value.Null(), fmt.Errorf("rand bound must be a positive int")
		}
		h.mu.Lock()
		defer h.mu.Unlock()
		// xorshift64*: deterministic per host, recorded as input.
		h.randSt ^= h.randSt >> 12
		h.randSt ^= h.randSt << 25
		h.randSt ^= h.randSt >> 27
		r := h.randSt * 0x2545F4914F6CDD1D
		return value.Int(int64(r % uint64(n.Int))), nil
	case "here":
		return value.Str(h.cfg.Name), nil
	default:
		return value.Null(), fmt.Errorf("unknown input external %q", call)
	}
}

func (e *hostEnv) Output(action string, args []value.Value) error {
	h := e.h
	cloned := make([]value.Value, len(args))
	for i, a := range args {
		cloned[i] = a.Clone()
	}
	h.actions.Upsert(e.agentID, func(recs []ActionRecord, _ bool) []ActionRecord {
		return append(recs, ActionRecord{Action: action, Args: cloned})
	})
	if h.cfg.Sink != nil {
		return h.cfg.Sink(e.agentID, action, args)
	}
	return nil
}

// multiHook fans hook events out to two hooks.
type multiHook [2]agentlang.Hook

var _ agentlang.Hook = multiHook{}

func (m multiHook) Statement(id int, usedInput bool, assigned []agentlang.Assignment) {
	m[0].Statement(id, usedInput, assigned)
	m[1].Statement(id, usedInput, assigned)
}
func (m multiHook) EnterProc(name string) { m[0].EnterProc(name); m[1].EnterProc(name) }
func (m multiHook) ExitProc(name string)  { m[0].ExitProc(name); m[1].ExitProc(name) }
