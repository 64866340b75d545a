package main

// Direct timed calls into the layers' public functions, on inputs taken
// from the workload: a late-journey wire image captured by the traced
// fleet (state grown, every mechanism's baggage attached), its agent
// state, and the workload's program. They give each layer a number of
// its own, next to its share of an itinerary.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/agent"
	"repro/internal/canon"
	"repro/internal/events"
	"repro/internal/host"
	"repro/internal/planner"
	"repro/internal/policy"
	"repro/internal/shardstore"
	"repro/internal/sigcrypto"
	"repro/internal/transport"
)

// timeOp calls op repeatedly for about budget and returns the mean
// nanoseconds per call. Calls are timed in batches of about a
// millisecond, so the clock is read rarely.
func timeOp(budget time.Duration, op func()) float64 {
	start := time.Now()
	op()
	batch := max(int(time.Millisecond/max(time.Since(start), time.Nanosecond)), 1)
	var calls int
	var spent time.Duration
	for deadline := time.Now().Add(budget); time.Now().Before(deadline); {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			op()
		}
		spent += time.Since(t0)
		calls += batch
	}
	return float64(spent) / float64(max(calls, 1))
}

// timePrepared is timeOp for an op that consumes a fresh input each
// call: prep is not timed.
func timePrepared[T any](budget time.Duration, prep func() T, op func(T)) float64 {
	var calls int
	var spent time.Duration
	for deadline := time.Now().Add(budget); calls == 0 || time.Now().Before(deadline); {
		x := prep()
		t0 := time.Now()
		op(x)
		spent += time.Since(t0)
		calls++
	}
	return float64(spent) / float64(calls)
}

// discard is an endpoint that accepts everything and echoes calls.
type discard struct{}

func (discard) HandleAgent(context.Context, []byte) error { return nil }
func (discard) HandleCall(_ context.Context, _ string, body []byte) ([]byte, error) {
	return body, nil
}

// runMicro fills in the direct-call metrics. sample is the wire image
// to work on; budget is divided evenly among the timings.
func runMicro(r *result, w workload, sample []byte, budget time.Duration) (err error) {
	const timings = 16
	each := budget / timings
	ctx := context.Background()
	var errMu sync.Mutex // the group-commit timing calls must from several goroutines
	must := func(e error) {
		if e == nil {
			return
		}
		errMu.Lock()
		if err == nil {
			err = e
		}
		errMu.Unlock()
	}
	if len(sample) == 0 {
		return errors.New("benchmark: the traced fleet forwarded no agent to sample")
	}
	us := func(ns float64) float64 { return ns / 1e3 }

	// agent and canon codecs, on the sampled wire image.
	ag, err := agent.Unmarshal(sample)
	if err != nil {
		return err
	}
	r.set(perLayer, "agent.wire_bytes", float64(len(sample)))
	r.set(perLayer, "agent.unmarshal_us", us(timeOp(each, func() { _, e := agent.Unmarshal(sample); must(e) })))
	r.set(perLayer, "agent.marshal_us", us(timeOp(each, func() { _, e := ag.Marshal(); must(e) })))
	var sink canon.Digest
	r.set(perLayer, "canon.hash_state_us", us(timeOp(each, func() { sink = canon.HashState(ag.State) })))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < 100; i++ {
		sink = canon.HashState(ag.State)
	}
	runtime.ReadMemStats(&ms1)
	r.set(perLayer, "canon.hash_state_allocs", float64(ms1.Mallocs-ms0.Mallocs)/100)

	// sigcrypto: one signature over a digest, its verification, and a
	// batch of 16 from distinct signers.
	reg := sigcrypto.NewRegistry()
	entries := make([]sigcrypto.BatchEntry, 16)
	var keys *sigcrypto.KeyPair
	for i := range entries {
		if keys, err = sigcrypto.GenerateKeyPair(fmt.Sprintf("signer-%d", i)); err != nil {
			return err
		}
		must(reg.RegisterKeyPair(keys))
		entries[i] = sigcrypto.DigestEntry(sink, keys.SignDigest(sink))
	}
	sig := keys.SignDigest(sink)
	r.set(perLayer, "sigcrypto.sign_us", us(timeOp(each, func() { sig = keys.SignDigest(sink) })))
	r.set(perLayer, "sigcrypto.verify_us", us(timeOp(each, func() { must(reg.VerifyDigest(sink, sig)) })))
	r.set(perLayer, "sigcrypto.verify_batch16_us_per_sig", us(timeOp(each, func() {
		must(errors.Join(reg.VerifyBatch(entries)...))
	}))/16)

	// host: one session of the workload's program on a fresh agent.
	h, err := host.New(host.Config{
		Name: keys.ID(), Keys: keys, Registry: reg, Feed: tenByteFeed,
	})
	if err != nil {
		return err
	}
	it := itinerary{id: "micro", home: homeName(0), route: []string{workerName(0), workerName(1), workerName(2)}}
	fresh, err := newAgent(it.id, agentCode(&it, w.cycles, w.inputs))
	if err != nil {
		return err
	}
	r.set(perLayer, "host.run_session_ms", timePrepared(each, fresh.Clone, func(a *agent.Agent) {
		_, e := h.RunSession(ctx, a, host.SessionOptions{})
		must(e)
	})/1e6)

	// shardstore: one appender that syncs every record, then one
	// appender per CPU on the default group commit.
	if err := os.MkdirAll(stateRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(stateRoot, "micro-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	record := make([]byte, 128)
	wal, err := shardstore.OpenWAL(dir+"/sync", shardstore.WALConfig{SyncEvery: 1, FlushInterval: -1})
	if err != nil {
		return err
	}
	r.set(perLayer, "shardstore.wal_append_sync_us", us(timeOp(each, func() { must(wal.Append(shardstore.OpPut, "key", record)) })))
	must(wal.Close())
	if wal, err = shardstore.OpenWAL(dir+"/group", shardstore.WALConfig{}); err != nil {
		return err
	}
	appenders := runtime.GOMAXPROCS(0)
	perAppender := make([]float64, appenders)
	var wg sync.WaitGroup
	for i := range perAppender {
		wg.Add(1)
		go func() {
			defer wg.Done()
			perAppender[i] = timeOp(each, func() { must(wal.Append(shardstore.OpPut, "key", record)) })
		}()
	}
	wg.Wait()
	must(wal.Close())
	var sum float64
	for _, ns := range perAppender {
		sum += ns
	}
	r.set(perLayer, "shardstore.wal_group_commit_us_per_append", us(sum/float64(appenders)/float64(appenders)))

	// transport: a 64-byte echo and the sampled wire image over loopback
	// TCP, and the same image over InProc.
	srv, err := transport.Serve("127.0.0.1:0", discard{})
	if err != nil {
		return err
	}
	tcp := transport.NewTCPNetwork(map[string]string{"peer": srv.Addr()})
	small := make([]byte, 64)
	r.set(perLayer, "transport.tcp_call_us", us(timeOp(each, func() { _, e := tcp.Call(ctx, "peer", "echo", small); must(e) })))
	r.set(perLayer, "transport.tcp_send_agent_us", us(timeOp(each, func() { must(tcp.SendAgent(ctx, "peer", sample)) })))
	tcp.Close()
	must(srv.Close())
	inproc := transport.NewInProc()
	inproc.Register("peer", discard{})
	r.set(perLayer, "transport.inproc_send_agent_us", us(timeOp(each, func() { must(inproc.SendAgent(ctx, "peer", sample)) })))

	// policy: a ledger tracking the fleet's workers, written and read.
	ledger := policy.NewLedger(policy.LedgerConfig{})
	names := make([]string, fullShape.workers)
	for i := range names {
		names[i] = workerName(i)
	}
	i := 0
	r.set(perLayer, "policy.ledger_observe_ns", timeOp(each, func() {
		ledger.Observe(names[i%len(names)], i%8 != 0, 0)
		i++
	}))
	var susp float64
	r.set(perLayer, "policy.ledger_suspicion_ns", timeOp(each, func() {
		susp += ledger.Suspicion(names[i%len(names)])
		i++
	}))

	// planner: one 3-stage route over 15 candidates a stage, priced off
	// that ledger. No workload routes through the planner yet.
	stages := make([]planner.Stage, routeHops)
	for s := range stages {
		for c := 0; c < 15; c++ {
			stages[s].Candidates = append(stages[s].Candidates, names[(s*15+c)%len(names)])
		}
	}
	pl := planner.New(planner.Config{Home: homeName(0), Seed: 1, Suspicion: ledger.Suspicion})
	r.set(perLayer, "planner.plan_route_us", us(timeOp(each, func() {
		_, e := pl.PlanRoute(planner.Itinerary{ID: "micro", Stages: stages})
		must(e)
	})))

	// events: publish to a bus with one subscriber that keeps up.
	bus := events.NewBus(events.BusConfig{Node: "micro"})
	sub := bus.Subscribe("micro", 1024)
	n := 0
	r.set(perLayer, "events.publish_ns", timeOp(each, func() {
		bus.Publish(events.Event{Kind: events.KindIntake, Agent: "micro"})
		if n++; n%512 == 0 {
			sub.Drain()
		}
	}))
	bus.Close()
	_ = susp
	return err
}
