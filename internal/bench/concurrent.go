package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/host"
	"repro/internal/protection"
	"repro/internal/value"
)

// ConcurrentConfig parameterizes a concurrent-itinerary run.
type ConcurrentConfig struct {
	// Workers is the per-node worker count; 1 reproduces the serialized
	// seed behaviour.
	Workers int
	// Agents is the number of itineraries launched at once.
	Agents int
	// FeedLatency is the simulated external-data latency per read (the
	// realistic host workload: sessions wait on a database or upstream
	// service, which is exactly what a serialized node cannot overlap).
	FeedLatency time.Duration
}

// ConcurrentItineraries launches cfg.Agents agents at once through a
// three-host LevelSigned deployment whose sessions each pay
// cfg.FeedLatency on an external read, waits for every itinerary to
// finish, and returns the wall-clock for the whole batch. Itinerary
// throughput is Agents/elapsed; the worker-pool win is the ratio of
// the 1-worker to the N-worker elapsed time.
func ConcurrentItineraries(cfg ConcurrentConfig) (time.Duration, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Agents <= 0 {
		cfg.Agents = 8
	}
	if cfg.FeedLatency <= 0 {
		cfg.FeedLatency = time.Millisecond
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	f, err := fleet.New("owner")
	if err != nil {
		return 0, err
	}
	defer func() { _ = f.Close() }()
	for i, name := range []string{"c1", "c2", "c3"} {
		if _, err := f.Add(fleet.Spec{
			Host: host.Config{
				Name:    name,
				Trusted: i != 1,
				Feed: func(agentID, key string) (value.Value, error) {
					time.Sleep(cfg.FeedLatency)
					return tenByteFeed(agentID, key)
				},
			},
			Level: protection.LevelSigned,
			Node: core.NodeConfig{
				Workers: cfg.Workers,
				// Deep enough that the whole batch enqueues without
				// backpressure; the measurement is processing overlap, not
				// intake blocking.
				QueueDepth: cfg.Agents + 1,
			},
		}); err != nil {
			return 0, err
		}
	}

	code := `
proc main() {
    elem = read("elem")
    hops = hops + 1
    let at = here()
    if at == "c1" { migrate("c2", "main") }
    if at == "c2" { migrate("c3", "main") }
    done()
}`

	// Watch every node per agent so a failure at any hop surfaces
	// instead of timing out the batch.
	receipts := make([][]*core.Receipt, cfg.Agents)
	wires := make([][]byte, cfg.Agents)
	for i := 0; i < cfg.Agents; i++ {
		ag, err := agent.New(fmt.Sprintf("conc-%03d", i), "owner", code, "main")
		if err != nil {
			return 0, err
		}
		ag.SetVar("hops", value.Int(0))
		wire, err := ag.Marshal()
		if err != nil {
			return 0, err
		}
		wires[i] = wire
		receipts[i] = f.Watch(ag.ID)
	}

	begin := time.Now()
	for i := range wires {
		if err := f.Net().SendAgent(ctx, "c1", wires[i]); err != nil {
			return 0, fmt.Errorf("bench: launching agent %d: %w", i, err)
		}
	}
	for i, rcs := range receipts {
		res, err := core.AwaitAny(ctx, rcs...)
		if err != nil {
			return 0, fmt.Errorf("bench: agent %d: %w", i, err)
		}
		if got := res.Agent.State["hops"]; got.Int != 3 {
			return 0, fmt.Errorf("bench: agent %d ran %d sessions, want 3", i, got.Int)
		}
	}
	return time.Since(begin), nil
}
