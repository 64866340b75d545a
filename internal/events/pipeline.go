package events

import (
	"path/filepath"
	"time"
)

// FlightDirName is the flight recorder's WAL directory under a node's
// data directory.
const FlightDirName = "flight"

// PipelineConfig parameterizes Open.
type PipelineConfig struct {
	// Node is the publisher name stamped into events.
	Node string
	// Now overrides the event clock; nil means time.Now.
	Now func() time.Time
	// DataDir, when non-empty, enables the flight recorder with its
	// WAL under DataDir/flight.
	DataDir string
	// OnPersistError observes the flight recorder's first sticky
	// persistence failure; may be nil.
	OnPersistError func(error)
}

// Pipeline bundles one node's observability plane: the bus plus its
// built-in consumers (metrics registry always; flight recorder when a
// data directory is configured). It is what deployments hand to
// core.NodeConfig.Events.
type Pipeline struct {
	// Bus is the publish surface producers use.
	Bus *Bus
	// Metrics is the aggregating registry behind `node/metrics`.
	Metrics *Registry
	// Flight is the WAL-backed recorder behind `node/flight`; nil when
	// the pipeline is memory-only.
	Flight *Recorder
}

// Open builds a pipeline: recorder first (so its recovered high-water
// sequence seeds the bus and cursors stay monotone across restarts),
// then bus, then consumers.
func Open(cfg PipelineConfig) (*Pipeline, error) {
	p := &Pipeline{}
	first := uint64(0)
	if cfg.DataDir != "" {
		rec, err := OpenRecorder(filepath.Join(cfg.DataDir, FlightDirName), RecorderConfig{
			OnError: cfg.OnPersistError,
		})
		if err != nil {
			return nil, err
		}
		p.Flight = rec
		first = rec.NextSeq()
	}
	p.Bus = NewBus(BusConfig{
		Node:     cfg.Node,
		Now:      cfg.Now,
		FirstSeq: first,
	})
	if p.Flight != nil {
		p.Flight.Attach(p.Bus)
	}
	p.Metrics = NewRegistry(p.Bus)
	return p, nil
}

// Publish forwards to the bus; safe on a nil pipeline (no-op
// returning 0), so producers can hold an optional pipeline without
// guarding every call site.
func (p *Pipeline) Publish(ev Event) uint64 {
	if p == nil || p.Bus == nil {
		return 0
	}
	return p.Bus.Publish(ev)
}

// Degraded reports whether the flight recorder has hit a sticky
// persistence failure. False on a nil pipeline or memory-only
// pipeline.
func (p *Pipeline) Degraded() bool {
	if p == nil || p.Flight == nil {
		return false
	}
	return p.Flight.Degraded()
}

// Drops returns total events dropped across the bus's subscribers; 0
// on a nil pipeline.
func (p *Pipeline) Drops() uint64 {
	if p == nil || p.Bus == nil {
		return 0
	}
	return p.Bus.Drops()
}

// Close tears the pipeline down: bus first (wakes and closes every
// subscription), then the consumers drain their final batches and
// release their resources. It returns the flight recorder's sticky
// persistence failure, if any. Safe on a nil pipeline.
func (p *Pipeline) Close() error {
	if p == nil {
		return nil
	}
	if p.Bus != nil {
		p.Bus.Close()
	}
	if p.Metrics != nil {
		p.Metrics.Close()
	}
	if p.Flight != nil {
		return p.Flight.Close()
	}
	return nil
}
