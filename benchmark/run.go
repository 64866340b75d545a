package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// problem says why Correct is false; exact holds the counts that
	// must repeat for one seed. Neither is printed.
	problem  string
	exact    map[string]int
	tampered int
	detected int
}

// spec describes one metric in BENCHMARK.json.
type spec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics an agent owner or a fleet operator sees,
// with the share by which each may worsen before it is a regression.
var endToEnd = []spec{
	{"itins_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_itin", "ms", "lower", 0.25},
	{"solo_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

func (r *result) set(specs []spec, name string, v float64) {
	for _, s := range specs {
		if s.Name == name {
			r.Metrics[name] = metric{Value: v, Unit: s.Unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared")
}

func (r *result) absorb(p phaseResult) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	r.tampered += p.tampered
	r.detected += p.detected
	if r.problem == "" {
		r.problem = p.firstFail
	}
}

// finish applies the correctness gates: no failed operation, every
// tampered session detected and blamed on its host, the malicious
// hosts' own count of manipulated sessions equal to what ground truth
// predicted, and no event dropped by a bus.
func (r *result) finish(hostCount int64, predicted int, drops uint64) {
	if r.problem == "" && r.detected != r.tampered {
		r.problem = fmt.Sprintf("detected %d of %d tampered sessions", r.detected, r.tampered)
	}
	if r.problem == "" && int(hostCount) != predicted {
		r.problem = fmt.Sprintf("malicious hosts manipulated %d sessions, ground truth predicted %d", hostCount, predicted)
	}
	if r.problem == "" && drops > 0 {
		r.problem = fmt.Sprintf("%d events dropped", drops)
	}
	r.Correct = r.Failed == 0 && r.problem == ""
}

// runEndToEnd measures the end-to-end metrics of one workload, with no
// decorator, hook or timer installed. Set-up is repeated, at least
// minSetups times and until setupBudget is spent or maxSetups reached,
// and setup_s is the median; the last fleet built is the one measured.
func runEndToEnd(w workload, sh shape, seed int64, seconds float64, setupBudget time.Duration) (*result, error) {
	nSolo := count(w.soloRate, soloShare, seconds)
	nLoaded := count(w.loadRate, loadedShare, seconds)
	var p *prepared
	var times []float64
	for begin := time.Now(); len(times) < minSetups || (len(times) < maxSetups && time.Since(begin) < setupBudget); {
		if p != nil {
			if err := p.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if p, err = prepare(w, sh, seed, fleetSpec{}, sh.warmup, nSolo, nLoaded); err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	defer p.close()
	sort.Float64s(times)

	resetPeakRSS()
	r := &result{Metrics: make(map[string]metric)}
	warm := runPhase(p.f, p.phases[0], p.wires[0], 1, time.Minute, nil)
	r.absorb(warm)
	var solo, loaded phaseResult
	if r.Failed == 0 {
		solo = runPhase(p.f, p.phases[1], p.wires[1], 1, limit(soloShare, seconds), nil)
		r.absorb(solo)
	}
	if r.Failed == 0 {
		loaded = runPhase(p.f, p.phases[2], p.wires[2], loadedWindow, limit(loadedShare, seconds), nil)
		r.absorb(loaded)
	}
	r.finish(p.f.tampered.Load(), warm.predicted+loaded.predicted+solo.predicted, p.f.eventDrops())
	r.set(endToEnd, "setup_s", times[len(times)/2])
	r.set(endToEnd, "peak_rss_mb", peakRSSMB())
	r.set(endToEnd, "solo_p50_ms", quantile(solo.latencies, 0.50))
	r.set(endToEnd, "itins_per_s", loaded.perSecond())
	r.set(endToEnd, "cpu_ms_per_itin", loaded.cpuMsPerItin())
	r.exact = map[string]int{
		"tampered": r.tampered,
		"detected": r.detected,
		"visits":   warm.visits + loaded.visits + solo.visits,
		"itins":    r.Attempted,
	}
	return r, nil
}

// perLayer are the metrics of single layers, by package name. Times
// from the traced fleet are means per itinerary; the ones after the
// blank line come from direct timed calls on the workload's inputs.
var perLayer = []spec{
	{Name: "core.intake_ms", Unit: "ms", Better: "lower"},
	{Name: "core.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "core.self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.solo_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "core.loaded_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.loaded_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "core.hops_per_itin", Unit: "count", Better: "lower"},
	{Name: "wholesig.check_ms", Unit: "ms", Better: "lower"},
	{Name: "wholesig.depart_ms", Unit: "ms", Better: "lower"},
	{Name: "refproto.check_ms", Unit: "ms", Better: "lower"},
	{Name: "refproto.depart_ms", Unit: "ms", Better: "lower"},
	{Name: "refproto.reexec_ms", Unit: "ms", Better: "lower"},
	{Name: "appraisal.check_ms", Unit: "ms", Better: "lower"},
	{Name: "policy.gossip_check_ms", Unit: "ms", Better: "lower"},
	{Name: "policy.gossip_depart_ms", Unit: "ms", Better: "lower"},
	{Name: "policy.ledger_hosts", Unit: "count", Better: "lower"},
	{Name: "host.session_ms", Unit: "ms", Better: "lower"},
	{Name: "agentlang.cycle_ms", Unit: "ms", Better: "lower"},
	{Name: "sigcrypto.signverify_ms", Unit: "ms", Better: "lower"},
	{Name: "protection.remainder_ms", Unit: "ms", Better: "lower"},
	{Name: "protection.plain_solo_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "protection.overhead_factor", Unit: "ratio", Better: "lower"},
	{Name: "transport.send_agent_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.call_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.calls_per_itin", Unit: "count", Better: "lower"},
	{Name: "transport.wire_kb_per_itin", Unit: "KiB", Better: "lower"},
	{Name: "shardstore.wal_appends_per_itin", Unit: "count", Better: "lower"},
	{Name: "shardstore.wal_syncs_per_itin", Unit: "count", Better: "lower"},
	{Name: "shardstore.wal_mean_batch", Unit: "count", Better: "higher"},
	{Name: "events.drops", Unit: "count", Better: "lower"},
	{Name: "oracle.detected_share", Unit: "ratio", Better: "higher"},
	{Name: "tracing.accounted_share", Unit: "ratio", Better: "higher"},
	{Name: "tracing.overhead_share", Unit: "ratio", Better: "lower"},

	{Name: "canon.hash_state_us", Unit: "us", Better: "lower"},
	{Name: "canon.hash_state_allocs", Unit: "count", Better: "lower"},
	{Name: "agent.marshal_us", Unit: "us", Better: "lower"},
	{Name: "agent.unmarshal_us", Unit: "us", Better: "lower"},
	{Name: "agent.wire_bytes", Unit: "B", Better: "lower"},
	{Name: "sigcrypto.sign_us", Unit: "us", Better: "lower"},
	{Name: "sigcrypto.verify_us", Unit: "us", Better: "lower"},
	{Name: "sigcrypto.verify_batch16_us_per_sig", Unit: "us", Better: "lower"},
	{Name: "host.run_session_ms", Unit: "ms", Better: "lower"},
	{Name: "shardstore.wal_append_sync_us", Unit: "us", Better: "lower"},
	{Name: "shardstore.wal_group_commit_us_per_append", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_call_us", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_send_agent_us", Unit: "us", Better: "lower"},
	{Name: "transport.inproc_send_agent_us", Unit: "us", Better: "lower"},
	{Name: "policy.ledger_observe_ns", Unit: "ns", Better: "lower"},
	{Name: "policy.ledger_suspicion_ns", Unit: "ns", Better: "lower"},
	{Name: "planner.plan_route_us", Unit: "us", Better: "lower"},
	{Name: "events.publish_ns", Unit: "ns", Better: "lower"},
}

// runTraced measures the per-layer metrics of one workload. It runs an
// untraced loaded phase for reference, then rebuilds the fleet with
// every decorator, hook and timer installed and runs a solo and a
// loaded phase on it, then a solo phase on an unprotected fleet, then
// the direct timed calls. The spans go to trace-<workload>.json.
func runTraced(w workload, sh shape, seed int64, seconds float64) (*result, error) {
	r := &result{Metrics: make(map[string]metric)}
	nRef := count(w.loadRate, tracedRefShare, seconds)
	nSolo := count(w.soloRate, tracedSoloShare, seconds)
	nLoaded := count(w.loadRate, tracedLoadedShare, seconds)
	nPlain := count(w.soloRate*2, tracedPlainShare, seconds)

	// The reference and the traced loaded phase run the same itineraries.
	nWarm := max(nRef/2, sh.warmup)
	ref, err := prepare(w, sh, seed, fleetSpec{}, nWarm, nRef)
	if err != nil {
		return nil, err
	}
	r.absorb(runPhase(ref.f, ref.phases[0], ref.wires[0], loadedWindow, time.Minute, nil))
	refLoaded := runPhase(ref.f, ref.phases[1], ref.wires[1], loadedWindow, limit(tracedRefShare, seconds), nil)
	r.absorb(refLoaded)
	if err := ref.close(); err != nil {
		return nil, err
	}

	tr := newTracer()
	p, err := prepare(w, sh, seed, fleetSpec{tr: tr}, nWarm, nRef, nSolo, nLoaded)
	if err != nil {
		return nil, err
	}
	defer p.close()
	warm := runPhase(p.f, p.phases[0], p.wires[0], loadedWindow, time.Minute, tr)
	r.absorb(warm)
	refTraced := runPhase(p.f, p.phases[1], p.wires[1], loadedWindow, limit(tracedRefShare, seconds), tr)
	r.absorb(refTraced)
	tr.take()
	sv0 := p.f.signVerify()
	appends0, _, _, err := p.f.walStats(context.Background())
	if err != nil {
		return nil, err
	}
	solo := runPhase(p.f, p.phases[2], p.wires[2], 1, limit(tracedSoloShare, seconds), tr)
	r.absorb(solo)
	signVerify := p.f.signVerify() - sv0
	appends1, _, _, err := p.f.walStats(context.Background())
	if err != nil {
		return nil, err
	}
	soloSpans, soloSums := analyze(tr.take(), 0)
	sample := p.f.stats.largest()
	loaded := runPhase(p.f, p.phases[3], p.wires[3], loadedWindow, limit(tracedLoadedShare, seconds), tr)
	r.absorb(loaded)
	loadedSpans, loadedSums := analyze(tr.take(), len(soloSpans))
	_, syncs, synced, err := p.f.walStats(context.Background())
	if err != nil {
		return nil, err
	}

	plain, err := prepare(w, sh, seed, fleetSpec{plain: true}, sh.warmup, nPlain)
	if err != nil {
		return nil, err
	}
	r.absorb(runPhase(plain.f, plain.phases[0], plain.wires[0], 1, time.Minute, nil))
	plainSolo := runPhase(plain.f, plain.phases[1], plain.wires[1], 1, limit(tracedPlainShare, seconds), nil)
	if err := plain.close(); err != nil {
		return nil, err
	}
	r.absorb(plainSolo)

	itins := float64(max(solo.attempted, 1))
	perItin := func(sums layerSums, name string) float64 {
		return float64(sums.byName[name]) / 1e6 / float64(max(sums.itins, 1))
	}
	all := warm.attempted + refTraced.attempted + solo.attempted + loaded.attempted
	r.finish(p.f.tampered.Load(), warm.predicted+refTraced.predicted+solo.predicted+loaded.predicted, p.f.eventDrops())

	r.set(perLayer, "core.intake_ms", perItin(soloSums, spanIntake))
	r.set(perLayer, "core.queue_wait_ms", perItin(loadedSums, spanQueueWait))
	r.set(perLayer, "core.self_ms", perItin(soloSums, "core.self"))
	r.set(perLayer, "core.solo_p90_ms", quantile(solo.latencies, 0.90))
	r.set(perLayer, "core.loaded_p50_ms", quantile(loaded.latencies, 0.50))
	r.set(perLayer, "core.loaded_p99_ms", quantile(loaded.latencies, 0.99))
	r.set(perLayer, "core.hops_per_itin", float64(soloSums.hops+loadedSums.hops)/float64(max(soloSums.itins+loadedSums.itins, 1)))
	r.set(perLayer, "wholesig.check_ms", perItin(soloSums, "wholesig.check")+perItin(soloSums, "wholesig.task"))
	r.set(perLayer, "wholesig.depart_ms", perItin(soloSums, "wholesig.depart"))
	r.set(perLayer, "refproto.check_ms", perItin(soloSums, "refproto.check")+perItin(soloSums, "refproto.task"))
	r.set(perLayer, "refproto.depart_ms", perItin(soloSums, "refproto.depart"))
	r.set(perLayer, "refproto.reexec_ms", perItin(soloSums, spanReexec))
	r.set(perLayer, "appraisal.check_ms", perItin(soloSums, "appraisal.check")+perItin(soloSums, "appraisal.task"))
	r.set(perLayer, "policy.gossip_check_ms", perItin(soloSums, "policy.gossip.check")+perItin(soloSums, "policy.gossip.task"))
	r.set(perLayer, "policy.gossip_depart_ms", perItin(soloSums, "policy.gossip.depart"))
	r.set(perLayer, "policy.ledger_hosts", p.f.ledgerHosts())
	r.set(perLayer, "host.session_ms", perItin(soloSums, spanHostSess))
	r.set(perLayer, "agentlang.cycle_ms", perItin(soloSums, spanCycle))
	r.set(perLayer, "sigcrypto.signverify_ms", float64(signVerify)/1e6/itins)
	r.set(perLayer, "protection.remainder_ms", mean(solo.latencies)-float64(signVerify)/1e6/itins-perItin(soloSums, spanCycle))
	r.set(perLayer, "protection.plain_solo_p50_ms", quantile(plainSolo.latencies, 0.50))
	r.set(perLayer, "protection.overhead_factor", quantile(solo.latencies, 0.50)/max(quantile(plainSolo.latencies, 0.50), 1e-9))
	r.set(perLayer, "transport.send_agent_ms", perItin(soloSums, spanSend))
	r.set(perLayer, "transport.call_ms", perItin(soloSums, spanCall))
	r.set(perLayer, "transport.calls_per_itin", float64(p.f.stats.calls.Load())/float64(all))
	r.set(perLayer, "transport.wire_kb_per_itin", float64(p.f.stats.bytes.Load())/1024/float64(all))
	r.set(perLayer, "shardstore.wal_appends_per_itin", float64(appends1-appends0)/itins)
	r.set(perLayer, "shardstore.wal_syncs_per_itin", float64(syncs)/float64(all))
	r.set(perLayer, "shardstore.wal_mean_batch", float64(synced)/float64(max(syncs, 1)))
	r.set(perLayer, "events.drops", float64(p.f.eventDrops()))
	r.set(perLayer, "oracle.detected_share", float64(r.detected)/float64(max(r.tampered, 1)))
	r.set(perLayer, "tracing.accounted_share", float64(soloSums.accounted)/float64(max(soloSums.latency, 1)))
	r.set(perLayer, "tracing.overhead_share", 1-refTraced.perSecond()/refLoaded.perSecond())
	r.exact = map[string]int{
		"tampered": solo.tampered + loaded.tampered,
		"detected": solo.detected + loaded.detected,
		"visits":   solo.visits + loaded.visits,
		"hops":     soloSums.hops + loadedSums.hops,
		"itins":    solo.attempted + loaded.attempted,
		"appends":  int(appends1 - appends0),
	}

	if err := writeTrace(filepath.Join(stateRoot, "trace"), w.name, append(soloSpans, loadedSpans...)); err != nil {
		return nil, err
	}
	if err := p.close(); err != nil {
		return nil, err
	}
	budget := time.Duration(seconds * tracedMicroShare * float64(time.Second))
	if err := runMicro(r, w, sample, budget); err != nil {
		return nil, err
	}
	return r, nil
}
