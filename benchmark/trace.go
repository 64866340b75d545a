package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. Recorded spans come from the decorators in decorate.go
// and from the driver; derived spans are computed by analyze from the
// recorded ones (a node offers no callback at those boundaries).
const (
	spanItinerary = "itinerary"            // driver: launch -> terminal receipt
	spanSend      = "transport.send_agent" // decorated Network.SendAgent, and the driver's launch
	spanCall      = "transport.call"       // decorated Network.Call
	spanIntake    = "core.intake"          // decorated Endpoint.HandleAgent
	spanSession   = "agentlang.session"    // SessionOptions.ExtraHook, entry proc enter -> exit
	spanCycle     = "agentlang.cycle"      // SessionOptions.ExtraHook, proc work enter -> exit
	spanReexec    = "refproto.reexec"      // protection.Options.ExecHook, entry proc enter -> exit
	spanHop       = "core.hop"             // derived: first mechanism call at a node -> its send end (or the receipt)
	spanQueueWait = "core.queue_wait"      // derived: intake end -> first mechanism call
	spanHostSess  = "host.session"         // derived: last arrival check end -> first departure/task call
)

// span is one timed interval. Times are nanoseconds since the tracer's
// epoch. Parent is the ID of the span that caused it, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Itin   string `json:"itin"`
	Node   string `json:"node"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. One mutex suffices:
// a span is appended a few dozen times per itinerary, against
// milliseconds of work.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span

	// solo names the one itinerary in flight during the solo phase,
	// for hooks that are told a procedure name and nothing else. Empty
	// during loaded phases, where hooks record nothing: a node's two
	// workers would interleave their enter/exit events.
	solo atomic.Pointer[string]
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(name, itin, node string, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Itin: itin, Node: node, Start: start, End: end})
	t.mu.Unlock()
}

func (t *tracer) setSolo(itin string) {
	if itin == "" {
		t.solo.Store(nil)
		return
	}
	t.solo.Store(&itin)
}

func (t *tracer) soloItin() string {
	if p := t.solo.Load(); p != nil {
		return *p
	}
	return ""
}

// take returns the spans recorded since the last take.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// layerSums is what one phase's spans add up to, in nanoseconds unless
// named otherwise, over all its itineraries.
type layerSums struct {
	itins     int
	latency   int64
	accounted int64 // union of launch send, queue waits and hops, clipped to each itinerary
	byName    map[string]int64
	hops      int
}

// analyze links the recorded spans of each itinerary into a tree,
// derives the hop, queue-wait and session spans, and returns the
// completed span list with the per-name sums. A layer's self time is
// its span minus what its children cover: core.self is the hop minus
// mechanisms, session and send; transport.send_agent's own time is the
// send minus the intake it waited for. Span IDs start after idBase.
func analyze(recorded []span, idBase int) ([]span, layerSums) {
	byItin := make(map[string][]int)
	for i := range recorded {
		byItin[recorded[i].Itin] = append(byItin[recorded[i].Itin], i)
	}
	out := make([]span, 0, len(recorded)*5/4)
	sums := layerSums{byName: make(map[string]int64)}
	emit := func(s span, parent int) int {
		s.ID = idBase + len(out) + 1
		s.Parent = parent
		out = append(out, s)
		return s.ID
	}
	itins := make([]string, 0, len(byItin))
	for id := range byItin {
		itins = append(itins, id)
	}
	sort.Strings(itins)
	for _, itin := range itins {
		idx := byItin[itin]
		sort.SliceStable(idx, func(a, b int) bool { return recorded[idx[a]].Start < recorded[idx[b]].Start })
		var root *span
		for _, i := range idx {
			if recorded[i].Name == spanItinerary {
				root = &recorded[i]
			}
		}
		if root == nil {
			continue // spans that name no itinerary of this phase
		}
		rootID := emit(*root, 0)
		sums.itins++
		sums.latency += root.dur()

		// Group by node, in order of first appearance: an itinerary
		// visits a node once, except home, which it leaves and returns
		// to; the return is a separate visit.
		type visit struct {
			node   string
			intake *span
			mechs  []*span
			hooks  []*span
			send   *span
			calls  []*span
		}
		var visits []*visit
		current := make(map[string]*visit)
		var launch *span
		for _, i := range idx {
			s := &recorded[i]
			switch s.Name {
			case spanItinerary:
			case spanIntake:
				v := &visit{node: s.Node, intake: s}
				visits = append(visits, v)
				current[s.Node] = v
			case spanSend:
				if s.Node == ownerNode {
					launch = s
				} else if v := current[s.Node]; v != nil {
					v.send = s
				}
			case spanCall:
				if v := current[s.Node]; v != nil {
					v.calls = append(v.calls, s)
				}
			case spanSession, spanCycle, spanReexec:
				if v := current[s.Node]; v != nil {
					v.hooks = append(v.hooks, s)
				}
			default:
				if v := current[s.Node]; v != nil {
					v.mechs = append(v.mechs, s)
				}
			}
		}

		var cover [][2]int64
		sendID := rootID
		if launch != nil {
			sendID = emit(*launch, rootID)
			cover = append(cover, [2]int64{launch.Start, launch.End})
		}
		for vi, v := range visits {
			emit(*v.intake, sendID)
			sums.byName[spanIntake] += v.intake.dur()
			// The send that delivered this intake waited for it; the rest
			// of the send is the transport's own time.
			if vi == 0 && launch != nil {
				sums.byName[spanSend] += launch.dur() - v.intake.dur()
			} else if vi > 0 && visits[vi-1].send != nil {
				sums.byName[spanSend] += visits[vi-1].send.dur() - v.intake.dur()
			}
			if len(v.mechs) == 0 {
				continue
			}
			sums.hops++
			hop := span{Name: spanHop, Itin: itin, Node: v.node, Start: v.mechs[0].Start, End: root.End}
			if v.send != nil {
				hop.End = v.send.End
			}
			// A worker can pick the delivery up before HandleAgent has
			// returned to the decorator; the wait is then zero.
			qw := span{Name: spanQueueWait, Itin: itin, Node: v.node, Start: min(v.intake.End, hop.Start), End: hop.Start}
			emit(qw, rootID)
			sums.byName[spanQueueWait] += qw.dur()
			hopID := emit(hop, rootID)
			cover = append(cover, [2]int64{qw.Start, qw.End}, [2]int64{hop.Start, hop.End})

			children := int64(0)
			var lastCheck, firstAfter *span
			for _, m := range v.mechs {
				emit(*m, hopID)
				sums.byName[m.Name] += m.dur()
				children += m.dur()
				if strings.HasSuffix(m.Name, ".check") {
					lastCheck = m
				} else if firstAfter == nil {
					firstAfter = m
				}
			}
			sessID := hopID
			if lastCheck != nil && firstAfter != nil {
				sess := span{Name: spanHostSess, Itin: itin, Node: v.node, Start: lastCheck.End, End: firstAfter.Start}
				sessID = emit(sess, hopID)
				sums.byName[spanHostSess] += sess.dur()
				children += sess.dur()
			}
			for _, h := range v.hooks {
				parent := sessID
				if h.Name == spanReexec {
					parent = hopID
				}
				emit(*h, parent)
				sums.byName[h.Name] += h.dur()
			}
			for _, c := range v.calls {
				emit(*c, hopID)
				sums.byName[spanCall] += c.dur()
			}
			if v.send != nil {
				sendID = emit(*v.send, hopID)
				children += v.send.dur()
			}
			sums.byName["core.self"] += hop.dur() - children
		}
		sums.accounted += unionWithin(cover, root.Start, root.End)
	}
	return out, sums
}

// unionWithin measures the union of the intervals, clipped to [lo, hi].
func unionWithin(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	end := lo
	for _, x := range iv {
		s, e := max(x[0], end), min(x[1], hi)
		if e > s {
			total += e - s
			end = e
		}
	}
	return total
}

// writeTrace writes the completed spans of one workload as JSON.
func writeTrace(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
