package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// Every itinerary leaves a home, visits 3 distinct workers and returns.
// The loaded phase keeps 16 in flight; the solo phase, 1.
const (
	routeHops    = 3
	loadedWindow = 16
)

// shape sizes a fleet and the warm-up that precedes its first measured
// phase. The benchmark runs fullShape; the smoke test shrinks it, with
// the malicious share kept.
type shape struct {
	homes   int
	workers int
	warmup  int
}

var fullShape = shape{homes: 4, workers: 44, warmup: 20}

// workload is one set of inputs. Each differs from light in the one
// respect its why names. The rates are what the parent commit sustains
// on a 2-core box, solo and loaded, in itineraries per second: a phase
// launches rate x its share of --seconds itineraries, so a run lasts
// about --seconds there, and one seed always means the same itineraries
// and so the same detections.
type workload struct {
	name      string
	why       string
	cycles    int  // 1000-value summation cycles per session
	inputs    int  // ten-byte elements read from the host feed per session
	malicious int  // tampering workers among fullShape's 44
	tcp       bool // loopback TCP instead of InProc
	durable   bool // WAL-backed node and stack state
	soloRate  float64
	loadRate  float64
}

var workloads = []workload{
	{
		name: "light", cycles: 1, inputs: 1, malicious: 3,
		why:      "1 input, 1 cycle, InProc, memory-only, 3 of 44 workers malicious: per-hop fixed costs (signatures, verdict codec) dominate",
		soloRate: 140, loadRate: 270,
	},
	{
		name: "compute", cycles: 50, inputs: 1, malicious: 3,
		why:      "50 cycles per session: interpreter time in host sessions dominates, signatures and codecs are a small share",
		soloRate: 16, loadRate: 30,
	},
	{
		name: "bulk-tcp-durable", cycles: 1, inputs: 100, malicious: 3, tcp: true, durable: true,
		why:      "100 ten-byte inputs per session, loopback TCP, WAL-backed state: codecs, reference data, framing and fsync work hardest",
		soloRate: 62, loadRate: 87,
	},
	{
		name: "hostile", cycles: 1, inputs: 1, malicious: 20,
		why:      "20 of 44 workers malicious, about 4 in 5 itineraries quarantined: ledger writes, gossip growth, failed-verdict signing",
		soloRate: 120, loadRate: 200,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// maliciousSpread marks m of n workers malicious, spread evenly.
func maliciousSpread(n, m int) []bool {
	set := make([]bool, n)
	for i := 0; i < m; i++ {
		set[i*n/m] = true
	}
	return set
}

// itinerary is one journey and the outcome ground truth says it has.
type itinerary struct {
	id    string
	home  string
	route []string
	// tamperer is the first malicious worker on the route, "" if none.
	// The hop after it must detect the manipulation and quarantine the
	// agent, blaming that worker; with none, the agent must complete at
	// home having counted total == hops == 5.
	tamperer string
	terminal string // node whose receipt is the terminal one
	visits   int    // nodes that process the agent
}

// planItineraries draws n itineraries from the seed: round-robin
// homes, routes of distinct workers on which a malicious worker never
// directly follows another (two adjacent cheaters are the example
// mechanism's documented collusion blind spot, a different scenario).
func planItineraries(seed int64, tag string, n, homes int, malicious []bool) []itinerary {
	rng := rand.New(rand.NewSource(seed))
	out := make([]itinerary, n)
	for i := range out {
		it := itinerary{
			id:   fmt.Sprintf("s%d-%s-%06d", seed, tag, i),
			home: homeName(i % homes),
		}
		used := make(map[int]bool, routeHops)
		prevBad := false
		for len(it.route) < routeHops {
			w := rng.Intn(len(malicious))
			if used[w] || (prevBad && malicious[w]) {
				continue
			}
			used[w] = true
			prevBad = malicious[w]
			it.route = append(it.route, workerName(w))
			if malicious[w] && it.tamperer == "" {
				it.tamperer = workerName(w)
				it.visits = len(it.route) + 2 // home, the workers so far, the detecting node
			}
		}
		switch {
		case it.tamperer == "":
			it.terminal, it.visits = it.home, routeHops+2
		case it.visits-1 <= routeHops:
			it.terminal = it.route[it.visits-2]
		default:
			it.terminal = it.home
		}
		out[i] = it
	}
	return out
}

// check compares an observed outcome with the itinerary's ground
// truth and returns what is wrong, "" if nothing.
func (it *itinerary) check(o outcome) string {
	if o.err != "" {
		return "failed: " + o.err
	}
	if it.tamperer == "" {
		switch {
		case !o.completed:
			return "honest itinerary did not complete"
		case len(o.blamed) > 0:
			return fmt.Sprintf("honest itinerary blamed %v", o.blamed)
		case o.total != routeHops+2 || o.hops != routeHops+2:
			return fmt.Sprintf("completed with total=%d hops=%d, want %d", o.total, o.hops, routeHops+2)
		}
		return ""
	}
	switch {
	case !o.detected:
		return "tampered itinerary was not stopped"
	case len(o.blamed) != 1 || o.blamed[0] != it.tamperer:
		return fmt.Sprintf("blamed %v, want [%s]", o.blamed, it.tamperer)
	case o.visits != it.visits:
		return fmt.Sprintf("stopped after %d nodes, want %d", o.visits, it.visits)
	}
	return ""
}

// agentCode is the itinerary's program: run the work at home, at each
// route worker in order, and at home again. The summation cycle and
// the input collection live in work() so the session hook can time it.
func agentCode(it *itinerary, cycles, inputs int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "proc main() {\n    work()\n    migrate(%q, \"step\")\n}\n", it.route[0])
	b.WriteString("proc step() {\n    work()\n    let at = here()\n")
	for i := 0; i < len(it.route)-1; i++ {
		fmt.Fprintf(&b, "    if at == %q { migrate(%q, \"step\") }\n", it.route[i], it.route[i+1])
	}
	fmt.Fprintf(&b, "    if at == %q { migrate(%q, \"fin\") }\n", it.route[len(it.route)-1], it.home)
	b.WriteString("    done()\n}\nproc fin() {\n    work()\n    done()\n}\n")
	fmt.Fprintf(&b, `proc work() {
    total = total + 1
    hops = hops + 1
    let i = 0
    while i < %d {
        got = append(got, read("elem"))
        i = i + 1
    }
    let c = 0
    while c < %d {
        let s = 0
        let j = 0
        while j < 1000 {
            s = s + j
            j = j + 1
        }
        sum = s
        c = c + 1
    }
}`, inputs, cycles)
	return b.String()
}
