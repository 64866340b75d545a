package protection

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/agent"
	"repro/internal/appraisal"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/sigcrypto"
	"repro/internal/stopwatch"
)

// hopBed drives agents through assembled stacks the way a node calls
// them — arrival checks in stack order, the session, departures in
// reverse order, the wire between hosts — without a node, so a hop's
// sign&verify spans can be counted on the stacks' shared timer. Every
// mechanism that signs or verifies a hop times each signature or
// verification as one span; gossip extracts, owner rules and verdicts
// are signed outside the timer.
type hopBed struct {
	tb    testing.TB
	timer *stopwatch.PhaseTimer
	owner *sigcrypto.KeyPair
	nodes map[string]hopNode
}

type hopNode struct {
	hc    *core.HostContext
	mechs []core.Mechanism
}

// hopCode migrates h0 → h1 → h2.
const hopCode = `
proc main() { x = 1
    migrate("h1", "step") }
proc step() { x = x + 1
    migrate("h2", "fin") }
proc fin() { done() }`

// newHopBed assembles level on hosts h0, h1 and h2; the named ones are
// trusted.
func newHopBed(tb testing.TB, level Level, trusted ...string) *hopBed {
	tb.Helper()
	reg := sigcrypto.NewRegistry()
	keys := func(name string) *sigcrypto.KeyPair {
		kp, err := sigcrypto.GenerateKeyPair(name)
		if err != nil {
			tb.Fatal(err)
		}
		if err := reg.RegisterKeyPair(kp); err != nil {
			tb.Fatal(err)
		}
		return kp
	}
	bed := &hopBed{tb: tb, timer: &stopwatch.PhaseTimer{}, owner: keys("owner"), nodes: map[string]hopNode{}}
	for _, name := range []string{"h0", "h1", "h2"} {
		st, err := Assemble(level, Options{Timer: bed.timer})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { _ = st.Close() })
		// Hosts record traces where a mechanism asks for them, as
		// internal/fleet sets them up.
		traces := slices.ContainsFunc(st.Mechanisms, func(m core.Mechanism) bool {
			_, ok := m.(core.ExecutionLogRequester)
			return ok
		})
		h, err := host.New(host.Config{
			Name: name, Keys: keys(name), Registry: reg,
			Trusted: slices.Contains(trusted, name), RecordTrace: traces,
		})
		if err != nil {
			tb.Fatal(err)
		}
		bed.nodes[name] = hopNode{hc: &core.HostContext{Host: h}, mechs: st.Mechanisms}
	}
	return bed
}

// launch builds the agent at h0 with the owner's rules attached and
// runs its first session.
func (bed *hopBed) launch() (*agent.Agent, *host.SessionRecord) {
	ag, err := agent.New("hop-agent", "owner", hopCode, "main")
	if err != nil {
		bed.tb.Fatal(err)
	}
	rules := appraisal.RuleSet{appraisal.MustRule("x-counts-sessions", "x >= 1")}
	if err := appraisal.Attach(ag, rules, bed.owner); err != nil {
		bed.tb.Fatal(err)
	}
	return ag, bed.run("h0", ag)
}

// run executes name's session.
func (bed *hopBed) run(name string, ag *agent.Agent) *host.SessionRecord {
	rec, err := bed.nodes[name].hc.Host.RunSession(context.Background(), ag, host.SessionOptions{})
	if err != nil {
		bed.tb.Fatal(err)
	}
	return rec
}

// depart runs name's departures in reverse stack order and returns the
// agent's wire bytes.
func (bed *hopBed) depart(name string, ag *agent.Agent, rec *host.SessionRecord) []byte {
	n := bed.nodes[name]
	for i := len(n.mechs) - 1; i >= 0; i-- {
		if err := n.mechs[i].PrepareDeparture(context.Background(), n.hc, ag, rec); err != nil {
			bed.tb.Fatal(err)
		}
	}
	wire, err := ag.Marshal()
	if err != nil {
		bed.tb.Fatal(err)
	}
	return wire
}

// arrive delivers wire to name and runs its arrival checks in stack
// order; every verdict they return must be OK.
func (bed *hopBed) arrive(name string, wire []byte) (*agent.Agent, []*core.Verdict) {
	ag, err := agent.Unmarshal(wire)
	if err != nil {
		bed.tb.Fatal(err)
	}
	n := bed.nodes[name]
	var vs []*core.Verdict
	for _, m := range n.mechs {
		v, err := m.CheckAfterSession(context.Background(), n.hc, ag)
		if err != nil {
			bed.tb.Fatal(err)
		}
		if v != nil {
			if !v.OK {
				bed.tb.Fatalf("%s: failed verdict %s", name, v)
			}
			vs = append(vs, v)
		}
	}
	return ag, vs
}

// endStay ends ag's stay at name, as a node does when the journey ends
// there.
func (bed *hopBed) endStay(name string, ag *agent.Agent) {
	n := bed.nodes[name]
	for _, m := range n.mechs {
		if e, ok := m.(core.StayEnder); ok {
			e.EndStay(n.hc, ag)
		}
	}
}

func (bed *hopBed) spans() int { return bed.timer.Count(stopwatch.PhaseSignVerify) }

// signedLevels are the levels that sign each hop: with refproto's seal
// alone at the first three, and beside its checker at the last two.
var signedLevels = []Level{LevelSigned, LevelRules, LevelTraces, LevelFull, LevelAdaptive}

// checked reports whether refproto's checker runs at level.
func checked(level Level) bool { return level == LevelFull || level == LevelAdaptive }

// TestSignaturesPerHop pins the hop signature's count over every
// assembled stack that signs: one signature per departure, and on
// arrival one verification of it plus, where the checker runs, one of
// the producer's for an untrusted session that did not launch the
// agent. Where the seal stands alone an honest arrival reports no
// verdict.
func TestSignaturesPerHop(t *testing.T) {
	for _, tc := range []struct {
		name     string
		trusted  []string // hosts the registry trusts
		relayed  bool     // the checked session is h1's, which h0's produced
		verifies int      // where the checker runs
		reason   string   // substring of the checker's verdict on the session
	}{
		{"origin", nil, false, 1, ""},
		{"relayed", nil, true, 2, ""},
		{"trusted", []string{"h1"}, true, 1, "trusted"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, level := range signedLevels {
				t.Run(level.String(), func(t *testing.T) {
					bed := newHopBed(t, level, tc.trusted...)
					ag, rec := bed.launch()
					from, to := "h0", "h1"
					if tc.relayed {
						ag, _ = bed.arrive("h1", bed.depart("h0", ag, rec))
						rec = bed.run("h1", ag)
						from, to = "h1", "h2"
					}
					n := bed.spans()
					wire := bed.depart(from, ag, rec)
					if signs := bed.spans() - n; signs != 1 {
						t.Errorf("departure: %d sign&verify spans, want 1 signature", signs)
					}
					want := 1
					if checked(level) {
						want = tc.verifies
					}
					n = bed.spans()
					_, vs := bed.arrive(to, wire)
					if verifies := bed.spans() - n; verifies != want {
						t.Errorf("arrival: %d sign&verify spans, want %d verifications", verifies, want)
					}
					var refproto []*core.Verdict
					for _, v := range vs {
						if v.Mechanism == "refproto" {
							refproto = append(refproto, v)
						}
					}
					switch {
					case !checked(level) && len(refproto) != 0:
						t.Errorf("the seal alone reported verdicts on an honest arrival: %v", refproto)
					case checked(level) && (len(refproto) != 1 || !strings.Contains(refproto[0].Reason, tc.reason)):
						t.Errorf("no refproto verdict on %s's session reading %q: %v", from, tc.reason, vs)
					}
				})
			}
		})
	}
}

// BenchmarkAssembledHop measures one departure plus one relayed arrival
// through each assembled stack that signs, the wire between them
// included: h1 departs with the session h0's produced, and h2 checks
// it. h1's own arrival and session, and the end of h2's stay, run
// outside the timer. signs/op and verifies/op count the hop signature's
// operations.
func BenchmarkAssembledHop(b *testing.B) {
	for _, level := range signedLevels {
		b.Run(level.String(), func(b *testing.B) { benchmarkHop(b, level) })
	}
}

func benchmarkHop(b *testing.B, level Level) {
	bed := newHopBed(b, level)
	ag, rec := bed.launch()
	launched := bed.depart("h0", ag, rec)
	var signs, verifies int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ag, _ := bed.arrive("h1", launched)
		rec := bed.run("h1", ag)
		n := bed.spans()
		b.StartTimer()
		wire := bed.depart("h1", ag, rec)
		m := bed.spans()
		arrived, _ := bed.arrive("h2", wire)
		b.StopTimer()
		signs, verifies = signs+m-n, verifies+bed.spans()-m
		bed.endStay("h2", arrived)
		b.StartTimer()
	}
	b.ReportMetric(float64(signs)/float64(b.N), "signs/op")
	b.ReportMetric(float64(verifies)/float64(b.N), "verifies/op")
}
