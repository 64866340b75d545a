package fleet

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/agent"
	"repro/internal/appraisal"
	"repro/internal/attack"
	"repro/internal/host"
	"repro/internal/value"
)

// The harnesses' shared workload: an agent that walks a route doing the
// paper's summation cycles while advancing two audited counters, the
// owner's signed rule binding them, and the malicious host that breaks
// the rule.

// AuditRules is the owner's invariant: every session adds exactly one
// to the audited total, in lockstep with the hop counter. Tamperer
// breaks it in a way only the used inputs could justify — the class of
// attack appraisal rules are for.
var AuditRules = appraisal.RuleSet{appraisal.MustRule("total-tracks-hops", "total == hops")}

// SessionKey identifies one executed session fleet-wide.
func SessionKey(agentID string, hop int) string {
	return agentID + "#" + strconv.Itoa(hop)
}

// Tamperer is the malicious host behaviour: it adds 1000 to the audited
// total after every session — a manipulation-of-data attack (Fig. 2
// area 5) — and reports each session it did that to, so a harness can
// check detections against ground truth.
type Tamperer struct {
	attack.Honest
	// OnSession receives every tampered session; may be nil.
	OnSession func(agentID string, hop int)
}

// TamperState implements host.Behavior.
func (t Tamperer) TamperState(st value.State) {
	st["total"] = value.Int(st["total"].Int + 1000)
}

// TamperRecord implements host.Behavior.
func (t Tamperer) TamperRecord(rec *host.SessionRecord) {
	if t.OnSession != nil {
		t.OnSession(rec.AgentID, rec.Hop)
	}
}

// RouteCode generates one itinerary's program: home, then every route
// host in order, then back home to finish. Each session runs cycles
// 1000-value summation cycles (the paper's workload) and advances the
// audited counters. Route hosts must be distinct: the `if at ==`
// dispatch keys on the current host.
func RouteCode(home string, route []string, cycles int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "proc main() {\n    work()\n    migrate(%q, \"step\")\n}\n", route[0])
	b.WriteString("proc step() {\n    work()\n    let at = here()\n")
	for i := 0; i < len(route)-1; i++ {
		fmt.Fprintf(&b, "    if at == %q { migrate(%q, \"step\") }\n", route[i], route[i+1])
	}
	fmt.Fprintf(&b, "    if at == %q { migrate(%q, \"fin\") }\n", route[len(route)-1], home)
	b.WriteString("    done()\n}\n")
	b.WriteString("proc fin() {\n    work()\n    done()\n}\n")
	fmt.Fprintf(&b, `proc work() {
    total = total + 1
    hops = hops + 1
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
}`, cycles)
	return b.String()
}

// AuditedAgent builds the wire image of one agent of the fleet's owner:
// the program (entry "main"), the counters it works on, the
// owner-signed AuditRules.
func (f *Fleet) AuditedAgent(id, code string) ([]byte, error) {
	ag, err := agent.New(id, f.Owner.ID(), code, "main")
	if err != nil {
		return nil, err
	}
	ag.SetVar("total", value.Int(0))
	ag.SetVar("hops", value.Int(0))
	ag.SetVar("sum", value.Int(0))
	if err := appraisal.Attach(ag, AuditRules, f.Owner); err != nil {
		return nil, err
	}
	return ag.Marshal()
}
