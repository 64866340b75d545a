// Package appraisal implements the "state appraisal" mechanism of
// Farmer, Guttman and Swarup as analysed by the paper (§3.1): the
// receiving host "checks the validity of the state of an agent as the
// first step of executing an agent arrived at a host", using "a set of
// conditions that have to be fulfilled", "formulated by the programmer
// who stated relations between certain elements of the state".
//
// Its place in the framework's attribute space: moment = after every
// session (on arrival), reference data = only the arrived (resulting)
// state, algorithm = rules (non-Turing-complete first-order
// conditions). The rule engine (RuleSet) belongs to this mechanism and
// reads the arrived state directly; core has no checker interface to
// plug it into elsewhere. Because neither the input nor the initial
// state is available, the mechanism detects only attacks that leave the
// state rule-inconsistent: "the host may modify the execution and/or
// the prices at its will without being detected as it is impossible to
// find an inconsistency in the resulting state without the used
// prices" — a limitation the detection-matrix tests pin down.
//
// Rules travel with the agent, signed by the owner at launch, so a
// malicious host can neither weaken nor strip them unnoticed.
package appraisal

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/agent"
	"repro/internal/agentlang"
	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/sigcrypto"
	"repro/internal/value"
)

// MechanismName is the baggage key and verdict label.
const MechanismName = "appraisal"

// Rule is one named condition over agent state.
type Rule struct {
	Name string
	expr *agentlang.Expr
}

// NewRule compiles a rule from an expression source like
// "moneySpent + moneyRest == moneyInitial".
func NewRule(name, src string) (Rule, error) {
	e, err := agentlang.ParseExpression(src)
	if err != nil {
		return Rule{}, fmt.Errorf("appraisal: rule %q: %w", name, err)
	}
	return Rule{Name: name, expr: e}, nil
}

// MustRule panics on compile errors; for static rule tables.
func MustRule(name, src string) Rule {
	r, err := NewRule(name, src)
	if err != nil {
		panic(err)
	}
	return r
}

// Source returns the rule's expression text.
func (r Rule) Source() string { return r.expr.Source() }

// Holds evaluates the rule against a state.
func (r Rule) Holds(st value.State) (bool, error) {
	return r.expr.EvalBool(st)
}

// RuleSet is an ordered set of rules: the "rules" checking algorithm.
type RuleSet []Rule

// evaluate applies all rules to a state directly.
func (rs RuleSet) evaluate(st value.State) (bool, []string, error) {
	var violations []string
	for _, r := range rs {
		holds, err := r.Holds(st)
		if err != nil {
			violations = append(violations, fmt.Sprintf("rule %q not evaluable: %v", r.Name, err))
			continue
		}
		if !holds {
			violations = append(violations, fmt.Sprintf("rule %q violated: %s", r.Name, r.Source()))
		}
	}
	return len(violations) == 0, violations, nil
}

// wireRules is the signed baggage carrying rule sources.
type wireRules struct {
	Names   []string
	Sources []string
	Sig     sigcrypto.Signature
}

// Rule baggage wire layout (canon.Tuple framing), every field bounded
// and the whole checked before anything is parsed:
//
//	rules := Tuple(rulesWireLabel, sigSigner, sigBytes,
//	               name, source, name, source, ...)
const (
	rulesWireLabel    = "appraisal-rules-wire"
	maxRulesWireBytes = 1 << 20
	maxRules          = 256
	maxRuleSourceLen  = 64 << 10
)

// encodeRules renders w, refusing what decodeRules would reject.
func encodeRules(w *wireRules) ([]byte, error) {
	if len(w.Names) != len(w.Sources) || len(w.Names) > maxRules {
		return nil, fmt.Errorf("appraisal: rule set over bound: %w", canon.ErrMalformed)
	}
	fields, err := w.Sig.AppendWire(make([][]byte, 0, 2+2*len(w.Names)))
	if err != nil {
		return nil, fmt.Errorf("appraisal: %w", err)
	}
	for i := range w.Names {
		if len(w.Names[i]) > canon.MaxNameLen || len(w.Sources[i]) > maxRuleSourceLen {
			return nil, fmt.Errorf("appraisal: rule %q over bound: %w", w.Names[i], canon.ErrMalformed)
		}
		fields = append(fields, []byte(w.Names[i]), []byte(w.Sources[i]))
	}
	out, err := canon.List(rulesWireLabel, maxRulesWireBytes, 2+2*maxRules, fields)
	if err != nil {
		return nil, fmt.Errorf("appraisal: rule set: %w", err)
	}
	return out, nil
}

// decodeRules parses rule baggage; every rejection wraps
// canon.ErrMalformed.
func decodeRules(data []byte) (wireRules, error) {
	var w wireRules
	s, err := canon.ScanList(data, rulesWireLabel, maxRulesWireBytes, 2+2*maxRules)
	if err != nil {
		return w, err
	}
	if s.Len() < 2 || s.Len()%2 != 0 {
		return w, fmt.Errorf("%w: rule set has %d fields", canon.ErrMalformed, s.Len())
	}
	sigcrypto.ScanSignature(&s, &w.Sig)
	if n := s.Len() / 2; n > 0 {
		w.Names, w.Sources = make([]string, 0, n), make([]string, 0, n)
	}
	for s.Len() > 0 {
		w.Names = append(w.Names, string(s.Field(canon.MaxNameLen)))
		w.Sources = append(w.Sources, string(s.Field(maxRuleSourceLen)))
	}
	if err := s.End(); err != nil {
		return wireRules{}, err
	}
	return w, nil
}

func rulesDigest(agentID string, names, sources []string) canon.Digest {
	fields := [][]byte{[]byte("appraisal-rules"), []byte(agentID)}
	for i := range names {
		fields = append(fields, []byte(names[i]), []byte(sources[i]))
	}
	return canon.HashTuple(fields...)
}

// Attach signs the rule set with the owner's key and stores it in the
// agent's baggage. Call once at launch, before the first session.
func Attach(ag *agent.Agent, rules RuleSet, owner *sigcrypto.KeyPair) error {
	w := wireRules{}
	for _, r := range rules {
		w.Names = append(w.Names, r.Name)
		w.Sources = append(w.Sources, r.Source())
	}
	w.Sig = owner.SignDigest(rulesDigest(ag.ID, w.Names, w.Sources))
	enc, err := encodeRules(&w)
	if err != nil {
		return err
	}
	ag.SetBaggage(MechanismName, enc)
	return nil
}

// Mechanism evaluates the agent's signed rules on every arrival and on
// task end.
type Mechanism struct {
	core.BaseMechanism
	mu sync.Mutex
	// stays holds, by agent ID, the rule set verified on the agent's
	// arrival, so the terminal host's task-end appraisal evaluates it
	// again rather than verifying and parsing it twice. An entry lives
	// from arrival to the end of the stay: PrepareDeparture or EndStay.
	stays map[string]stayRules
	// verified counts the rule sets whose signature was checked.
	verified atomic.Int64
}

// stayRules is what loadRules made of one agent's exact rule baggage.
type stayRules struct {
	owner      string
	baggage    []byte
	rules      RuleSet
	violations []string // why the baggage is refused, if it is
}

var (
	_ core.Mechanism               = (*Mechanism)(nil)
	_ core.ResultingStateRequester = (*Mechanism)(nil)
	_ core.StayEnder               = (*Mechanism)(nil)
)

// New returns the mechanism.
func New() *Mechanism { return &Mechanism{stays: make(map[string]stayRules)} }

// Name implements core.Mechanism.
func (m *Mechanism) Name() string { return MechanismName }

// RequestsResultingState declares the only reference data appraisal
// uses: the state as it arrived (Fig. 4).
func (m *Mechanism) RequestsResultingState() {}

// CheckAfterSession appraises the arrived state.
func (m *Mechanism) CheckAfterSession(_ context.Context, hc *core.HostContext, ag *agent.Agent) (*core.Verdict, error) {
	if ag.Hop == 0 {
		return nil, nil
	}
	return m.appraise(hc, ag, core.AfterSession)
}

// CheckAfterTask appraises the final state on the last host. By this
// point the final session has run, so ag.State is the state the task
// produced.
func (m *Mechanism) CheckAfterTask(_ context.Context, hc *core.HostContext, ag *agent.Agent, rec *host.SessionRecord) (*core.Verdict, error) {
	return m.appraise(hc, ag, core.AfterTask)
}

func (m *Mechanism) appraise(hc *core.HostContext, ag *agent.Agent, moment core.Moment) (*core.Verdict, error) {
	prev := ""
	if len(ag.Route) > 0 {
		prev = ag.Route[len(ag.Route)-1]
	}
	v := &core.Verdict{
		Mechanism:   MechanismName,
		Moment:      moment,
		CheckedHost: prev,
		CheckedHop:  ag.Hop - 1,
		Checker:     hc.Host.Name(),
		Suspect:     prev,
	}
	ok, violations, err := m.loadRules(hc, ag, ag.State)
	if err != nil {
		return nil, err
	}
	if !ok {
		v.OK = false
		v.Reason = "arrived state violates owner rules"
		v.Evidence = violations
		// Appraisal's reference data is only the arrived state, so a
		// rule violation alone cannot say *which* session broke it. If
		// the agent's travelling record already carries a failed
		// appraisal verdict from an earlier hop, the damage predates
		// the previous session: under a policy that let the agent
		// continue, blaming the previous host would charge an innocent
		// intermediary. The repeat detection stays on record but
		// travels unattributed.
		//
		// Verdict baggage is host-writable, so a prior failure only
		// suppresses attribution if it is a verifiable voucher: signed
		// by its named checker, bound to this agent, and vouched by
		// someone other than the host now under suspicion (a cheater
		// can sign a "prior failure" as itself; it cannot forge another
		// host's signature). Refusing the suspect's own voucher can
		// transiently re-blame an innocent intermediary that detected
		// someone else earlier — but that charge is self-correcting
		// (escalated checking exonerates an honest host), whereas
		// honoring it would let a cheater dodge reputation forever.
		// Two colluding consecutive hosts can still launder blame —
		// the protocol family's documented collusion limit (§5.1), not
		// a new hole.
		reg := hc.Host.Registry()
		// Structurally plausible vouchers are collected first, then
		// their signatures checked in one batch; the first verifying
		// voucher (in record order) wins, exactly as a scalar
		// VerifySig-per-prior loop would decide.
		var cand []sigcrypto.BatchEntry
		var candHops []int
		for _, prior := range core.AgentVerdicts(ag) {
			if prior.Mechanism != MechanismName || prior.OK || prior.CheckedHop >= v.CheckedHop {
				continue
			}
			if prior.AgentID != ag.ID || prior.Checker == v.Suspect {
				continue
			}
			entry, ok := prior.SigBatchEntry()
			if !ok {
				continue
			}
			cand = append(cand, entry)
			candHops = append(candHops, prior.CheckedHop)
		}
		if len(cand) > 0 {
			errs := reg.VerifyBatch(cand)
			for i := range cand {
				if errs != nil && errs[i] != nil {
					continue
				}
				v.Suspect = ""
				v.Reason = fmt.Sprintf("arrived state violates owner rules (damage on record since session %d; previous host not blamed)", candHops[i])
				break
			}
		}
		return v, nil
	}
	v.OK = true
	return v, nil
}

// PrepareDeparture implements core.Mechanism: the stay ends in a
// forward.
func (m *Mechanism) PrepareDeparture(_ context.Context, hc *core.HostContext, ag *agent.Agent, _ *host.SessionRecord) error {
	m.EndStay(hc, ag)
	return nil
}

// EndStay implements core.StayEnder.
func (m *Mechanism) EndStay(_ *core.HostContext, ag *agent.Agent) {
	m.mu.Lock()
	delete(m.stays, ag.ID)
	m.mu.Unlock()
}

// loadRules evaluates the agent's signed rule set against st. A
// missing or unverifiable rule set is a violation (the rules were
// stripped or tampered with).
func (m *Mechanism) loadRules(hc *core.HostContext, ag *agent.Agent, st value.State) (bool, []string, error) {
	data, present := ag.GetBaggage(MechanismName)
	if !present {
		return false, []string{"rule baggage missing (stripped or never attached)"}, nil
	}
	m.mu.Lock()
	kept, ok := m.stays[ag.ID]
	m.mu.Unlock()
	if !ok || kept.owner != ag.Owner || !bytes.Equal(kept.baggage, data) {
		kept = m.verifyRules(hc, ag, data)
		m.mu.Lock()
		m.stays[ag.ID] = kept
		m.mu.Unlock()
	}
	if kept.violations != nil {
		return false, kept.violations, nil
	}
	return kept.rules.evaluate(st)
}

// verifyRules decodes, verifies and compiles rule baggage data.
func (m *Mechanism) verifyRules(hc *core.HostContext, ag *agent.Agent, data []byte) stayRules {
	out := stayRules{owner: ag.Owner, baggage: bytes.Clone(data)}
	refuse := func(format string, args ...any) stayRules {
		out.violations = []string{fmt.Sprintf(format, args...)}
		return out
	}
	w, err := decodeRules(data)
	if err != nil {
		return refuse("malformed rule baggage: %v", err)
	}
	m.verified.Add(1)
	d := rulesDigest(ag.ID, w.Names, w.Sources)
	if err := hc.Host.Registry().VerifyDigest(d, w.Sig); err != nil {
		return refuse("rule signature invalid: %v", err)
	}
	if w.Sig.Signer != ag.Owner {
		return refuse("rules signed by %q, not by owner %q", w.Sig.Signer, ag.Owner)
	}
	out.rules = make(RuleSet, 0, len(w.Names))
	for i := range w.Names {
		r, err := NewRule(w.Names[i], w.Sources[i])
		if err != nil {
			return refuse("rule %q does not compile: %v", w.Names[i], err)
		}
		out.rules = append(out.rules, r)
	}
	return out
}
