package core

// The hop: what a node does with one delivery (paper Fig. 4), as one
// fixed sequence of stages — check, execute, then finish, or depart and
// forward — whose outcome settle writes down.

import (
	"context"
	"fmt"

	"repro/internal/agent"
	"repro/internal/events"
	"repro/internal/host"
)

// hop is one delivery's pass through the node: its processing context,
// the agent, and the record of the session execute ran.
type hop struct {
	ctx context.Context
	ag  *agent.Agent
	rec *host.SessionRecord
}

// outcome is how a stay ends: phase is forwarded, completed,
// quarantined or failed, and the zero outcome means "go on to the next
// stage". to names the next hop: where a forwarded agent went, or the
// host that refused it or could not be reached.
type outcome struct {
	phase string
	err   error
	to    string
	// queued marks a delivery that never left the intake queue (drained
	// at Close): its stay never began, so there is none to end.
	queued bool
}

func failed(err error) outcome { return outcome{phase: PhaseFailed, err: err} }

// runOne drives one delivery through the hop's stages and settles the
// outcome of the first that ends the stay. The delivery's context and
// the node's lifecycle are checked before every stage, so cancellation
// and shutdown take effect at the next stage boundary.
func (n *Node) runOne(item intakeItem) {
	n.setPhase(item.ag.ID, AgentStatus{Phase: PhaseRunning})
	h := &hop{ctx: item.ctx, ag: item.ag}
	var o outcome
	for _, stage := range [...]func(*hop) outcome{n.check, n.execute, n.finish, n.depart, n.forward} {
		err := h.ctx.Err()
		if err == nil && n.rootCtx.Err() != nil {
			err = ErrNodeClosed
		}
		if err != nil {
			o = failed(fmt.Errorf("core: node %s: %w", n.cfg.Host.Name(), err))
			break
		}
		if o = stage(h); o.phase != "" {
			break
		}
	}
	n.settle(h.ag, o)
}

// check verifies the previous host's session as the first action on
// this host (CheckAfterSession). Every verdict is routed through the
// node's policy; a Quarantine decision ends the stay.
func (n *Node) check(h *hop) outcome {
	for _, m := range n.cfg.Mechanisms {
		v, err := m.CheckAfterSession(h.ctx, n.hc, h.ag)
		if err != nil {
			return failed(fmt.Errorf("core: %s at %s: %w", m.Name(), n.cfg.Host.Name(), err))
		}
		if v != nil {
			if dec := n.decide(h.ag.ID, n.recordVerdict(h.ag, *v)); dec.Quarantine {
				return outcome{phase: PhaseQuarantined, err: fmt.Errorf("%w: %s", ErrDetection, v)}
			}
		}
	}
	return outcome{}
}

// execute runs this host's session.
func (n *Node) execute(h *hop) outcome {
	rec, err := n.cfg.Host.RunSession(h.ctx, h.ag, n.cfg.SessionOptions)
	if err != nil {
		return failed(fmt.Errorf("core: node %s: %w", n.cfg.Host.Name(), err))
	}
	h.rec = rec
	return outcome{}
}

// finish ends the stay of an agent whose task is done, after
// CheckAfterTask on this, the final host; an agent that migrates goes
// on to depart. AfterTask verdicts still feed the policy (flagging,
// owner notification, reputation), but a Quarantine decision is not
// honoured: the journey has nothing left to stop, and the outcome stays
// completed with the failed verdict on record.
func (n *Node) finish(h *hop) outcome {
	if h.rec.ResultEntry != "" {
		return outcome{}
	}
	for _, m := range n.cfg.Mechanisms {
		v, err := m.CheckAfterTask(h.ctx, n.hc, h.ag, h.rec)
		if err != nil {
			return failed(fmt.Errorf("core: %s at %s: %w", m.Name(), n.cfg.Host.Name(), err))
		}
		if v != nil {
			n.decide(h.ag.ID, n.recordVerdict(h.ag, *v))
		}
	}
	return outcome{phase: PhaseCompleted}
}

// depart lets the mechanisms attach reference data, in *reverse*
// mechanism order so the list forms an onion: the first mechanism
// checks first on arrival and seals last on departure. A signing
// mechanism placed first (refproto's seal) therefore covers every other
// mechanism's baggage.
func (n *Node) depart(h *hop) outcome {
	for i := len(n.cfg.Mechanisms) - 1; i >= 0; i-- {
		m := n.cfg.Mechanisms[i]
		if err := m.PrepareDeparture(h.ctx, n.hc, h.ag, h.rec); err != nil {
			return failed(fmt.Errorf("core: %s departure at %s: %w", m.Name(), n.cfg.Host.Name(), err))
		}
	}
	return outcome{}
}

// forward migrates the agent to the host its session named. A refusing
// or unreachable next hop stays attributable: settle records it.
func (n *Node) forward(h *hop) outcome {
	to := h.rec.Outcome.MigrateHost
	wire, err := h.ag.Marshal()
	if err != nil {
		return failed(fmt.Errorf("core: node %s: %w", n.cfg.Host.Name(), err))
	}
	if err := n.cfg.Net.SendAgent(h.ctx, to, wire); err != nil {
		return outcome{phase: PhaseFailed, err: &ForwardError{From: n.cfg.Host.Name(), To: to, Err: err}, to: to}
	}
	return outcome{phase: PhaseForwarded, to: to}
}

// settle ends ag's stay here with o; it is the only code that does. A
// stay that began and was not forwarded first ends for every StayEnder.
// Then the facts are written in one order — journal phase, bus event,
// receipt — so a caller that awaits the receipt and then reads the bus
// finds the event there; a forward resolves no receipt. The agent is
// encoded once, for the receipt and the quarantine store alike.
func (n *Node) settle(ag *agent.Agent, o outcome) {
	if o.phase == PhaseForwarded {
		n.setPhase(ag.ID, AgentStatus{Phase: PhaseForwarded, NextHost: o.to})
		n.publish(events.Event{Kind: events.KindForward, Agent: ag.ID, Host: o.to})
		return
	}
	if !o.queued {
		n.endStay(ag)
	}
	record := ag.Encode()
	st := AgentStatus{Phase: o.phase}
	ev := events.Event{Kind: events.KindComplete, Agent: ag.ID, Host: o.to}
	switch o.phase {
	case PhaseQuarantined:
		n.quarantine.Put(ag.ID, record)
		ev.Kind = events.KindQuarantine
	case PhaseFailed:
		st.Err, st.RefusedBy = o.err.Error(), o.to
		ev.Kind, ev.Fields = events.KindFailed, map[string]string{"reason": st.Err}
		if o.to != "" {
			ev.Fields["refused-by"] = o.to
		}
	}
	rc := n.setPhase(ag.ID, st).rc
	n.publish(ev)
	rc.resolve(record, o.phase == PhaseQuarantined, o.err)
}

// endStay tells every StayEnder that ag's stay here ended without a
// forward.
func (n *Node) endStay(ag *agent.Agent) {
	for _, m := range n.cfg.Mechanisms {
		if e, ok := m.(StayEnder); ok {
			e.EndStay(n.hc, ag)
		}
	}
}

// recordVerdict stamps the verdict (AgentID, Checker, signature),
// cuts it to what the verdict codec carries (boundVerdict), appends it
// to the agent's travelling record, notifies the local sink, and
// returns the stamped copy — the one every downstream consumer
// (policy, owner notices) must see.
func (n *Node) recordVerdict(ag *agent.Agent, v Verdict) Verdict {
	if v.AgentID == "" {
		v.AgentID = ag.ID
	}
	// Sign before anything reads it: the travelling copy must carry a
	// verifiable voucher (Checker == this host) or later hosts will
	// refuse to trust it.
	v.Checker = n.cfg.Host.Name()
	boundVerdict(&v)
	v.Sign(n.cfg.Host.Keys())
	if n.cfg.OnVerdict != nil {
		n.cfg.OnVerdict(v)
	}
	n.publishVerdict(v)
	appendAgentVerdict(ag, &v)
	return v
}

// decide routes one verdict through the node's policy and applies the
// flag/notify parts of the decision; the caller applies Quarantine.
func (n *Node) decide(agentID string, v Verdict) Decision {
	dec := n.policy().Decide(agentID, v)
	if dec.Flag {
		n.updateEntry(agentID, func(e *journalEntry) { e.flags++ })
	}
	if dec.NotifyOwner {
		n.publish(events.Event{
			Kind:   events.KindOwnerNotice,
			Agent:  agentID,
			Host:   v.Suspect,
			Fields: map[string]string{"reason": dec.Reason},
		})
	}
	return dec
}

// setPhase records st as the agent's status and returns its entry.
func (n *Node) setPhase(agentID string, st AgentStatus) *journalEntry {
	return n.updateEntry(agentID, func(e *journalEntry) { e.st = st })
}
