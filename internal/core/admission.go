package core

// Admission control: the verdict-free refusal path. Where a verdict
// records evidence about a session that already ran, admission refusal
// prevents the session from ever running — the cheapest protection in
// the paper's threat model is not sending the agent to (or accepting it
// from) a suspicious host at all. A node with an AdmissionPolicy
// consults it on every delivery whose sender is known (the last entry
// of the agent's route) and refuses intake outright when the sender's
// suspicion is past the policy's threshold: no journal entry, no
// receipt, no verdict — the refusal travels back to the sender as
// ErrAdmissionRefused, where planners treat it as a routing signal.

import (
	"fmt"

	"repro/internal/transport"
)

// ErrAdmissionRefused is returned by intake when the delivering host's
// suspicion is at or above the node's admission threshold. It is a
// refusal, not a detection: no verdict is produced, no quarantine
// happens, and the sender is told exactly why so its planner can route
// around the shunned host. ErrIntakeFull is the RefuseWhenFull
// fast-fail (IntakeRefusedError). Both are transport sentinels, so a
// refusal that crossed TCP satisfies errors.Is as an in-process one.
var (
	ErrAdmissionRefused = transport.ErrAdmissionRefused
	ErrIntakeFull       = transport.ErrIntakeFull
)

// AdmissionDecision is an AdmissionPolicy's answer for one delivery.
type AdmissionDecision struct {
	// Refuse rejects the delivery before it enters the intake queue.
	Refuse bool
	// Suspicion is the sender's suspicion as the policy read it, and
	// Threshold the bar it was measured against — both carried into the
	// refusal error and the admission-refused event.
	Suspicion float64
	Threshold float64
	// Reason is a one-line explanation for logs and events.
	Reason string
}

// AdmissionPolicy decides whether a delivery from a given host may
// enter the node's intake queue. Admit may be called from concurrent
// intakes; implementations must be safe for that. The interface lives
// here (like VerdictPolicy) so the node can consult it without core
// depending on the policy package; internal/policy provides the
// ledger-backed implementation.
type AdmissionPolicy interface {
	// Name identifies the policy in status output.
	Name() string
	// Admit judges a delivery from fromHost. fromHost is empty for
	// locally launched agents (hop zero has no sender); policies should
	// admit those.
	Admit(fromHost string) AdmissionDecision
}

// IntakeRefusedError is a RefuseWhenFull fast-fail: the named node's
// intake queue was full and the delivery was turned away instead of
// queued. It wraps ErrIntakeFull, and names the refusing node so
// planners can attribute the overload to the right host (the bug this
// type fixes: "full" used to surface as an anonymous failure
// indistinguishable from tampering).
type IntakeRefusedError struct {
	// Node is the refusing node's principal name.
	Node string
}

// Error implements error.
func (e *IntakeRefusedError) Error() string {
	return fmt.Sprintf("core: intake at %s: queue full: %v", e.Node, ErrIntakeFull)
}

// Unwrap exposes ErrIntakeFull to errors.Is.
func (e *IntakeRefusedError) Unwrap() error { return ErrIntakeFull }

// ForwardError is the failure of forwarding an agent from one node to
// the next. It keeps the refusing/unreachable host attributable: a
// planner reading a receipt must be able to tell "the next hop's
// intake was full" (spill over, retry elsewhere) from "the next hop
// shunned our host" (route around the sender) from "the wire broke"
// (host down) — three different routing responses hidden behind what
// used to be one opaque wrapped error.
type ForwardError struct {
	// From is the node that tried to forward; To the next hop that
	// refused or could not be reached.
	From string
	To   string
	// Err is the underlying failure (transport error, or the remote
	// intake's refusal).
	Err error
}

// Error implements error with the same shape the pipeline historically
// produced, so logs keep reading the same.
func (e *ForwardError) Error() string {
	return fmt.Sprintf("core: node %s forwarding to %s: %v", e.From, e.To, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *ForwardError) Unwrap() error { return e.Err }

// PlanCallBody builds the (empty) body for a node/plan call.
func PlanCallBody() []byte { return nil }

// PlanReply is the answer to a node/plan call: the node's admission
// posture and refusal counters.
type PlanReply struct {
	// Host is the answering node's principal name.
	Host string
	// AdmissionEnabled reports an AdmissionPolicy is consulted on
	// intake; AdmissionPolicy names it and AdmissionThreshold is its
	// refusal bar (0 when the policy does not expose one).
	AdmissionEnabled   bool
	AdmissionPolicy    string
	AdmissionThreshold float64
	// AdmissionRefused counts deliveries refused by the policy;
	// IntakeRefused counts deliveries fast-failed by RefuseWhenFull.
	AdmissionRefused int64
	IntakeRefused    int64
	RefuseWhenFull   bool
}

// DecodePlanReply decodes a node/plan response.
func DecodePlanReply(body []byte) (PlanReply, error) { return decodeGob[PlanReply]("plan", body) }

// AdmissionThresholder is an optional AdmissionPolicy extension for
// policies with a numeric refusal bar; node/plan reports it.
type AdmissionThresholder interface {
	AdmissionThreshold() float64
}

// planReply snapshots the node's admission/planning surface.
func (n *Node) planReply() PlanReply {
	r := PlanReply{
		Host:             n.cfg.Host.Name(),
		AdmissionRefused: n.admissionRefused.Load(),
		IntakeRefused:    n.intakeRefused.Load(),
		RefuseWhenFull:   n.cfg.RefuseWhenFull,
	}
	if ap := n.cfg.Admission; ap != nil {
		r.AdmissionEnabled = true
		r.AdmissionPolicy = ap.Name()
		if t, ok := ap.(AdmissionThresholder); ok {
			r.AdmissionThreshold = t.AdmissionThreshold()
		}
	}
	return r
}
