package core_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/policy"
	"repro/internal/sigcrypto"
	"repro/internal/transport"
)

// newAdmissionNode builds a bare node (no mechanisms) with the given
// admission policy over an in-proc network.
func newAdmissionNode(t *testing.T, name string, ap core.AdmissionPolicy, refuseWhenFull bool, workers, depth int, behavior host.Behavior) *core.Node {
	t.Helper()
	reg := sigcrypto.NewRegistry()
	keys, err := sigcrypto.GenerateKeyPair(name)
	if err != nil {
		t.Fatal(err)
	}
	h, err := host.New(host.Config{Name: name, Keys: keys, Registry: reg, Behavior: behavior})
	if err != nil {
		t.Fatal(err)
	}
	node, err := core.NewNode(core.NodeConfig{
		Host:           h,
		Net:            transport.NewInProc(),
		Admission:      ap,
		RefuseWhenFull: refuseWhenFull,
		Workers:        workers,
		QueueDepth:     depth,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })
	return node
}

// travelledAgent builds a trivially completing agent that claims to
// have already visited `from` — the sender the admission policy
// judges.
func travelledAgent(t *testing.T, id, from string) *agent.Agent {
	t.Helper()
	ag, err := agent.New(id, "owner", "proc main() { done() }", "main")
	if err != nil {
		t.Fatal(err)
	}
	if from != "" {
		ag.Route = append(ag.Route, from)
		ag.Hop = 1
	}
	return ag
}

// TestAdmissionRacesLedgerEscalation is the admission mirror of the
// PR 2 intake/Close race: concurrent intakes from one sender race a
// ledger escalation that pushes the sender over the admission
// threshold. Every delivery must get exactly one terminal outcome —
// an admitted receipt that resolves, or ErrAdmissionRefused with no
// journal trace at the refusing node — never both, never a hang.
func TestAdmissionRacesLedgerEscalation(t *testing.T) {
	led := policy.NewLedger(policy.LedgerConfig{HalfLife: time.Hour})
	ap := policy.NewAdmission(policy.AdmissionConfig{Ledger: led})
	node := newAdmissionNode(t, "n", ap, false, 4, 256, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	const deliveries = 128
	type outcome struct {
		id  string
		rc  *core.Receipt
		err error
	}
	outcomes := make([]outcome, deliveries)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < deliveries; i++ {
		i := i
		ag := travelledAgent(t, "race-"+itoa(i), "evil")
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rc, err := node.Launch(ctx, ag)
			outcomes[i] = outcome{id: ag.ID, rc: rc, err: err}
		}()
	}
	// Escalate the sender mid-flight: half the launchers go first, the
	// observation lands, the rest race it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		led.Observe("evil", false, 2*policy.DefaultAdmissionThreshold)
	}()
	close(start)
	wg.Wait()

	admitted, refused := 0, 0
	for _, o := range outcomes {
		switch {
		case o.err == nil:
			admitted++
			if o.rc == nil {
				t.Fatalf("agent %s: admitted with nil receipt", o.id)
			}
			if _, err := o.rc.Wait(ctx); err != nil {
				t.Fatalf("agent %s: admitted receipt resolved with error: %v", o.id, err)
			}
		case errors.Is(o.err, core.ErrAdmissionRefused):
			refused++
			if o.rc != nil {
				t.Fatalf("agent %s: refused AND handed a receipt — two terminal outcomes", o.id)
			}
			// A refusal must leave no journal trace: a later status read
			// sees an agent that never arrived.
			if st := node.Status(o.id); st.Phase != core.PhaseUnknown {
				t.Fatalf("agent %s: refused but journaled as %q", o.id, st.Phase)
			}
		default:
			t.Fatalf("agent %s: unexpected outcome: %v", o.id, o.err)
		}
	}
	if admitted+refused != deliveries {
		t.Fatalf("outcomes leaked: %d admitted + %d refused != %d", admitted, refused, deliveries)
	}
	// The escalation eventually wins: a delivery after the dust settles
	// is refused.
	late := travelledAgent(t, "race-late", "evil")
	if _, err := node.Launch(ctx, late); !errors.Is(err, core.ErrAdmissionRefused) {
		t.Fatalf("post-escalation launch: err = %v, want admission refusal", err)
	}
	if node.Status("race-late").Phase != core.PhaseUnknown {
		t.Fatal("refused agent left a journal entry")
	}
}

// TestAdmissionLocalLaunchAlwaysAdmitted pins the hop-zero rule: a
// locally launched agent has no sender to judge and is admitted even
// under a refuse-everything policy.
func TestAdmissionLocalLaunchAlwaysAdmitted(t *testing.T) {
	led := policy.NewLedger(policy.LedgerConfig{HalfLife: time.Hour})
	led.Observe("anyone", false, 10)
	ap := policy.NewAdmission(policy.AdmissionConfig{Ledger: led})
	node := newAdmissionNode(t, "n", ap, false, 1, 8, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ag := travelledAgent(t, "fresh", "")
	rc, err := node.Launch(ctx, ag)
	if err != nil {
		t.Fatalf("local launch refused: %v", err)
	}
	if _, err := rc.Wait(ctx); err != nil {
		t.Fatalf("local launch failed: %v", err)
	}
}

// stallBehavior blocks every session until released, so a worker can
// be pinned deterministically while the intake queue fills.
type stallBehavior struct {
	attack.Honest
	release chan struct{}
	running chan struct{}
}

func (b *stallBehavior) TamperRecord(*host.SessionRecord) {
	select {
	case b.running <- struct{}{}:
	default:
	}
	<-b.release
}

// TestRefuseWhenFullFastFails pins the spillover contract: with
// RefuseWhenFull, a delivery against a full intake queue fails
// immediately wrapping core.ErrIntakeFull, names the refusing node, and
// journals the failure with RefusedBy set — instead of blocking for the
// intake cap.
func TestRefuseWhenFullFastFails(t *testing.T) {
	b := &stallBehavior{release: make(chan struct{}), running: make(chan struct{}, 1)}
	node := newAdmissionNode(t, "n", nil, true, 1, 1, b)
	defer close(b.release)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// First agent occupies the worker (stalled in-session), second sits
	// in the depth-1 queue; launches keep using fresh IDs until one is
	// refused (the first two are absorbed, the third must bounce — but
	// poll defensively against scheduling).
	if _, err := node.Launch(ctx, travelledAgent(t, "busy-0", "")); err != nil {
		t.Fatalf("first launch: %v", err)
	}
	select {
	case <-b.running:
	case <-time.After(5 * time.Second):
		t.Fatal("first session never started")
	}
	if _, err := node.Launch(ctx, travelledAgent(t, "busy-1", "")); err != nil {
		t.Fatalf("second launch: %v", err)
	}

	refusedID := "spill"
	start := time.Now()
	_, err := node.Launch(ctx, travelledAgent(t, refusedID, ""))
	elapsed := time.Since(start)
	if !errors.Is(err, core.ErrIntakeFull) {
		t.Fatalf("full-queue launch: err = %v, want mailbox-full refusal", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("refusal took %v — RefuseWhenFull must not block", elapsed)
	}
	var ire *core.IntakeRefusedError
	if !errors.As(err, &ire) || ire.Node != "n" {
		t.Fatalf("refusal does not name the refusing node: %v", err)
	}
	st := node.Status(refusedID)
	if st.Phase != core.PhaseFailed || st.RefusedBy != "n" {
		t.Fatalf("refused agent journaled as %+v, want failed with RefusedBy=n", st)
	}
}

// itoa avoids strconv in a hot test loop body.
func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	pos := len(b)
	for i > 0 {
		pos--
		b[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(b[pos:])
}
