package core_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/host"
	"repro/internal/protection"
	"repro/internal/refproto"
	"repro/internal/transport"
	"repro/internal/value"
)

// persistDir returns a per-node data dir when the suite runs in its
// persistence-enabled variant (REPRO_E2E_PERSIST=1, see ci.yml), and ""
// — memory-only nodes, the default — otherwise. The variant proves the
// WAL-backed stores ride under the full TCP deployment shape without
// changing its observable behaviour.
func persistDir(t *testing.T, name string) string {
	t.Helper()
	if os.Getenv("REPRO_E2E_PERSIST") == "" {
		return ""
	}
	return filepath.Join(t.TempDir(), name)
}

// TestTCPEndToEnd runs the full stack — agent, platform nodes, the
// example mechanism, whole-agent signatures — over real TCP sockets:
// the deployment shape of cmd/agenthost. One journey is honest; one
// has a tampering middle host whose attack must be detected across the
// wire. Under the async contract, SendAgent returns at enqueue time
// and the journey's terminal outcome surfaces on the receipt of the
// node where it ends — completion at "back", or quarantine at the
// detecting node.
func TestTCPEndToEnd(t *testing.T) {
	run := func(t *testing.T, tamper bool) ([]core.Verdict, core.Result, map[string]*core.Node) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		f, err := fleet.NewTCP("owner")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if err := f.Close(); err != nil {
				t.Errorf("closing fleet: %v", err)
			}
		})

		var vmu sync.Mutex
		var verdicts []core.Verdict
		for i, name := range []string{"home", "mid", "back"} {
			cfg := host.Config{
				Name:    name,
				Trusted: i != 1,
				Resources: map[string]value.Value{
					"data": value.Int(int64(10 * (i + 1))),
				},
			}
			if name == "mid" && tamper {
				cfg.Behavior = attack.DataManipulation{Var: "acc", Val: value.Int(-1)}
			}
			if _, err := f.Add(fleet.Spec{
				Host:    cfg,
				Level:   protection.LevelFull,
				DataDir: persistDir(t, name),
				Node: core.NodeConfig{OnVerdict: func(v core.Verdict) {
					vmu.Lock()
					verdicts = append(verdicts, v)
					vmu.Unlock()
				}},
			}); err != nil {
				t.Fatal(err)
			}
		}

		ag, err := agent.New("tcp-agent", "owner", `
proc main() {
    acc = resource("data")
    migrate("mid", "step")
}
proc step() {
    acc = acc + resource("data")
    migrate("back", "fin")
}
proc fin() {
    acc = acc + resource("data")
    done()
}`, "main")
		if err != nil {
			t.Fatal(err)
		}
		receipts := f.Watch(ag.ID)
		wire, err := ag.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Net().SendAgent(ctx, "home", wire); err != nil {
			t.Fatalf("launch: %v", err)
		}
		res, _ := core.AwaitAny(ctx, receipts...)
		vmu.Lock()
		defer vmu.Unlock()
		return append([]core.Verdict(nil), verdicts...), res, f.Nodes()
	}

	t.Run("honest", func(t *testing.T) {
		verdicts, res, _ := run(t, false)
		if res.Err != nil {
			t.Fatalf("honest journey: %v", res.Err)
		}
		if res.Agent == nil {
			t.Fatal("agent did not complete")
		}
		if res.Agent.State["acc"].Int != 60 {
			t.Errorf("acc = %s, want 60", res.Agent.State["acc"])
		}
		for _, v := range verdicts {
			if !v.OK {
				t.Errorf("failed verdict on honest TCP run: %s", v)
			}
		}
	})

	t.Run("tampering", func(t *testing.T) {
		verdicts, res, nodes := run(t, true)
		if res.Err == nil {
			t.Fatal("tampering journey completed without error")
		}
		// Detection happens asynchronously at the next host ("back"):
		// its receipt resolves aborted with ErrDetection, and the agent
		// is quarantined there with the evidence.
		if !errors.Is(res.Err, core.ErrDetection) {
			t.Errorf("err = %v, want ErrDetection", res.Err)
		}
		if !res.Aborted {
			t.Error("terminal result not marked aborted")
		}
		if _, err := nodes["back"].Quarantined("tcp-agent"); err != nil {
			t.Errorf("agent not quarantined at the detecting node: %v", err)
		}
		if st := nodes["back"].Status("tcp-agent"); st.Phase != core.PhaseQuarantined {
			t.Errorf("status at detecting node = %+v, want phase %q", st, core.PhaseQuarantined)
		}
		found := false
		for _, v := range verdicts {
			if !v.OK && v.Suspect == "mid" {
				found = true
			}
		}
		if !found {
			t.Errorf("no verdict blaming mid; got %v", verdicts)
		}
	})
}

// TestTCPVignaAuditAcrossSockets exercises the audit call path over
// real TCP.
func TestTCPVignaAuditAcrossSockets(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Covered structurally by vigna tests over InProc; this test pins
	// that mechanism protocol calls (namespaced methods) work through
	// the TCP server dispatch.
	f, err := fleet.NewTCP("owner")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	}()
	if _, err := f.Add(fleet.Spec{
		Host:       host.Config{Name: "solo"},
		Mechanisms: refproto.New(refproto.Config{}),
		DataDir:    persistDir(t, "solo"),
	}); err != nil {
		t.Fatal(err)
	}
	net := f.Net()

	// refproto takes no calls: the namespaced dispatch must answer with
	// a remote error, not hang or crash.
	_, err = net.Call(ctx, "solo", "refproto/anything", nil)
	var re *transport.RemoteError
	if !errors.As(err, &re) {
		t.Errorf("err = %v, want RemoteError", err)
	}
	if _, err := net.Call(ctx, "solo", "nope/x", nil); err == nil {
		t.Error("unknown mechanism call succeeded")
	}

	// The built-in node/status call answers over TCP, too — this is
	// what agentctl polls.
	body, err := net.Call(ctx, "solo", "node/status", core.StatusCallBody("nobody"))
	if err != nil {
		t.Fatalf("node/status: %v", err)
	}
	st, err := core.DecodeStatusReply(body)
	if err != nil {
		t.Fatal(err)
	}
	if st.Phase != core.PhaseUnknown {
		t.Errorf("status of unknown agent = %+v", st)
	}
}

// TestForwardToStoppedHostFailsInTime: a node whose next hop is down
// fails the forward, naming that hop, while the journey's sender still
// waits. home launches with a 4 s deadline on home -> shop -> back and
// back's listener is closed: shop's receipt must resolve failed,
// refused by back, within 3 s, not at the deadline.
func TestForwardToStoppedHostFailsInTime(t *testing.T) {
	f, err := fleet.NewTCP("owner")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	for _, name := range []string{"home", "shop", "back"} {
		if _, err := f.Add(fleet.Spec{Host: host.Config{Name: name}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Member("back").Close(); err != nil {
		t.Fatal(err)
	}
	ag, err := agent.New("stranded", "owner", `
proc main() { migrate("shop", "visit") }
proc visit() { migrate("back", "fin") }
proc fin() { done() }`, "main")
	if err != nil {
		t.Fatal(err)
	}
	wire, err := ag.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	rc := f.Member("shop").Node.Watch(ag.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Second)
	defer cancel()
	start := time.Now()
	if err := f.Net().SendAgent(ctx, "home", wire); err != nil {
		t.Fatalf("launch: %v", err)
	}
	wait, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	res, _ := core.AwaitAny(wait, rc)
	elapsed := time.Since(start)
	st := f.Member("shop").Node.Status(ag.ID)
	if res.Err == nil || st.Phase != core.PhaseFailed || st.RefusedBy != "back" {
		t.Fatalf("shop: result err %v, status %+v; want failed, refused by back", res.Err, st)
	}
	if elapsed >= 3*time.Second {
		t.Fatalf("shop's forward failed after %v of a 4s deadline, want under 3s", elapsed.Round(time.Millisecond))
	}
}
