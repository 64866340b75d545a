package agent_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/agent"
	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/sigcrypto"
	"repro/internal/value"
)

const fuzzCode = `
proc main() {
    bulk = append(bulk, "0123456789")
    migrate("w1", "main")
}
proc fin() { done() }`

// seedAgents returns the encodings a node meets: a freshly launched
// agent, a completed agent's record (empty Entry, which Marshal
// refuses), a quarantined agent carrying signed verdicts, and an agent
// whose state holds a 500-element list.
func seedAgents(t testing.TB) map[string][]byte {
	t.Helper()
	mk := func(id string) *agent.Agent {
		ag, err := agent.New(id, "owner", fuzzCode, "main")
		if err != nil {
			t.Fatal(err)
		}
		return ag
	}
	marshal := func(ag *agent.Agent) []byte {
		wire, err := ag.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	travelled := func(ag *agent.Agent, hop int) {
		ag.Hop = hop
		for i := 0; i < hop; i++ {
			ag.Route = append(ag.Route, fmt.Sprintf("w%d", i))
		}
		ag.SetVar("total", value.Int(int64(hop)))
		ag.SetBaggage("mechanism", []byte("signed at the last hop"))
	}

	seeds := map[string][]byte{"launched": marshal(mk("launched"))}

	done := mk("completed")
	travelled(done, 5)
	done.Entry = ""
	seeds["completed"] = done.Encode()

	caught := mk("quarantined")
	travelled(caught, 3)
	keys, err := sigcrypto.GenerateKeyPair("w2")
	if err != nil {
		t.Fatal(err)
	}
	vs := []core.Verdict{
		{Mechanism: "refproto", Moment: core.AfterSession, AgentID: caught.ID, CheckedHost: "w0", CheckedHop: 0, OK: true},
		{Mechanism: "appraisal", Moment: core.AfterSession, AgentID: caught.ID, CheckedHost: "w1", CheckedHop: 1, Suspect: "w1", Reason: "total == hops failed"},
	}
	for i := range vs {
		vs[i].Checker = "w2"
		vs[i].Sign(keys)
	}
	payload, err := core.EncodeVerdicts(vs)
	if err != nil {
		t.Fatal(err)
	}
	caught.SetBaggage("core/verdicts", payload)
	if got := core.AgentVerdicts(caught); len(got) != len(vs) {
		t.Fatalf("verdict seed carries %d verdicts, want %d", len(got), len(vs))
	}
	seeds["quarantined"] = marshal(caught)

	bulk := mk("bulk")
	travelled(bulk, 2)
	elems := make([]value.Value, 500)
	for i := range elems {
		elems[i] = value.Str(fmt.Sprintf("input-%04d", i))
	}
	bulk.SetVar("bulk", value.List(elems...))
	seeds["bulk"] = marshal(bulk)
	return seeds
}

// TestEncodeDecodeIdentity: every agent a node keeps or forwards
// decodes and encodes back to the same bytes.
func TestEncodeDecodeIdentity(t *testing.T) {
	for name, data := range seedAgents(t) {
		ag, err := agent.Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(ag.Encode(), data) {
			t.Errorf("%s: encode(decode(x)) != x", name)
		}
	}
}

// FuzzAgentUnmarshal fuzzes the agent decoders: Unmarshal, which every
// migration runs on bytes from a peer, and Decode, which reads back the
// records a node keeps. Properties: no panic; an accepted input holds
// no more route and baggage entries than it has bytes, and no ID,
// owner, entry, route host or baggage key over canon.MaxNameLen;
// Decode accepts everything Unmarshal accepts, to the same agent; and
// an accepted agent encodes back to exactly its input, and decoding
// that gives the same agent.
func FuzzAgentUnmarshal(f *testing.F) {
	for _, data := range seedAgents(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		wire, uerr := agent.Unmarshal(data)
		rec, derr := agent.Decode(data)
		if derr != nil {
			if uerr == nil {
				t.Fatalf("Unmarshal accepted what Decode refused: %v", derr)
			}
			return
		}
		if n := len(rec.Route) + len(rec.Baggage); n > len(data) {
			t.Fatalf("%d route and baggage entries from %d bytes", n, len(data))
		}
		names := append([]string{rec.ID, rec.Owner, rec.Entry}, rec.Route...)
		for k := range rec.Baggage {
			names = append(names, k)
		}
		for _, name := range names {
			if len(name) > canon.MaxNameLen {
				t.Fatalf("accepted a %d-byte name", len(name))
			}
		}
		enc := rec.Encode()
		if !bytes.Equal(enc, data) {
			t.Fatal("encode(decode(x)) != x for an accepted input")
		}
		if uerr == nil && !bytes.Equal(wire.Encode(), enc) {
			t.Fatal("Unmarshal and Decode disagree on an accepted input")
		}
		again, err := agent.Decode(enc)
		if err != nil {
			t.Fatalf("Decode refused an encoding it produced: %v", err)
		}
		if again.ID != rec.ID || again.Owner != rec.Owner || again.Code != rec.Code ||
			again.CodeDigest != rec.CodeDigest || again.Entry != rec.Entry || again.Hop != rec.Hop ||
			!reflect.DeepEqual(again.Route, rec.Route) || !reflect.DeepEqual(again.Baggage, rec.Baggage) ||
			again.StateDigest() != canon.HashState(rec.State) {
			t.Fatal("round trip changed the agent")
		}
	})
}
