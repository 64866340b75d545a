package host

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/agentlang"
	"repro/internal/canon"
	"repro/internal/value"
)

// replayStartState is the data state every corpus session starts from:
// scalars, nested lists and a map, so alias-sensitive programs exercise
// copy-on-write in both the live run and the replay.
func replayStartState() value.State {
	return value.State{
		"total": value.Int(0), "hops": value.Int(0), "sum": value.Int(0),
		"got":  value.List(),
		"xs":   value.List(value.List(value.Int(1)), value.List(value.Int(2))),
		"lst":  value.List(value.List(value.Int(2))),
		"m":    value.Map(map[string]value.Value{"inner": value.List(value.Int(10), value.Int(20)), "k": value.List(value.Int(3))}),
		"n":    value.Int(7),
		"name": value.Str("agent"),
	}
}

// TestReplayReproducesRunSession replays every session of the agent
// language's golden corpus that runs to completion on a host, and
// requires the replay to land on the host's own record: the resulting
// state's digest, the continuation entry, and every input record
// consumed, with the recorded initial state left as it was. A
// divergence would make a checking host blame an honest one.
func TestReplayReproducesRunSession(t *testing.T) {
	raw, err := os.ReadFile("../agentlang/testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var corpus []struct {
		Name string `json:"name"`
		Src  string `json:"src"`
		Want struct {
			Err string `json:"err"`
		} `json:"want"`
	}
	if err := json.Unmarshal(raw, &corpus); err != nil {
		t.Fatal(err)
	}
	h := newHost(t, "replayer", func(c *Config) {
		c.Clock = func() int64 { return 1_000_000 }
		c.Resources = map[string]value.Value{
			"n1": value.Int(5), "n2": value.Int(3), "n": value.Int(4),
			"elem": value.Str("elem-1"), "key": value.Str("value-key"),
			"k": value.Int(2), "ok": value.Str("yes"), "x": value.Int(1),
			"price": value.Int(120), "offer": value.Int(80), "b": value.Bool(true),
			"db": value.Map(map[string]value.Value{
				"rows": value.List(value.Int(1), value.Int(2), value.Int(3)),
			}),
		}
	})
	replayed := 0
	for _, c := range corpus {
		// The corpus records its runaway programs; the host's default
		// fuel would spend seconds on each before refusing it.
		if strings.Contains(c.Want.Err, agentlang.ErrFuelExhausted.Error()) {
			continue
		}
		ag := newAgent(t, c.Src, "main")
		ag.ID = c.Name
		ag.State = replayStartState()
		rec, err := h.RunSession(context.Background(), ag, SessionOptions{})
		if err != nil {
			continue // the live run fails: there is no session to check
		}
		prog, err := ag.Program()
		if err != nil {
			t.Fatal(err)
		}
		initial := canon.HashState(rec.Initial)
		state, entry, unconsumed, err := Replay(prog, rec.Entry, rec.Initial, rec.Input, nil)
		switch {
		case err != nil:
			t.Errorf("%s: replay fails: %v", c.Name, err)
		case canon.HashState(rec.Initial) != initial:
			t.Errorf("%s: replay wrote through to the initial state", c.Name)
		case canon.HashState(state) != rec.ResultingDigest():
			t.Errorf("%s: replayed state differs: %v", c.Name, state.Diff(rec.Resulting))
		case entry != rec.ResultEntry:
			t.Errorf("%s: replay continues at %q, session at %q", c.Name, entry, rec.ResultEntry)
		case unconsumed != 0:
			t.Errorf("%s: replay leaves %d input records", c.Name, unconsumed)
		}
		replayed++
	}
	// About half the corpus completes on this host (195 sessions; the
	// rest are the corpus's run-time faults and migrations to entries
	// that do not exist). The floor keeps a change to the host's inputs
	// from quietly emptying the test.
	if replayed < 190 {
		t.Errorf("replayed %d of %d corpus sessions, want at least 190", replayed, len(corpus))
	}
}

// TestReplayChecksReportedSession replays one real session against
// records a host could report, honest and falsified, and checks which
// of Replay's results exposes each lie.
func TestReplayChecksReportedSession(t *testing.T) {
	const code = `
proc main() {
    offer = read("price")
    best = offer * 2
    migrate("h2", "next")
}
proc next() { done() }`
	rows := []struct {
		name string
		lie  func(rec *SessionRecord)
		// what the replay must show against the reported record
		stateDiffers, entryDiffers bool
		unconsumed                 int
		err                        error
	}{
		{name: "honest", lie: func(*SessionRecord) {}},
		{name: "state tamper", lie: func(rec *SessionRecord) { rec.Resulting["best"] = value.Int(1) }, stateDiffers: true},
		{name: "entry redirect", lie: func(rec *SessionRecord) { rec.ResultEntry = "main" }, entryDiffers: true},
		{name: "extra input", lie: func(rec *SessionRecord) {
			rec.Input = append(rec.Input, agentlang.InputRecord{
				Seq: len(rec.Input), Call: "read",
				Args: []value.Value{value.Str("phantom")}, Result: value.Int(0),
			})
		}, unconsumed: 1},
		{name: "truncated input", lie: func(rec *SessionRecord) { rec.Input = rec.Input[:0] }, err: agentlang.ErrInputExhausted},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			h := newHost(t, "solo", func(c *Config) {
				c.Resources = map[string]value.Value{"price": value.Int(21)}
			})
			ag := newAgent(t, code, "main")
			rec, err := h.RunSession(context.Background(), ag, SessionOptions{})
			if err != nil {
				t.Fatal(err)
			}
			row.lie(rec)
			prog, err := ag.Program()
			if err != nil {
				t.Fatal(err)
			}
			state, entry, unconsumed, err := Replay(prog, rec.Entry, rec.Initial, rec.Input, nil)
			if row.err != nil {
				if !errors.Is(err, row.err) {
					t.Fatalf("err = %v, want %v", err, row.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if differs := len(state.Diff(rec.Resulting)) > 0; differs != row.stateDiffers {
				t.Errorf("state differs = %v, want %v (%v)", differs, row.stateDiffers, state.Diff(rec.Resulting))
			}
			if differs := entry != rec.ResultEntry; differs != row.entryDiffers {
				t.Errorf("entry %q vs reported %q: differs = %v, want %v", entry, rec.ResultEntry, differs, row.entryDiffers)
			}
			if unconsumed != row.unconsumed {
				t.Errorf("unconsumed = %d, want %d", unconsumed, row.unconsumed)
			}
		})
	}
}
