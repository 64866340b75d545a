package agentlang

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/canon"
	"repro/internal/value"
)

// fuzzEnv answers like goldenEnv and records each call with its
// arguments rendered, as a host's log would.
type fuzzEnv struct {
	count int64
	calls []string
}

func (e *fuzzEnv) Input(call string, args []value.Value) (value.Value, error) {
	e.count++
	e.calls = append(e.calls, call+"("+renderArgs(args)+")")
	return scriptedInput(call, args, e.count)
}

func (e *fuzzEnv) Output(action string, args []value.Value) error {
	e.calls = append(e.calls, action+"("+renderArgs(args)+")")
	return nil
}

// fuzzHook records which statements ran, in order.
type fuzzHook struct{ ids []int }

func (h *fuzzHook) Statement(id int, usedInput bool, _ []Assignment) {
	if usedInput {
		id = -id
	}
	h.ids = append(h.ids, id)
}
func (h *fuzzHook) EnterProc(string) {}
func (h *fuzzHook) ExitProc(string)  {}

// fuzzRun executes prog's main under a 10 000 step budget and returns a
// fingerprint of everything a re-executing host would compare: final
// state digest, outcome and steps, error text and environment calls,
// and, if hooked, the statement order.
func fuzzRun(prog *Program, hooked bool) string {
	st := goldenState()
	env, hook := &fuzzEnv{}, &fuzzHook{}
	opts := Options{Fuel: 10_000}
	if hooked {
		opts.Hook = hook
	}
	out, err := Run(prog, "main", st, env, opts)
	sum := sha256.Sum256([]byte(fmt.Sprint(env.calls)))
	run := fmt.Sprintf("state=%x out=%+v err=%v calls=%x", canon.HashState(st), out, err, sum[:8])
	if hooked {
		sum := sha256.Sum256([]byte(fmt.Sprint(hook.ids)))
		run += fmt.Sprintf(" trace=%x", sum[:8])
	}
	return run
}

// FuzzParseRun: Parse survives any source text, and what it accepts
// runs the same way twice — determinism is what reference states rest
// on — and the same way again with every x = append(x, e…) left to the
// copying builtin (copyingForm), and with no hook, as production
// sessions and re-executions run. Inputs the fuzzer finds are kept
// under testdata/fuzz.
func FuzzParseRun(f *testing.F) {
	for _, c := range readGolden(f) {
		if !strings.HasPrefix(c.Name, "work/") { // 150 000 steps each under the golden budget
			f.Add(c.Src)
		}
	}
	for _, c := range growCases {
		f.Add(c.src)
	}
	// The nesting reproducers of TestNestingBound, at a size the fuzzer
	// can still mutate.
	f.Add("proc main() { x = " + strings.Repeat("(", 2000) + "1" + strings.Repeat(")", 2000) + " }")
	f.Add("proc main() { x = 1" + strings.Repeat(" + 1", 2000) + " }")
	f.Add("proc main() { " + strings.Repeat("if true { ", 2000) + strings.Repeat(" }", 2000) + " }")

	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		if h := tallestExpr(prog); h > maxNesting {
			t.Fatalf("accepted an expression %d nodes tall", h)
		}
		first := fuzzRun(prog, true)
		if second := fuzzRun(prog, true); first != second {
			t.Fatalf("two runs of one program differ:\n %s\n %s", first, second)
		}
		if copying := fuzzRun(copyingForm(t, src), true); first != copying {
			t.Fatalf("self-append in place and copying differ:\n %s\n %s", first, copying)
		}
		if bare, _, _ := strings.Cut(first, " trace="); fuzzRun(prog, false) != bare {
			t.Fatalf("the runs with and without a hook differ:\n %s\n %s", first, fuzzRun(prog, false))
		}
	})
}
