// Package agentlang implements the deterministic programming language
// that mobile agents in this reproduction are written in. It plays the
// role the Java virtual machine played for the paper's Mole system: a
// common execution substrate whose behaviour is identical on every
// host, so that a "reference host" can re-execute an agent and obtain
// exactly the state the original host should have produced.
//
// # Why a custom language
//
// Every reference-state mechanism (state appraisal, server replication,
// execution traces, proof verification, and the paper's example
// protocol) relies on three properties the substrate must provide:
//
//  1. Determinism: given the same initial state and the same input,
//     execution yields the same resulting state on every host.
//  2. A complete input boundary: everything nondeterministic (host
//     data, messages, time, randomness) enters through identifiable
//     operations that can be recorded and replayed.
//  3. Stable statement identity: execution traces record statement
//     identifiers (paper §3.3, Fig. 3); identical code must yield
//     identical identifiers everywhere.
//
// Go itself cannot offer (2) and (3) for arbitrary code, so agents are
// written in this small imperative language instead and interpreted.
//
// # Language reference
//
// A program is a sequence of procedure declarations:
//
//	proc main() {
//	    let offers = []                  # procedure-local variable
//	    best = 999999                    # agent state (global) variable
//	    offers = append(offers, read("price"))
//	    if offers[0] < best { best = offers[0] }
//	    migrate("shop2", "main")         # end session, continue on shop2
//	}
//
// Statements: let, assignment (with optional index path x[i]["k"] = v),
// if/else if/else, while, for init; cond; post { }, return, break,
// continue, and call statements. '#' starts a comment.
//
// Values: 64-bit integers, strings, booleans, lists, string-keyed maps,
// and null. Composites have reference semantics, like the Java objects
// of Mole agents.
//
// Variables: 'let' declares a procedure-scoped local (resolved to a
// slot at parse time). All other names are agent state variables — the
// "variable parts" of the agent that reference states are defined over.
// Entry procedures take no parameters; helper procedures may.
//
// Builtins (pure, never recorded as input): len, append, str, int, abs,
// min, max, sum, contains, keys, get, delete, sort, slice, isnull,
// list, map. The statement x = append(x, e…), one variable on both
// sides, takes amortized constant time; any other append, and list +,
// copies the whole list.
//
// Externals (routed through the host Env):
//
//   - Input (recorded in the session input log): read(key), recv(),
//     time(), rand(n), resource(key), here().
//   - Output (suppressed during checking re-execution): send(to, msg),
//     act(kind, ...).
//   - Control: migrate(host, entry) ends the session and requests
//     migration; done() terminates the agent. A normal return from the
//     entry procedure is equivalent to done().
//
// Limits: blocks and expressions nest at most 256 levels deep (a parse
// error beyond that: source text comes from untrusted peers, and every
// walk over the program recurses once per level), procedure calls 256
// deep, and a session executes at most Options.Fuel statements. An
// indexed assignment that would store a list or map inside itself
// (x[0] = x) is a runtime error: values are finite trees.
//
// # How a program is parsed
//
// Every host parses the code of every agent that arrives, so the front
// end is built for one pass with little garbage. The lexer scans bytes
// and decodes UTF-8 only at a byte outside ASCII; identifiers are
// letters, digits and '_' by unicode.IsLetter and unicode.IsDigit, and
// columns count runes. Its tokens are windows into the source. The
// parser keeps such a window only as a statement's snippet: every
// procedure, parameter and variable name and every string literal
// value it stores is a copy, one per distinct text, because those
// strings travel on into agent state, journal entries and events,
// where a window would keep the agent's whole source alive.
// testdata/parse.json holds the front end to the error texts,
// positions, snippets and trees of the one it replaced.
//
// # How a session executes
//
// Parse builds the AST and compiles nothing. Run compiles a procedure
// on its first call into a tree of Go closures, one per statement and
// expression node (compile.go), and caches it on the procedure, so a
// Program pays once for each procedure some session calls and never for
// one that no session reaches. Every later call, in any session sharing
// the Program, runs that code. The int shapes of the summation loop, an
// operator over a local and a local or an int literal, compile to
// larger units: x = a op b into a local is one closure that computes
// into x's slot, a loop tests such a condition without a closure, and a
// loop body and post made only of such assignments run as a flat list,
// on int64 copies of their slots while those hold ints.
// Each statement and each loop condition charges one step of the budget
// before it does anything. Locals, operator temporaries and builtin
// arguments live on one value stack per session. An appraisal rule
// (Expr) compiles the same way on its first evaluation.
//
// # Trace hooks
//
// An Options.Hook observes execution: one callback per statement (with
// the assigned variables when the statement consumed input — the trace
// format of Fig. 3) and procedure enter/exit callbacks used for the
// per-phase timing of Tables 1 and 2.
package agentlang
