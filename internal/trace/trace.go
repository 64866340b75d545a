// Package trace implements execution traces in the sense of Vigna's
// "Cryptographic Traces for Mobile Agents" as analysed by the paper
// (§3.3, Fig. 3): a trace is a sequence of pairs (n, s) where n is the
// identifier of the executed statement and s — present only when the
// statement modified agent state using information from outside the
// agent — lists the variable/value pairs after the statement.
//
// Traces are the most detailed form of "execution log" reference data
// (§3.5). In Vigna's protocol a host retains its trace locally and
// forwards only a signed commitment (hash) of it; during an audit the
// owner fetches the trace, checks it against the commitment, and
// re-executes. This package holds no traces: host.RunSession returns
// each session's trace once, and the mechanism that audits traces
// (vigna, proof) keeps what it will be asked for.
package trace

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/agentlang"
	"repro/internal/canon"
	"repro/internal/value"
)

// Binding is one variable/value pair recorded in a trace entry.
type Binding struct {
	Name string
	Val  value.Value
}

// Entry is one executed statement. Bindings is nil for statements that
// did not consume external input (the "modified trace" optimisation the
// paper discusses keeps identifiers; we keep them too because the audit
// protocol uses them for human-readable evidence, and they cost little).
type Entry struct {
	StmtID   int
	Bindings []Binding
}

// Trace is the execution protocol of one session.
type Trace struct {
	Entries []Entry
}

// Recorder is an agentlang.Hook that appends trace entries during
// execution. Statements that consumed input record their bindings, all
// others only their identifier.
type Recorder struct {
	trace Trace
}

var _ agentlang.Hook = (*Recorder)(nil)

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Statement implements agentlang.Hook.
func (r *Recorder) Statement(stmtID int, usedInput bool, assigned []agentlang.Assignment) {
	e := Entry{StmtID: stmtID}
	if usedInput && len(assigned) > 0 {
		e.Bindings = make([]Binding, len(assigned))
		for i, a := range assigned {
			e.Bindings[i] = Binding{Name: a.Name, Val: a.Val.Clone()}
		}
	}
	r.trace.Entries = append(r.trace.Entries, e)
}

// EnterProc implements agentlang.Hook.
func (r *Recorder) EnterProc(string) {}

// ExitProc implements agentlang.Hook.
func (r *Recorder) ExitProc(string) {}

// Take returns the recorded trace and resets the recorder.
func (r *Recorder) Take() Trace {
	t := r.trace
	r.trace = Trace{}
	return t
}

// Len returns the number of entries.
func (t Trace) Len() int { return len(t.Entries) }

// Digest returns the canonical digest of the whole trace, streamed into
// a pooled SHA-256 state: even a 10^5-entry trace digests without
// materializing its encoding. The encoding frames every entry, so
// traces with shifted boundaries cannot collide.
func (t Trace) Digest() canon.Digest {
	total := 0
	for _, e := range t.Entries {
		total += entrySize(e)
	}
	x := canon.AcquireHasher()
	defer canon.ReleaseHasher(x)
	x.TupleHeader(2)
	x.StringField("trace")
	x.BeginField(total)
	for _, e := range t.Entries {
		streamEntry(x, e)
	}
	return x.Sum()
}

// EntryDigest returns the canonical digest of a single entry, used as a
// Merkle leaf by the proof mechanism. Building a Merkle tree over a
// long trace calls this once per statement, so it streams too.
func EntryDigest(e Entry) canon.Digest {
	x := canon.AcquireHasher()
	defer canon.ReleaseHasher(x)
	streamEntry(x, e)
	return x.Sum()
}

// entrySize returns the exact byte length of one entry's tuple framing.
func entrySize(e Entry) int {
	n := 2 + 4 + 4 + decimalLen(e.StmtID)
	for _, b := range e.Bindings {
		n += 4 + len(b.Name) + 4 + 1 + canon.SizeValue(b.Val)
	}
	return n
}

func decimalLen(n int) int {
	var buf [20]byte
	return len(strconv.AppendInt(buf[:0], int64(n), 10))
}

// streamEntry writes the entry's tuple framing — byte-identical to
// Tuple(stmtID, name, EncodeValue(val), ...) — into the hasher.
func streamEntry(x *canon.Hasher, e Entry) {
	x.TupleHeader(1 + 2*len(e.Bindings))
	x.IntField(int64(e.StmtID))
	for _, b := range e.Bindings {
		x.StringField(b.Name)
		x.ValueField(b.Val)
	}
}

// Marshal serializes the trace for network transfer (audit fetches).
func (t Trace) Marshal() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wireTrace{Entries: toWire(t.Entries)}); err != nil {
		return nil, fmt.Errorf("trace: encoding: %w", err)
	}
	return buf.Bytes(), nil
}

// Unmarshal parses a serialized trace.
func Unmarshal(data []byte) (Trace, error) {
	var w wireTrace
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return Trace{}, fmt.Errorf("trace: decoding: %w", err)
	}
	// The wire carries names and values as two lists; a peer can send
	// them at different lengths.
	for i, we := range w.Entries {
		if len(we.Names) != len(we.ValsEnc) {
			return Trace{}, fmt.Errorf("trace: decoding: entry %d has %d names for %d values", i, len(we.Names), len(we.ValsEnc))
		}
	}
	return Trace{Entries: fromWire(w.Entries)}, nil
}

// wire types: bindings travel in canonical encoding to keep the gob
// surface small and deterministic.
type wireTrace struct {
	Entries []wireEntry
}

type wireEntry struct {
	StmtID  int
	Names   []string
	ValsEnc [][]byte
}

func toWire(entries []Entry) []wireEntry {
	out := make([]wireEntry, len(entries))
	for i, e := range entries {
		we := wireEntry{StmtID: e.StmtID}
		for _, b := range e.Bindings {
			we.Names = append(we.Names, b.Name)
			we.ValsEnc = append(we.ValsEnc, canon.EncodeValue(b.Val))
		}
		out[i] = we
	}
	return out
}

func fromWire(entries []wireEntry) []Entry {
	out := make([]Entry, len(entries))
	for i, we := range entries {
		e := Entry{StmtID: we.StmtID}
		for j := range we.Names {
			v, err := canon.DecodeValue(we.ValsEnc[j])
			if err != nil {
				// A malformed binding decodes to null; the digest check
				// against the commitment will fail, which is the correct
				// outcome for tampered data.
				v = value.Null()
			}
			e.Bindings = append(e.Bindings, Binding{Name: we.Names[j], Val: v})
		}
		out[i] = e
	}
	return out
}

// Format renders the trace in the style of Fig. 3b: one line per entry,
// "<stmtID>" alone or "<stmtID> <var>=<value> ...". prog may be nil; if
// given, the statement text is appended as a comment.
func (t Trace) Format(prog *agentlang.Program) string {
	var b strings.Builder
	for _, e := range t.Entries {
		fmt.Fprintf(&b, "%d", e.StmtID)
		for _, bind := range e.Bindings {
			fmt.Fprintf(&b, " %s=%s", bind.Name, bind.Val)
		}
		if prog != nil {
			if text := prog.StatementText(e.StmtID); text != "" {
				fmt.Fprintf(&b, "    # %s", text)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
