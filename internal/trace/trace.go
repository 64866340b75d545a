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
//
// A trace has one encoding, the bytes its digest hashes:
//
//	trace := Tuple("trace", entry, entry, ...)
//	entry := Tuple(stmtID decimal, name, val, name, ...)
//
// with each val in the form canon.DecodeValue reads. An entry's bytes
// are the Merkle leaf the proof mechanism opens. Unmarshal reads peers'
// bytes, inside reference packages and proof openings, and accepts
// canonical bytes only.
package trace

import (
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

// maxBytes is what one canon tuple field holds: a reference package
// carries its trace in one. An entry costs at least minEntryLen bytes:
// field frame, tuple header, one-digit ID field.
const (
	label       = "trace"
	maxBytes    = canon.MaxLen
	minEntryLen = 4 + 6 + 4 + 1
	maxEntries  = maxBytes / minEntryLen
	maxIDLen    = 19 // the digits of the largest int64
)

// EntryDigest returns the digest of a single entry's wire form, used as
// a Merkle leaf by the proof mechanism. It digests what appendEntry
// writes, without AppendEntry's checks: a digest refuses nothing.
func EntryDigest(e Entry) canon.Digest {
	return canon.HashAppend(func(dst []byte) []byte { return appendEntry(dst, e) })
}

// entrySize returns the exact byte length of one entry's wire form.
func entrySize(e Entry) int {
	var num [20]byte
	n := 2 + 4 + 4 + len(strconv.AppendInt(num[:0], int64(e.StmtID), 10))
	for _, b := range e.Bindings {
		n += 4 + len(b.Name) + 4 + 1 + canon.SizeValue(b.Val)
	}
	return n
}

// Marshal encodes the trace for network transfer (audit fetches). It
// refuses a trace over 64 MiB with an error wrapping canon.ErrTooLarge,
// and an entry Unmarshal would refuse with one wrapping
// canon.ErrMalformed.
func (t Trace) Marshal() ([]byte, error) {
	size := 2 + 4 + 4 + len(label)
	for _, e := range t.Entries {
		size += 4 + entrySize(e)
	}
	if size > maxBytes {
		return nil, fmt.Errorf("trace: %d entries encode to %d bytes, over %d: %w", len(t.Entries), size, maxBytes, canon.ErrTooLarge)
	}
	out := canon.AppendTupleHeader(make([]byte, 0, size), 1+len(t.Entries))
	out = canon.AppendField(out, label)
	for i, e := range t.Entries {
		var err error
		if out, err = AppendEntry(canon.AppendFieldHeader(out, entrySize(e)), e); err != nil {
			return nil, fmt.Errorf("trace: entry %d: %w", i, err)
		}
	}
	return out, nil
}

// AppendEntry appends the entry's wire form to dst. It refuses what
// UnmarshalEntry would: a negative statement ID, or a name over
// canon.MaxNameLen.
func AppendEntry(dst []byte, e Entry) ([]byte, error) {
	if e.StmtID < 0 {
		return nil, fmt.Errorf("%w: statement ID %d", canon.ErrMalformed, e.StmtID)
	}
	for _, b := range e.Bindings {
		if len(b.Name) > canon.MaxNameLen {
			return nil, fmt.Errorf("%w: %d-byte binding name", canon.ErrMalformed, len(b.Name))
		}
	}
	return appendEntry(dst, e), nil
}

// appendEntry appends the entry's wire form to dst, checking nothing.
func appendEntry(dst []byte, e Entry) []byte {
	var num [20]byte
	dst = canon.AppendTupleHeader(dst, 1+2*len(e.Bindings))
	dst = canon.AppendField(dst, strconv.AppendInt(num[:0], int64(e.StmtID), 10))
	for _, b := range e.Bindings {
		dst = canon.AppendField(dst, b.Name)
		dst = canon.AppendValueField(dst, b.Val)
	}
	return dst
}

// Unmarshal parses a trace's wire form; a trace it returns encodes back
// to exactly data. Every rejection wraps canon.ErrMalformed.
func Unmarshal(data []byte) (Trace, error) {
	s, err := canon.ScanList(data, label, maxBytes, maxEntries)
	if err != nil {
		return Trace{}, fmt.Errorf("trace: decoding: %w", err)
	}
	t := Trace{Entries: make([]Entry, 0, min(s.Len(), len(data)/minEntryLen))}
	for i := 0; s.Len() > 0; i++ {
		e, err := UnmarshalEntry(s.Field(maxBytes))
		if err != nil {
			return Trace{}, fmt.Errorf("trace: decoding entry %d: %w", i, err)
		}
		t.Entries = append(t.Entries, e)
	}
	if err := s.End(); err != nil {
		return Trace{}, fmt.Errorf("trace: decoding: %w", err)
	}
	return t, nil
}

// UnmarshalEntry parses one entry's wire form, refusing a ragged entry
// (a name without its value), a statement ID that is negative or not in
// canonical decimal, a name over canon.MaxNameLen, a value that does not
// decode, and trailing bytes. Every rejection wraps canon.ErrMalformed.
func UnmarshalEntry(data []byte) (Entry, error) {
	r, err := canon.ScanTuple(data)
	if err != nil {
		return Entry{}, err
	}
	if r.Len()%2 != 1 {
		return Entry{}, fmt.Errorf("%w: entry of %d fields", canon.ErrMalformed, r.Len())
	}
	id := r.Field(maxIDLen)
	n, err := strconv.ParseUint(string(id), 10, 63) // no sign, fits an int
	if err != nil || len(id) > 1 && id[0] == '0' {
		return Entry{}, fmt.Errorf("%w: statement ID %q", canon.ErrMalformed, id)
	}
	e := Entry{StmtID: int(n)}
	for r.Len() > 0 {
		name := string(r.Field(canon.MaxNameLen))
		val := r.Field(maxBytes)
		if err := r.Err(); err != nil {
			return Entry{}, err
		}
		v, err := canon.DecodeValue(val)
		if err != nil {
			return Entry{}, fmt.Errorf("binding %q: %w", name, err)
		}
		e.Bindings = append(e.Bindings, Binding{Name: name, Val: v})
	}
	if err := r.End(); err != nil {
		return Entry{}, err
	}
	return e, nil
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
