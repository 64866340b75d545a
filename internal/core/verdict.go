package core

import (
	"encoding/binary"
	"fmt"
	"strings"
	"unicode/utf8"

	"repro/internal/agent"
	"repro/internal/canon"
	"repro/internal/sigcrypto"
)

// Moment identifies when a check runs (paper §3.5, "moment of
// checking").
type Moment int

const (
	// AfterSession checks one execution session, as the first action on
	// the following host.
	AfterSession Moment = iota + 1
	// AfterTask checks the whole journey on the final host.
	AfterTask
)

// String returns the framework callback name associated with the
// moment, matching Fig. 4.
func (m Moment) String() string {
	switch m {
	case AfterSession:
		return "checkAfterSession"
	case AfterTask:
		return "checkAfterTask"
	default:
		return fmt.Sprintf("moment(%d)", int(m))
	}
}

// Verdict is the outcome of one check.
type Verdict struct {
	// AgentID is the agent the verdict was produced for. Mechanisms may
	// leave it empty; the node stamps it when recording the verdict.
	AgentID string
	// Mechanism names the mechanism that produced the verdict.
	Mechanism string
	// Moment is when the check ran.
	Moment Moment
	// CheckedHost is the host whose execution was examined; CheckedHop
	// its session index. For AfterTask verdicts covering the whole
	// journey, CheckedHost may be empty.
	CheckedHost string
	CheckedHop  int
	// Checker is the host that performed the check.
	Checker string
	// OK reports whether the execution was found consistent.
	OK bool
	// Suspect is the principal blamed when OK is false.
	Suspect string
	// Reason is a one-line explanation.
	Reason string
	// Evidence holds supporting detail, e.g. state diffs (the example
	// mechanism "is able to present the complete state of an attacked
	// agent", §5.1).
	Evidence []string
	// Sig is the recording node's signature over the verdict binding;
	// stamped by the node alongside AgentID. Verdicts travel in plain
	// agent baggage, so any decision that *trusts* a travelling verdict
	// (e.g. appraisal's repeat-damage attribution) must verify it and
	// treat the named Checker as the voucher.
	Sig sigcrypto.Signature
}

// bindingDigest is what Sig covers: every semantic field of the
// verdict, bound to the agent it was produced for.
func (v *Verdict) bindingDigest() canon.Digest {
	var hop [8]byte
	binary.BigEndian.PutUint64(hop[:], uint64(v.CheckedHop))
	okByte := byte(0)
	if v.OK {
		okByte = 1
	}
	fields := [][]byte{
		[]byte("core-verdict"),
		[]byte(v.AgentID),
		[]byte(v.Mechanism),
		{byte(v.Moment)},
		[]byte(v.CheckedHost),
		hop[:],
		[]byte(v.Checker),
		{okByte},
		[]byte(v.Suspect),
		[]byte(v.Reason),
	}
	for _, e := range v.Evidence {
		fields = append(fields, []byte(e))
	}
	return canon.HashTuple(fields...)
}

// Sign stamps the verdict with the recording node's signature. The
// node calls this when recording; AgentID must be set first.
func (v *Verdict) Sign(keys *sigcrypto.KeyPair) {
	v.Sig = keys.SignDigest(v.bindingDigest())
}

// VerifySig checks the verdict's signature and that it was produced by
// the verdict's named Checker. A travelling verdict that fails this
// check proves nothing — any host on the route could have written it.
func (v *Verdict) VerifySig(reg *sigcrypto.Registry) error {
	if v.Sig.Signer != v.Checker {
		return fmt.Errorf("core: verdict signed by %q, not by checker %q", v.Sig.Signer, v.Checker)
	}
	return reg.VerifyDigest(v.bindingDigest(), v.Sig)
}

// SigBatchEntry returns the entry that batch-verifies this verdict's
// signature (sigcrypto.Registry.VerifyBatch), for callers vetting many
// travelling verdicts at once. ok is false when the signature is not
// attributed to the verdict's named Checker — the same structural
// precondition VerifySig enforces first; such a verdict proves nothing
// and must not be fed to a batch.
func (v *Verdict) SigBatchEntry() (sigcrypto.BatchEntry, bool) {
	if v.Sig.Signer != v.Checker {
		return sigcrypto.BatchEntry{}, false
	}
	return sigcrypto.DigestEntry(v.bindingDigest(), v.Sig), true
}

// String renders the verdict for logs.
func (v Verdict) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s/%s]", v.Mechanism, v.Moment)
	if v.CheckedHost != "" {
		fmt.Fprintf(&b, " session %d@%s", v.CheckedHop, v.CheckedHost)
	}
	if v.Checker != "" {
		fmt.Fprintf(&b, " checked by %s", v.Checker)
	}
	if v.OK {
		b.WriteString(": OK")
	} else {
		fmt.Fprintf(&b, ": ATTACK DETECTED (suspect %s): %s", v.Suspect, v.Reason)
		for _, e := range v.Evidence {
			fmt.Fprintf(&b, "\n    evidence: %s", e)
		}
	}
	return b.String()
}

// verdictBaggageKey is where accumulated verdicts travel inside the
// agent so the final host (usually the owner's home host) sees the
// whole journey's results.
const verdictBaggageKey = "core/verdicts"

// The verdict-list wire codec. Every host on the route can write the
// list, so every host must assume the one it received is hostile: the
// total size and the verdict count are checked before anything is
// parsed, every field against its own bound, and the encoder refuses
// whatever the decoder would reject. Layout (all framing canon.Tuple):
//
//	list    := Tuple(verdictsWireLabel, verdict, verdict, ...)
//	verdict := Tuple(agentID, mechanism, moment8, checkedHost,
//	                 checkedHop8, checker, ok1, suspect, reason,
//	                 sigSigner, sigBytes, evidence, evidence, ...)
//
// The list is a tuple of records, so a verdict is appended by copying
// the encoded list and raising its count (recordVerdict); the verdicts
// already there are checked against these bounds but never decoded.
const (
	verdictsWireLabel = "core-verdicts"
	// verdictFixedFields is a verdict's arity before its evidence lines.
	verdictFixedFields = 11

	maxVerdictWireBytes = 4 << 20
	maxVerdicts         = 4096
	// maxVerdictTextLen bounds Reason and each evidence line.
	maxVerdictTextLen  = 256 << 10
	maxVerdictEvidence = 1024
	// maxVerdictTextBytes is what boundVerdict leaves of a verdict's
	// Reason and evidence together. Far below maxVerdictWireBytes, so a
	// recorded verdict always fits a list on its own.
	maxVerdictTextBytes = 1 << 20
	// moreLinesReserve is room kept for boundVerdict's "… N more lines".
	moreLinesReserve = 32
)

// emptyVerdictList is the encoding of a list holding no verdicts.
var emptyVerdictList = canon.Tuple([]byte(verdictsWireLabel))

// boundVerdict cuts v to what the verdict codec carries, so every
// verdict a node records also travels: the names a mechanism fills in
// to canon.MaxNameLen, the reason and each evidence line to
// maxVerdictTextLen, and the evidence to maxVerdictEvidence lines and
// maxVerdictTextBytes bytes, the lines past either bound replaced by
// one line counting them. Evidence is a checked host's own state
// rendered in full, so its size is the checked host's to choose. The
// node cuts before it signs, since the signature covers every field;
// Checker is the node's own name and is left alone.
func boundVerdict(v *Verdict) {
	for _, name := range []*string{&v.AgentID, &v.Mechanism, &v.CheckedHost, &v.Suspect} {
		*name = clip(*name, canon.MaxNameLen)
	}
	v.Reason = clip(v.Reason, maxVerdictTextLen)
	left := maxVerdictTextBytes - len(v.Reason) - moreLinesReserve
	var kept []string // nil until a line changes: the mechanism's slice is not ours to cut
	for i, e := range v.Evidence {
		line := clip(e, maxVerdictTextLen)
		if (i == maxVerdictEvidence-1 && len(v.Evidence) > maxVerdictEvidence) || len(line) > left {
			if kept == nil {
				kept = append(make([]string, 0, i+1), v.Evidence[:i]...)
			}
			v.Evidence = append(kept, fmt.Sprintf("… %d more lines", len(v.Evidence)-i))
			return
		}
		if kept == nil && len(line) != len(e) {
			kept = append(make([]string, 0, len(v.Evidence)), v.Evidence[:i]...)
		}
		if kept != nil {
			kept = append(kept, line)
		}
		left -= len(line)
	}
	if kept != nil {
		v.Evidence = kept
	}
}

// clip cuts s to at most n bytes, ending in "…" when it cuts, and never
// inside a UTF-8 sequence.
func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	end := n - len("…")
	for end > 0 && !utf8.RuneStart(s[end]) {
		end--
	}
	return s[:end] + "…"
}

// encodeVerdict returns v's record encoding.
func encodeVerdict(v *Verdict) ([]byte, error) {
	for _, name := range []string{v.AgentID, v.Mechanism, v.CheckedHost, v.Checker, v.Suspect} {
		if len(name) > canon.MaxNameLen {
			return nil, fmt.Errorf("core: verdict name field over %d bytes: %w", canon.MaxNameLen, canon.ErrMalformed)
		}
	}
	if len(v.Reason) > maxVerdictTextLen || len(v.Evidence) > maxVerdictEvidence {
		return nil, fmt.Errorf("core: verdict field over bound: %w", canon.ErrMalformed)
	}
	okByte := byte(0)
	if v.OK {
		okByte = 1
	}
	fields, err := v.Sig.AppendWire(append(make([][]byte, 0, verdictFixedFields+len(v.Evidence)),
		[]byte(v.AgentID),
		[]byte(v.Mechanism),
		canon.Uint64Field(uint64(v.Moment)),
		[]byte(v.CheckedHost),
		canon.Uint64Field(uint64(v.CheckedHop)),
		[]byte(v.Checker),
		[]byte{okByte},
		[]byte(v.Suspect),
		[]byte(v.Reason),
	))
	if err != nil {
		return nil, fmt.Errorf("core: verdict: %w", err)
	}
	for _, e := range v.Evidence {
		if len(e) > maxVerdictTextLen {
			return nil, fmt.Errorf("core: verdict evidence line over %d bytes: %w", maxVerdictTextLen, canon.ErrMalformed)
		}
		fields = append(fields, []byte(e))
	}
	return canon.Tuple(fields...), nil
}

// scanVerdict checks one verdict record against the codec's bounds and,
// when v is non-nil, fills v from it.
func scanVerdict(rec []byte, v *Verdict) error {
	s, err := canon.ScanTuple(rec)
	if err != nil {
		return err
	}
	if s.Len() < verdictFixedFields || s.Len()-verdictFixedFields > maxVerdictEvidence {
		return fmt.Errorf("%w: verdict has %d fields", canon.ErrMalformed, s.Len())
	}
	agentID := s.Field(canon.MaxNameLen)
	mechanism := s.Field(canon.MaxNameLen)
	moment := s.Uint64()
	checkedHost := s.Field(canon.MaxNameLen)
	checkedHop := s.Uint64()
	checker := s.Field(canon.MaxNameLen)
	ok := s.Field(1)
	suspect := s.Field(canon.MaxNameLen)
	reason := s.Field(maxVerdictTextLen)
	var sig sigcrypto.Signature
	var evidence []string
	if v != nil {
		sigcrypto.ScanSignature(&s, &sig)
		if s.Len() > 0 {
			evidence = make([]string, 0, s.Len())
		}
	} else {
		sigcrypto.ScanSignature(&s, nil)
	}
	for s.Len() > 0 {
		e := s.Field(maxVerdictTextLen)
		if v != nil {
			evidence = append(evidence, string(e))
		}
	}
	if err := s.End(); err != nil {
		return err
	}
	if len(ok) != 1 || ok[0] > 1 {
		return fmt.Errorf("%w: verdict OK flag", canon.ErrMalformed)
	}
	if v == nil {
		return nil
	}
	*v = Verdict{
		AgentID:     string(agentID),
		Mechanism:   string(mechanism),
		Moment:      Moment(moment),
		CheckedHost: string(checkedHost),
		CheckedHop:  int(checkedHop),
		Checker:     string(checker),
		OK:          ok[0] == 1,
		Suspect:     string(suspect),
		Reason:      string(reason),
		Evidence:    evidence,
		Sig:         sig,
	}
	return nil
}

// walkVerdicts validates a verdict list — its framing, its counts and
// every record's bounds — and returns how many verdicts it holds. With
// out nil nothing is materialised; otherwise out (of that length) is
// filled in list order.
func walkVerdicts(data []byte, out []Verdict) (int, error) {
	s, err := canon.ScanList(data, verdictsWireLabel, maxVerdictWireBytes, maxVerdicts)
	if err != nil {
		return 0, fmt.Errorf("core: verdict list: %w", err)
	}
	n := s.Len()
	for i := 0; i < n; i++ {
		var v *Verdict
		if out != nil {
			v = &out[i]
		}
		if err := scanVerdict(s.Field(maxVerdictWireBytes), v); err != nil {
			return 0, fmt.Errorf("core: verdict %d: %w", i, err)
		}
	}
	if err := s.End(); err != nil {
		return 0, fmt.Errorf("core: verdict list: %w", err)
	}
	return n, nil
}

// EncodeVerdicts serializes a verdict list in the form nodes carry it
// in agent baggage, refusing a list its decoder would reject. Nodes
// append to the list as they record verdicts; callers that assemble an
// agent's travelling record by hand (tests, replay tools) encode it
// whole.
func EncodeVerdicts(vs []Verdict) ([]byte, error) {
	if len(vs) > maxVerdicts {
		return nil, fmt.Errorf("core: %d verdicts over %d: %w", len(vs), maxVerdicts, canon.ErrMalformed)
	}
	recs := make([][]byte, len(vs))
	for i := range vs {
		rec, err := encodeVerdict(&vs[i])
		if err != nil {
			return nil, err
		}
		recs[i] = rec
	}
	out, err := canon.List(verdictsWireLabel, maxVerdictWireBytes, maxVerdicts, recs)
	if err != nil {
		return nil, fmt.Errorf("core: verdict list: %w", err)
	}
	return out, nil
}

// decodeVerdicts parses a verdict list from agent baggage.
func decodeVerdicts(data []byte) ([]Verdict, error) {
	n, err := walkVerdicts(data, nil)
	if err != nil || n == 0 {
		return nil, err
	}
	vs := make([]Verdict, n)
	if _, err := walkVerdicts(data, vs); err != nil {
		return nil, err
	}
	return vs, nil
}

// appendToVerdicts appends to dst the list with v added — the bytes
// EncodeVerdicts(append(decodeVerdicts(list), v)) would produce — after
// a walk that checks the verdicts already there without decoding them.
// A list that does not decode, or that is too full to take v, is
// replaced by one holding only v: a route's host can fill the list,
// and it must not thereby keep later verdicts, its own detection
// among them, off the record. The error is for a v the codec refuses.
func appendToVerdicts(dst, list []byte, v *Verdict) ([]byte, error) {
	rec, err := encodeVerdict(v)
	if err != nil {
		return nil, err
	}
	n, err := walkVerdicts(list, nil)
	if err != nil || n+1 > maxVerdicts || len(list)+4+len(rec) > maxVerdictWireBytes {
		list = emptyVerdictList
		if len(list)+4+len(rec) > maxVerdictWireBytes {
			return nil, fmt.Errorf("core: %d-byte verdict over the list's bound: %w", len(rec), canon.ErrMalformed)
		}
	}
	return canon.ExtendTuple(dst, list, rec), nil
}

// appendAgentVerdict adds v to the agent's travelling record. Verdict
// baggage that does not decode or is full is replaced by a list holding
// only v; a verdict the codec refuses (recordVerdict bounds every
// verdict first) leaves the baggage as it was.
func appendAgentVerdict(ag *agent.Agent, v *Verdict) {
	existing, _ := ag.GetBaggage(verdictBaggageKey)
	buf := canon.GetBuf()
	if enc, err := appendToVerdicts((*buf)[:0], existing, v); err == nil {
		ag.SetBaggage(verdictBaggageKey, enc) // copies
		*buf = enc
	}
	canon.PutBuf(buf)
}

// AgentVerdicts extracts the verdicts accumulated in an agent's
// baggage; it returns nil when the baggage is absent or does not
// decode.
func AgentVerdicts(ag *agent.Agent) []Verdict {
	data, _ := ag.GetBaggage(verdictBaggageKey)
	vs, err := decodeVerdicts(data)
	if err != nil {
		return nil
	}
	return vs
}
