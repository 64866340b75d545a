package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/agent"
	"repro/internal/canon"
	"repro/internal/sigcrypto"
	"repro/internal/testutil"
)

// sampleVerdicts is one of every verdict shape a node records: OK and
// failed, with and without evidence, unattributed, at the task's end,
// and unsigned.
func sampleVerdicts(tb testing.TB) []Verdict {
	tb.Helper()
	keys, err := sigcrypto.GenerateKeyPair("checker")
	if err != nil {
		tb.Fatal(err)
	}
	vs := []Verdict{
		{AgentID: "a-1", Mechanism: "refproto", Moment: AfterSession, CheckedHost: "shop", CheckedHop: 1, Checker: "checker", OK: true},
		{AgentID: "a-1", Mechanism: "appraisal", Moment: AfterSession, CheckedHost: "shop", CheckedHop: 2, Checker: "checker",
			Suspect: "shop", Reason: "arrived state violates owner rules", Evidence: []string{`rule "a" violated`, "", "ünïcode\x00bytes"}},
		{AgentID: "a-1", Mechanism: "appraisal", Moment: AfterTask, CheckedHop: -1, Checker: "checker", Reason: "damage on record"},
		{AgentID: "a-1", Mechanism: "odd", Moment: Moment(-7), CheckedHop: 1 << 40, Checker: "checker", Suspect: strings.Repeat("s", canon.MaxNameLen)},
	}
	for i := range vs[:3] {
		vs[i].Sign(keys)
	}
	return vs
}

// TestVerdictCodecRoundTrip: a list decodes to exactly what was
// encoded, field for field — Evidence order and Sig included — and the
// encoding of what decoded is the input again.
func TestVerdictCodecRoundTrip(t *testing.T) {
	vs := sampleVerdicts(t)
	for n := 0; n <= len(vs); n++ {
		enc, err := EncodeVerdicts(vs[:n])
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeVerdicts(enc)
		if err != nil {
			t.Fatalf("%d verdicts: %v", n, err)
		}
		if n == 0 {
			if got != nil {
				t.Fatalf("empty list decoded to %v", got)
			}
			continue
		}
		if !reflect.DeepEqual(got, vs[:n]) {
			t.Fatalf("round trip of %d verdicts:\n got %#v\nwant %#v", n, got, vs[:n])
		}
		again, err := EncodeVerdicts(got)
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("encode(decode(x)) != x (%v)", err)
		}
		for i := range got[:min(n, 3)] {
			if got[i].bindingDigest() != vs[i].bindingDigest() || !bytes.Equal(got[i].Sig.Sig, vs[i].Sig.Sig) {
				t.Fatalf("verdict %d: the decoded copy no longer carries its signature's binding", i)
			}
		}
	}
}

// TestVerdictCodecBounds: the encoder refuses every over-bound list the
// decoder would refuse, and the decoder refuses each malformed shape
// with an error wrapping canon.ErrMalformed.
func TestVerdictCodecBounds(t *testing.T) {
	ok := sampleVerdicts(t)[0]
	over := map[string]func(v *Verdict){
		"agent ID":       func(v *Verdict) { v.AgentID = strings.Repeat("a", canon.MaxNameLen+1) },
		"checker":        func(v *Verdict) { v.Checker = strings.Repeat("c", canon.MaxNameLen+1) },
		"signer":         func(v *Verdict) { v.Sig.Signer = strings.Repeat("s", canon.MaxNameLen+1) },
		"signature":      func(v *Verdict) { v.Sig.Sig = make([]byte, sigcrypto.MaxSigLen+1) },
		"reason":         func(v *Verdict) { v.Reason = strings.Repeat("r", maxVerdictTextLen+1) },
		"evidence line":  func(v *Verdict) { v.Evidence = []string{strings.Repeat("e", maxVerdictTextLen+1)} },
		"evidence count": func(v *Verdict) { v.Evidence = make([]string, maxVerdictEvidence+1) },
	}
	for name, mutate := range over {
		v := ok
		mutate(&v)
		if _, err := EncodeVerdicts([]Verdict{v}); !errors.Is(err, canon.ErrMalformed) {
			t.Errorf("%s over bound: encode err = %v", name, err)
		}
		if _, err := appendToVerdicts(nil, nil, &v); err == nil {
			t.Errorf("%s over bound: appended", name)
		}
	}
	if _, err := EncodeVerdicts(make([]Verdict, maxVerdicts+1)); err == nil {
		t.Error("encoded more than maxVerdicts")
	}
	big := ok
	big.Reason = strings.Repeat("r", maxVerdictTextLen)
	if _, err := EncodeVerdicts(repeat(big, maxVerdictWireBytes/maxVerdictTextLen)); err == nil {
		t.Error("encoded a list over maxVerdictWireBytes")
	}

	good, err := EncodeVerdicts([]Verdict{ok})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := encodeVerdict(&ok)
	if err != nil {
		t.Fatal(err)
	}
	badFlag := bytes.Clone(rec)
	flagAt := bytes.Index(badFlag, []byte{0, 0, 0, 1, 1}) + 4 // the OK field: length 1, value 1
	badFlag[flagAt] = 2
	malformed := map[string][]byte{
		"empty":            nil,
		"garbage":          []byte("garbage"),
		"wrong label":      canon.Tuple([]byte("core-verdictz"), rec),
		"truncated":        good[:len(good)-1],
		"trailing byte":    append(bytes.Clone(good), 0),
		"short record":     canon.Tuple([]byte(verdictsWireLabel), canon.Tuple([]byte("a"))),
		"OK flag 2":        canon.Tuple([]byte(verdictsWireLabel), badFlag),
		"huge count":       {good[0], good[1], 0x7f, 0xff, 0, 1},
		"over total bound": append(bytes.Clone(good), make([]byte, maxVerdictWireBytes)...),
	}
	for name, data := range malformed {
		if _, err := decodeVerdicts(data); !errors.Is(err, canon.ErrMalformed) {
			t.Errorf("%s: decode err = %v, want canon.ErrMalformed", name, err)
		}
	}
}

func repeat(v Verdict, n int) []Verdict {
	vs := make([]Verdict, n)
	for i := range vs {
		vs[i] = v
	}
	return vs
}

// reencoded is the decode-append-encode rule appendAgentVerdict keeps:
// a list that does not decode, or would pass the list's bounds with v
// added, is dropped for one holding only v; a v the codec refuses
// leaves the baggage as it was (ok false).
func reencoded(existing []byte, v Verdict) (enc []byte, ok bool) {
	vs, err := decodeVerdicts(existing)
	if err != nil {
		vs = nil
	}
	enc, err = EncodeVerdicts(append(vs, v))
	if err != nil {
		enc, err = EncodeVerdicts([]Verdict{v})
	}
	return enc, err == nil
}

// baggageCorpus is verdict baggage as a node may find it: absent,
// empty, lists of every length, a full list, truncations, garbage, and
// bit-flipped copies of each.
func baggageCorpus(tb testing.TB) [][]byte {
	vs := sampleVerdicts(tb)
	corpus := [][]byte{nil, {}, []byte("garbage"), emptyVerdictList}
	for n := 1; n <= len(vs); n++ {
		enc, err := EncodeVerdicts(vs[:n])
		if err != nil {
			tb.Fatal(err)
		}
		corpus = append(corpus, enc, enc[:len(enc)/2], enc[:len(enc)-1])
	}
	full, err := EncodeVerdicts(repeat(vs[0], maxVerdicts))
	if err != nil {
		tb.Fatal(err)
	}
	corpus = append(corpus, full)
	rng := rand.New(rand.NewSource(1))
	for _, in := range corpus[:len(corpus)-1] {
		for k := 0; k < 16 && len(in) > 0; k++ {
			flipped := bytes.Clone(in)
			flipped[rng.Intn(len(flipped))] ^= byte(1 << rng.Intn(8))
			corpus = append(corpus, flipped)
		}
	}
	return corpus
}

// TestAppendVerdictMatchesReencoding: whatever verdict baggage an agent
// arrives with, malformed and full included, appending a verdict leaves
// exactly the bytes decoding, appending and re-encoding would have.
func TestAppendVerdictMatchesReencoding(t *testing.T) {
	v := sampleVerdicts(t)[1]
	for i, existing := range baggageCorpus(t) {
		ag := &agent.Agent{Baggage: map[string][]byte{}}
		if existing != nil {
			ag.SetBaggage(verdictBaggageKey, existing)
		}
		appendAgentVerdict(ag, &v)
		got, present := ag.GetBaggage(verdictBaggageKey)
		want, ok := reencoded(existing, v)
		if !ok {
			want = existing
		}
		if present != (want != nil || existing != nil) || !bytes.Equal(got, want) {
			t.Fatalf("corpus entry %d (%d bytes): appended baggage differs from decode-append-encode", i, len(existing))
		}
	}
}

// TestFullVerdictListTakesNewVerdict: a host on the route can fill the
// carried list to its count or byte bound; the next verdict recorded
// still lands, in a list holding only it.
func TestFullVerdictListTakesNewVerdict(t *testing.T) {
	vs := sampleVerdicts(t)
	byCount, err := EncodeVerdicts(repeat(vs[0], maxVerdicts))
	if err != nil {
		t.Fatal(err)
	}
	big := vs[0]
	big.Evidence = []string{strings.Repeat("e", maxVerdictTextLen)}
	nearly := repeat(big, maxVerdictWireBytes/maxVerdictTextLen-1)
	bySize, err := EncodeVerdicts(nearly)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EncodeVerdicts(append(nearly, big)); err == nil {
		t.Fatal("the near-full list takes another large verdict; the test needs a fuller one")
	}
	for name, full := range map[string][]byte{"by count": byCount, "by size": bySize} {
		ag := &agent.Agent{Baggage: map[string][]byte{verdictBaggageKey: full}}
		appendAgentVerdict(ag, &big)
		if got := AgentVerdicts(ag); len(got) != 1 || !reflect.DeepEqual(got[0], big) {
			t.Errorf("%s: after appending to a full list, %d verdicts carried", name, len(got))
		}
	}
}

// TestBoundVerdictAlwaysEncodes: whatever a mechanism puts in a verdict,
// once bounded it encodes, fits a list on its own, and keeps its start;
// a verdict inside the bounds is left exactly as it was.
func TestBoundVerdictAlwaysEncodes(t *testing.T) {
	huge := strings.Repeat("ü", 200<<10) // 400 KiB of two-byte runes
	lines := make([]string, 2000)
	for i := range lines {
		lines[i] = fmt.Sprintf("state mismatch: junk%04d = %d vs <absent>", i, i)
	}
	for name, v := range map[string]Verdict{
		"many lines":  {Suspect: "shop", Reason: "state differs", Evidence: lines},
		"long lines":  {Suspect: "shop", Reason: huge, Evidence: []string{huge, huge, huge, huge}},
		"long names":  {AgentID: huge, Mechanism: huge, CheckedHost: huge, Suspect: huge},
		"both at max": {Reason: huge, Evidence: append(append([]string(nil), lines...), huge)},
	} {
		orig := append([]string(nil), v.Evidence...)
		evidence := v.Evidence
		boundVerdict(&v)
		if !reflect.DeepEqual(evidence, orig) {
			t.Errorf("%s: the mechanism's evidence slice was modified", name)
		}
		for _, s := range append([]string{v.AgentID, v.Mechanism, v.CheckedHost, v.Suspect, v.Reason}, v.Evidence...) {
			if !utf8.ValidString(s) {
				t.Fatalf("%s: a cut field is no longer valid UTF-8", name)
			}
		}
		if len(v.Evidence) > 0 && len(orig) > 0 && !strings.HasPrefix(orig[0], strings.TrimSuffix(v.Evidence[0], "…")) {
			t.Errorf("%s: the first evidence line lost its start", name)
		}
		if len(v.Evidence) < len(orig) && !strings.HasSuffix(v.Evidence[len(v.Evidence)-1], fmt.Sprintf("%d more lines", len(orig)-len(v.Evidence)+1)) {
			t.Errorf("%s: dropped lines are not counted: %q", name, v.Evidence[len(v.Evidence)-1])
		}
		if _, err := appendToVerdicts(nil, nil, &v); err != nil {
			t.Errorf("%s: bounded verdict does not fit a list: %v", name, err)
		}
	}
	for _, v := range sampleVerdicts(t) {
		want := v
		boundVerdict(&v)
		if !reflect.DeepEqual(v, want) {
			t.Errorf("a verdict inside the bounds changed: %+v", v)
		}
	}
}

// TestGobEraVerdictBaggageRefused: a verdict list written by a binary
// that carried it as gob is refused as malformed, not decoded — an
// upgraded node lists no verdicts for it and starts a fresh list.
func TestGobEraVerdictBaggageRefused(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(sampleVerdicts(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeVerdicts(buf.Bytes()); !errors.Is(err, canon.ErrMalformed) {
		t.Fatalf("gob verdict list: err = %v, want canon.ErrMalformed", err)
	}
	ag := &agent.Agent{Baggage: map[string][]byte{verdictBaggageKey: buf.Bytes()}}
	if vs := AgentVerdicts(ag); vs != nil {
		t.Fatalf("gob verdict list read as %d verdicts", len(vs))
	}
	v := sampleVerdicts(t)[0]
	appendAgentVerdict(ag, &v)
	if vs := AgentVerdicts(ag); len(vs) != 1 || !reflect.DeepEqual(vs[0], v) {
		t.Fatalf("after a verdict is recorded: %v", vs)
	}
}

// TestAppendVerdictAllocsFlat: recording a verdict never materialises
// the verdicts already carried, so its allocations do not grow with
// the list.
func TestAppendVerdictAllocsFlat(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation ceilings are not meaningful under the race detector")
	}
	v := sampleVerdicts(t)[1]
	allocs := func(listLen int) float64 {
		list, err := EncodeVerdicts(repeat(v, listLen))
		if err != nil {
			t.Fatal(err)
		}
		ag := &agent.Agent{Baggage: map[string][]byte{}}
		return testing.AllocsPerRun(20, func() {
			ag.SetBaggage(verdictBaggageKey, list)
			appendAgentVerdict(ag, &v)
		})
	}
	short, long := allocs(2), allocs(200)
	if long > short || long > 24 {
		t.Errorf("appending to 2 verdicts: %.0f allocs, to 200: %.0f; want equal and <= 24", short, long)
	}
}

// BenchmarkItineraryVerdicts is a 5-session itinerary's verdict
// bookkeeping under three mechanisms: 15 verdicts recorded one by one,
// then the list read once at the end.
func BenchmarkItineraryVerdicts(b *testing.B) {
	vs := sampleVerdicts(b)[:2]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ag := &agent.Agent{Baggage: map[string][]byte{}}
		for k := 0; k < 15; k++ {
			appendAgentVerdict(ag, &vs[k%2])
		}
		if len(AgentVerdicts(ag)) != 15 {
			b.Fatal("verdicts lost")
		}
	}
}

// FuzzDecodeVerdicts feeds the verdict-list decoder — what every host
// on a route may write into an agent's baggage — arbitrary bytes. It
// must not panic; what it accepts is within the byte and count bounds,
// holds no more verdicts, lines or bytes than its length could carry,
// and encodes back to the same bytes; and appending a verdict to any
// input gives what decoding, appending and re-encoding gives.
func FuzzDecodeVerdicts(f *testing.F) {
	for _, seed := range baggageCorpus(f) {
		if len(seed) < 4096 { // not the full list: the fuzzer mutates small inputs faster
			f.Add(seed)
		}
	}
	v := sampleVerdicts(f)[1]
	f.Fuzz(func(t *testing.T, data []byte) {
		vs, err := decodeVerdicts(data)
		want, ok := reencoded(data, v)
		got, appendErr := appendToVerdicts(nil, data, &v)
		if ok != (appendErr == nil) || !bytes.Equal(got, want) {
			t.Fatalf("append differs from decode-append-encode (%v)", appendErr)
		}
		if err != nil {
			if vs != nil {
				t.Fatal("verdicts returned beside an error")
			}
			return
		}
		fields, text := 0, 0
		for _, v := range vs {
			fields += verdictFixedFields + len(v.Evidence)
			text += len(v.AgentID) + len(v.Mechanism) + len(v.CheckedHost) + len(v.Checker) +
				len(v.Suspect) + len(v.Reason) + len(v.Sig.Signer) + len(v.Sig.Sig)
			for _, e := range v.Evidence {
				text += len(e)
			}
		}
		if len(data) > maxVerdictWireBytes || len(vs) > maxVerdicts || 4*fields > len(data) || text > len(data) {
			t.Fatalf("accepted %d bytes holding %d verdicts, %d fields, %d bytes of text", len(data), len(vs), fields, text)
		}
		again, err := EncodeVerdicts(vs)
		if err != nil {
			t.Fatalf("accepted verdicts do not encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("encode(decode(x)) != x")
		}
	})
}
