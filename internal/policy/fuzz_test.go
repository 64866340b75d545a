package policy

import (
	"bytes"
	"context"
	"encoding/binary"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// decodeSeeds is the seed corpus of FuzzDecodeEntries: encoded lists of
// wire_test.go's entries around the count bound, and the reproducers of
// TestGossipWireBounds (a huge declared count in a tiny message, a
// truncated entry).
func decodeSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	for _, n := range []int{0, 1, 3, maxGossipEntries, maxGossipEntries + 1} {
		enc, err := encodeEntries(mkEntries(n))
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, enc)
	}
	one := seeds[1]
	return append(seeds,
		binary.BigEndian.AppendUint32([]byte{0x01, 0x09}, 1<<25),
		one[:len(one)-5],
		[]byte("garbage"))
}

// FuzzDecodeEntries feeds the gossip entry decoder — what agent
// baggage, exchange bodies and urgent reply envelopes all go through,
// and whose output keys the verify memo — the bytes a hostile peer
// could send. It must not panic; what it accepts is within the byte and
// count bounds and holds no more content than the message carried; and
// it encodes back to the same bytes. (That nothing unsigned gets from
// here into a ledger is TestUnsignedBytesNeverMerge, over this corpus.)
func FuzzDecodeEntries(f *testing.F) {
	for _, seed := range decodeSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := decodeEntriesBounded(data, maxGossipEntries)
		if err != nil {
			if entries != nil {
				t.Fatal("entries returned beside an error")
			}
			return
		}
		if len(data) > MaxGossipWireBytes || len(entries) > maxGossipEntries {
			t.Fatalf("accepted %d bytes holding %d entries", len(data), len(entries))
		}
		held := 0
		for _, e := range entries {
			if len(e.Observer) > maxPrincipalLen || len(e.Host) > maxPrincipalLen ||
				len(e.Sig.Signer) > maxPrincipalLen || len(e.Sig.Sig) > maxSigLen {
				t.Fatalf("accepted an entry with a field over its bound: %+v", e)
			}
			held += len(e.Observer) + len(e.Host) + len(e.Sig.Signer) + len(e.Sig.Sig) + 16
		}
		if held > len(data) {
			t.Fatalf("%d bytes decoded to %d bytes of entry content", len(data), held)
		}
		again, err := encodeEntries(entries)
		if err != nil {
			t.Fatalf("accepted entries do not encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("encode(decode(x)) != x")
		}
	})
}

// fuzzCorpus returns the seeds, whatever failing inputs a fuzz run has
// left under testdata/fuzz/FuzzDecodeEntries, and a few byte-flipped
// copies of each.
func fuzzCorpus(t *testing.T) [][]byte {
	corpus := decodeSeeds(t)
	files, _ := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecodeEntries", "*"))
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		// "go test fuzz v1\n[]byte(\"...\")\n"
		_, lit, ok := strings.Cut(string(raw), "[]byte(")
		if !ok {
			continue
		}
		if s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(lit), ")")); err == nil {
			corpus = append(corpus, []byte(s))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, in := range corpus {
		for k := 0; k < 8 && len(in) > 0; k++ {
			flipped := append([]byte(nil), in...)
			flipped[rng.Intn(len(flipped))] ^= byte(1 << rng.Intn(8))
			corpus = append(corpus, flipped)
		}
	}
	return corpus
}

// TestUnsignedBytesNeverMerge: whatever the decoder yields from the
// fuzz corpus, none of it is signed by a registered key, so at a node
// that puts it through arrival and departure — one whose verify memo is
// warm — no entry is kept, no ledger record moves and nothing is
// carried on. "observer", the name the seed entries claim, has a
// registered key that signed none of them.
func TestUnsignedBytesNeverMerge(t *testing.T) {
	ctx := context.Background()
	bed := newGossipBed(t, "observer", "node")
	node, hc, led := bed.mechs["node"], bed.hosts["node"], bed.leds["node"]
	bed.arrive("node", signedBy(bed.hosts["observer"], "suspect", 1.5, bed.now()))
	version := led.Version()

	decoded := 0
	for _, data := range fuzzCorpus(t) {
		entries := decodeEntries(data)
		decoded += len(entries)
		if kept := bed.arrive("node", entries...); len(kept) != 0 {
			t.Fatalf("%d unsigned entries kept", len(kept))
		}
		ag := mkGossipAgent(t)
		ag.SetBaggage(GossipMechanismName, data)
		if _, err := node.CheckAfterSession(ctx, hc, ag); err != nil {
			t.Fatal(err)
		}
		if err := node.PrepareDeparture(ctx, hc, ag, nil); err != nil {
			t.Fatal(err)
		}
		carried, _ := ag.GetBaggage(GossipMechanismName)
		for _, e := range decodeEntries(carried) {
			if e.Observer != "node" {
				t.Fatalf("unsigned entry carried on: %+v", e)
			}
		}
	}
	if decoded == 0 {
		t.Fatal("the corpus decoded to no entries at all")
	}
	if got := led.Version(); got != version {
		t.Fatalf("unsigned bytes moved the ledger version %d -> %d", version, got)
	}
}

// FuzzExchangeWire feeds the offer and delta decoders — what any peer
// reaches through reputation/offer, before a single signature is
// checked — the bytes a hostile peer could send. Neither may panic. An
// accepted offer carries a budget in [1, MaxExchangeBudget], at most
// maxSummaryEntries summary items and at most MaxExchangeBudget
// entries; an accepted delta at most MaxExchangeBudget entries. What
// either accepted encodes again, and that encoding decodes equal.
func FuzzExchangeWire(f *testing.F) {
	entries := mkEntries(3)
	// A summary at its item bound and one past it.
	var full []summaryItem
	for i := 0; i <= maxSummaryEntries; i++ {
		full = append(full, summaryItem{"h" + strconv.Itoa(i), 1})
	}
	seeds := [][]byte{[]byte("garbage")}
	for _, o := range []struct {
		budget  int
		summary []summaryItem
		entries []GossipEntry
	}{
		{32, []summaryItem{{"suspect", 1.5}, {"other", 0}}, entries},
		{0, nil, nil},
		{1 << 20, []summaryItem{{"suspect", math.NaN()}}, entries[:1]},
		{32, full[:maxSummaryEntries], nil},
		{32, full, nil},
	} {
		offer, err := encodeOffer("n1", o.budget, o.summary, o.entries)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, offer, offer[:len(offer)-3])
	}
	delta, err := encodeDelta(entries)
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, delta, delta[:len(delta)-3])
	for _, seed := range seeds {
		f.Add(seed)
	}
	sameEntries := func(a, b []GossipEntry) bool {
		return slices.EqualFunc(a, b, func(x, y GossipEntry) bool {
			return x.Observer == y.Observer && x.Host == y.Host &&
				math.Float64bits(x.Suspicion) == math.Float64bits(y.Suspicion) &&
				x.AtUnixNano == y.AtUnixNano && x.Sig.Signer == y.Sig.Signer && bytes.Equal(x.Sig.Sig, y.Sig.Sig)
		})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if initiator, budget, summary, got, err := decodeOffer(data); err == nil {
			if budget < 1 || budget > core.MaxExchangeBudget || len(summary) > maxSummaryEntries || len(got) > core.MaxExchangeBudget {
				t.Fatalf("accepted an offer with budget %d, %d summary items, %d entries", budget, len(summary), len(got))
			}
			var items []summaryItem
			for _, h := range slices.Sorted(maps.Keys(summary)) {
				items = append(items, summaryItem{h, summary[h]})
			}
			again, err := encodeOffer(initiator, budget, items, got)
			if err != nil {
				t.Fatalf("accepted offer does not encode: %v", err)
			}
			i2, b2, s2, e2, err := decodeOffer(again)
			if err != nil {
				t.Fatalf("re-encoded offer refused: %v", err)
			}
			sameFloat := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
			if i2 != initiator || b2 != budget || !maps.EqualFunc(s2, summary, sameFloat) || !sameEntries(e2, got) {
				t.Fatal("decode(encode(offer)) differs from the offer")
			}
		}
		if got, err := decodeDelta(data); err == nil {
			if len(got) > core.MaxExchangeBudget {
				t.Fatalf("accepted a delta of %d entries", len(got))
			}
			again, err := encodeDelta(got)
			if err != nil {
				t.Fatalf("accepted delta does not encode: %v", err)
			}
			e2, err := decodeDelta(again)
			if err != nil {
				t.Fatalf("re-encoded delta refused: %v", err)
			}
			if !sameEntries(e2, got) {
				t.Fatal("decode(encode(delta)) differs from the delta")
			}
		}
	})
}
