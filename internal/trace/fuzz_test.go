package trace

import (
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/canon"
)

// gobFigure3 is the Fig. 3 trace in the gob wire form traces travelled
// in before they had one encoding. It must now be refused.
const gobFigure3 = "237f0301010977697265547261636501ff800001010107456e747269657301ff8800000020ff87020101115b5d74726163652e77697265456e74727901ff880001ff8200003aff810301010977697265456e74727901ff82000103010653746d74494401040001054e616d657301ff8400010756616c73456e6301ff8600000016ff83020101085b5d737472696e6701ff8400010c000017ff85020101095b5d5b5d75696e743801ff8600010a000036ff80010501020101017801010a010200000000000000050001040001060001080101016b01010a0102000000000000000200010a0000"

// FuzzTraceUnmarshal feeds peer bytes to the trace decoder, which a
// host runs on every fetched reference package and, entry by entry, on
// every proof opening. Properties: no panic; an accepted input encodes
// back to exactly its bytes, its Digest is the digest of those bytes,
// each entry's EntryDigest is the digest of its wire bytes, and it holds
// no more entries than one per minEntryLen input bytes.
func FuzzTraceUnmarshal(f *testing.F) {
	_, fig3 := figure3(f)
	for _, tr := range []Trace{fig3, {}, marshalTrace()} {
		data, err := tr.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	gob, err := hex.DecodeString(gobFigure3)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := Unmarshal(gob); err == nil {
		f.Fatal("gob-era trace accepted")
	}
	f.Add(gob)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Unmarshal(data)
		if err != nil {
			return
		}
		if tr.Len() > len(data)/minEntryLen {
			t.Fatalf("%d entries from %d bytes", tr.Len(), len(data))
		}
		again, err := tr.Marshal()
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("Marshal(Unmarshal(x)) != x (%v)", err)
		}
		for i, e := range tr.Entries {
			wire, err := AppendEntry(nil, e)
			if err != nil || EntryDigest(e) != canon.HashBytes(wire) {
				t.Fatalf("entry %d: EntryDigest is not the digest of its wire bytes (%v)", i, err)
			}
		}
	})
}
