package lib

import "testing"

func TestOnlyTests(t *testing.T) {
	c := Config{OnlyTestsSet: true}
	o := Options{Verbose: true}
	sq := Square{Side: 1, Label: "unit"}
	if !c.OnlyTestsSet || !o.Verbose || sq.Label == "" || OnlyTestsCall() != 42 {
		t.Fatal("fixture")
	}
}
