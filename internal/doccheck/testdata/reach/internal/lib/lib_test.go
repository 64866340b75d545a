package lib

import "testing"

func TestOnlyTests(t *testing.T) {
	c := Config{OnlyTestsSet: true}
	if !c.OnlyTestsSet || OnlyTestsCall() != 42 {
		t.Fatal("fixture")
	}
}
