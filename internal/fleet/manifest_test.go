package fleet_test

import (
	"bytes"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/fleet"
)

const sampleManifest = `# the three-host deployment of docs/OPERATIONS.md
home  127.0.0.1:7001 trusted
shop  127.0.0.1:7002            # untrusted
back  127.0.0.1:7003 aggregator trusted

hub   [::1]:7004     aggregator
`

func TestParseManifest(t *testing.T) {
	m, err := fleet.ParseManifest([]byte(sampleManifest))
	if err != nil {
		t.Fatal(err)
	}
	want := []fleet.Entry{
		{Name: "home", Addr: "127.0.0.1:7001", Trusted: true},
		{Name: "shop", Addr: "127.0.0.1:7002"},
		{Name: "back", Addr: "127.0.0.1:7003", Trusted: true, Aggregator: true},
		{Name: "hub", Addr: "[::1]:7004", Aggregator: true},
	}
	if !reflect.DeepEqual(m.Entries, want) {
		t.Fatalf("entries %+v, want %+v", m.Entries, want)
	}
	wantBook := map[string]string{"home": "127.0.0.1:7001", "shop": "127.0.0.1:7002", "back": "127.0.0.1:7003", "hub": "[::1]:7004"}
	if !maps.Equal(m.Book(), wantBook) {
		t.Errorf("book %v, want %v", m.Book(), wantBook)
	}
	if got := m.Aggregators(); !slices.Equal(got, []string{"back", "hub"}) {
		t.Errorf("aggregators %v", got)
	}
	if e, ok := m.Lookup("shop"); !ok || e != want[1] {
		t.Errorf("Lookup(shop) = %+v, %v", e, ok)
	}
	if _, ok := m.Lookup("nobody"); ok {
		t.Error("Lookup found a host the manifest does not list")
	}
}

// TestParseManifestRefuses pins each refusal and that it names its line.
func TestParseManifestRefuses(t *testing.T) {
	for _, tc := range []struct{ name, text, reason string }{
		{"duplicate name", "a :1\n\nb :2\na :3", `line 4: host "a" listed twice`},
		{"name only", "a", "line 1: want: name address"},
		{"no port", "# x\na 127.0.0.1", `line 2: host "a": address "127.0.0.1" is not host:port`},
		{"port out of range", "a :70000", "is not host:port"},
		{"named port", "a localhost:http", "is not host:port"},
		{"unknown role", "a :1 trustd", `line 1: host "a": unknown or repeated role "trustd"`},
		{"repeated role", "a :1 trusted trusted", `unknown or repeated role "trusted"`},
		{"extra field", "a :1 trusted aggregator x", `line 1: extra field "x"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := fleet.ParseManifest([]byte(tc.text))
			if err == nil || !strings.Contains(err.Error(), tc.reason) {
				t.Fatalf("err = %v, want a refusal containing %q", err, tc.reason)
			}
		})
	}
}

// render writes entries back as manifest text, one entry per line.
func render(entries []fleet.Entry) []byte {
	var b bytes.Buffer
	for _, e := range entries {
		fmt.Fprintf(&b, "%s %s", e.Name, e.Addr)
		if e.Trusted {
			b.WriteString(" trusted")
		}
		if e.Aggregator {
			b.WriteString(" aggregator")
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// FuzzParseManifest: the parser must not panic, must yield no more
// entries than the input has lines, and an accepted manifest rendered
// back one entry per line must parse to the same entries.
func FuzzParseManifest(f *testing.F) {
	f.Add([]byte(sampleManifest))
	f.Add([]byte("a :1 aggregator trusted\nb [::1]:0 # c\n"))
	f.Add([]byte("a :1\na :2"))
	f.Add([]byte("a b:c d e f"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := fleet.ParseManifest(data)
		if err != nil {
			return
		}
		if lines := bytes.Count(data, []byte("\n")) + 1; len(m.Entries) > lines {
			t.Fatalf("%d entries from %d lines", len(m.Entries), lines)
		}
		again, err := fleet.ParseManifest(render(m.Entries))
		if err != nil {
			t.Fatalf("rendered manifest refused: %v\n%s", err, render(m.Entries))
		}
		if !slices.Equal(again.Entries, m.Entries) {
			t.Fatalf("round trip %+v, want %+v", again.Entries, m.Entries)
		}
	})
}
