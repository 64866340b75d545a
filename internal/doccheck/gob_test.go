package doccheck

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"testing"
)

// gobImporters are the only non-test files that may import
// encoding/gob: core/builtins.go, for the operator built-ins' one codec pair
// (gobReply and decodeGob, whose replies external tools decode).
// The TCP transport speaks its own bounded frame (transport/tcp.go).
// Everything an agent carries from host to host — the verdict list,
// refproto's sealed session, appraisal's rules, the vigna and proof chains,
// the reference packages and the traces inside them — and every
// mechanism call body is a bounded canon.Tuple codec, and must stay
// one: a gob decoder sizes its allocations from the message it is
// decoding.
var gobImporters = map[string]bool{
	"internal/core/builtins.go": true,
}

// TestGobStaysOffBaggagePaths fails on any non-test Go file outside
// benchmark/ that imports encoding/gob without being on gobImporters,
// and on an entry of gobImporters that no longer imports it (shorten
// the list when a file moves to canon).
func TestGobStaysOffBaggagePaths(t *testing.T) {
	root := "../.."
	files, err := goSources(root, "benchmark")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, rel := range files {
		file, err := parser.ParseFile(token.NewFileSet(), filepath.Join(root, rel), nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range file.Imports {
			if pkg, _ := strconv.Unquote(imp.Path.Value); pkg != "encoding/gob" {
				continue
			}
			seen[rel] = true
			if !gobImporters[rel] {
				t.Errorf("%s imports encoding/gob: carry its bytes in a bounded canon.Tuple codec (policy/wire.go, core/verdict.go)", rel)
			}
		}
	}
	for rel := range gobImporters {
		if !seen[rel] {
			t.Errorf("%s is on the gob allowlist but no longer imports encoding/gob: drop it from gobImporters", rel)
		}
	}
}
