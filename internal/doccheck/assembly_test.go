package doccheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// assemblers are the calls that build a node or its protection stack.
// Only internal/fleet (and the packages that define them) may make
// them; everything else builds nodes through fleet.Open / Fleet.Add.
var assemblers = map[string]map[string]bool{
	"repro/internal/core":       {"NewNode": true},
	"repro/internal/protection": {"Assemble": true, "Mechanisms": true},
}

// TestNodesAreAssembledOnlyInFleet is the gate against the next
// hand-rolled keys → host → stack → node → register loop: no non-test
// Go file outside internal/fleet, internal/core, internal/protection
// and benchmark/ (the frozen yardstick, a module of its own) calls
// core.NewNode, protection.Assemble or protection.Mechanisms.
func TestNodesAreAssembledOnlyInFleet(t *testing.T) {
	root := "../.."
	exempt := map[string]bool{
		"benchmark":           true,
		".bench_build":        true,
		".git":                true,
		"internal/fleet":      true,
		"internal/core":       true,
		"internal/protection": true,
	}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if exempt[filepath.ToSlash(rel)] {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		// Local name of each assembler package in this file.
		local := make(map[string]map[string]bool)
		for _, imp := range file.Imports {
			pkg, _ := strconv.Unquote(imp.Path.Value)
			funcs, ok := assemblers[pkg]
			if !ok {
				continue
			}
			name := filepath.Base(pkg)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			local[name] = funcs
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && local[x.Name][sel.Sel.Name] {
				t.Errorf("%s: %s.%s outside internal/fleet — build nodes with fleet.Open or Fleet.Add",
					fset.Position(sel.Pos()), x.Name, sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
