package doccheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"testing"
)

// assemblers are the calls that build a node or its protection stack.
// Only internal/fleet (and the packages that define them) may make
// them; everything else builds nodes through fleet.Open / Fleet.Add.
var assemblers = map[string]map[string]bool{
	"repro/internal/core":       {"NewNode": true},
	"repro/internal/protection": {"Assemble": true},
}

// TestNodesAreAssembledOnlyInFleet is the gate against the next
// hand-rolled keys → host → stack → node → register loop: no non-test
// Go file outside internal/fleet, internal/core, internal/protection
// and benchmark/ (the frozen yardstick, a module of its own) calls
// core.NewNode or protection.Assemble.
func TestNodesAreAssembledOnlyInFleet(t *testing.T) {
	root := "../.."
	files, err := goSources(root, "benchmark", "internal/fleet", "internal/core", "internal/protection")
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range files {
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, filepath.Join(root, rel), nil, 0)
		if err != nil {
			t.Fatal(err)
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
	}
}
