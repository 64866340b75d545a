package doccheck

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// reachAllow lists the declarations under internal/ that no production
// root reaches and that stay on purpose. A key names one finding
// ("core.EncodeVerdicts") or everything under it ("testutil",
// "policy.PeerScore"). Each reason is "test seam: <pkg>.<Test> …",
// naming a test that exists, or "operator hook: OPERATIONS §<section>".
// An entry that matches no finding fails the gate, so the list can
// only shrink.
var reachAllow = map[string]string{
	"agent.Agent.MutateState":         "test seam: agent.TestStateDigestInvalidation",
	"agentlang.Options.Fuel":          "test seam: agentlang.TestFuelExhaustion shrinks the step budget",
	"agentlang.Program.NumStatements": "test seam: agentlang.TestStatementIDsSequential",
	"agentlang.Program.Source":        "test seam: agentlang.TestHasProcAndSource",
	"attack":                          "test seam: attack.TestDetectionMatrix and the mechanism tests take their adversaries and the paper's attack areas from here",
	"campaign.Score.Fingerprint":      "test seam: campaign.TestCampaignDeterminism",
	"canon.HashValue":                 "test seam: canon.TestStreamingHashMatchesMaterialized",
	"core.EncodeVerdicts":             "test seam: core.TestVerdictCodecBounds encodes lists no node builds",
	"core.Receipt.Wait":               "test seam: core.TestIntakeBackpressure and the other core tests that block on a receipt",
	"core.Verdict.VerifySig":          "test seam: appraisal.FuzzAppraisalBaggage checks the verdicts it vouches for",
	"events.Bus.NextSeq":              "test seam: events.TestCursorResumeAcrossJournalWrap",
	"events.MetricsSnapshot.Counter":  "test seam: events.TestSnapshotReflectsPriorPublishes",
	"faultnet.Fabric.Down":            "test seam: faultnet.TestKillRestartHooks",
	"faultnet.LinkFaults.DelayMax":    "test seam: faultnet.TestDelayHonoursContext",
	"faultnet.LinkFaults.DelayMin":    "test seam: faultnet.TestDelayHonoursContext",
	"faultnet.LinkFaults.Duplicate":   "test seam: faultnet.TestDuplicateCallsOnly",
	"faultnet.Schedule.LastStep":      "test seam: faultnet.TestScheduleApply",
	"fleet.Fleet.WrapNet":             "test seam: fleet.TestWrapNetOnEveryFabric and the refproto and vigna in-flight tamper tests",
	"fleet.Fleet.tcp":                 "test seam: core.TestTCPEndToEnd and the other TCP drills build loopback fleets",
	"fleet.NewTCP":                    "test seam: core.TestTCPEndToEnd and the other TCP drills build loopback fleets",
	"host.Config.Clock":               "test seam: host.TestCustomClockAndFeed",
	"planner.Config.Now":              "test seam: planner.TestScenarioHotspot moves the clock past the overload half-life",
	"platformtest":                    "test seam: core.TestConcurrentItinerariesE2E and the mechanism packages' tests build their beds with it",
	"policy.Exchange.Scheduler":       "test seam: policy.TestExchangeUpdatePeers",
	"policy.GateConfig.AuditInterval": "test seam: policy.TestGateEscalation audits every 4th session and turns audits off",
	"policy.Gate.Ledger":              "test seam: protection.TestAssembleAdaptive",
	"policy.PeerScore":                "test seam: policy.TestSchedulerStateRoundTrip",
	"policy.Reputation.Ledger":        "test seam: protection.TestAssembleAdaptive",
	"policy.Scheduler.Len":            "test seam: policy.TestExchangeUpdatePeers",
	"policy.Scheduler.Snapshot":       "test seam: policy.TestSchedulerStateRoundTrip",
	"replication.EqualResources":      "test seam: replication.TestEqualResources",
	"shardstore.Config.Now":           "test seam: shardstore.TestTTLExpiry",
	"stopwatch.PhaseTimer.Phases":     "test seam: stopwatch.TestPhases",
	"testutil":                        "test seam: fleet.TestSameResultOnEveryFabric and the other tests that check for leaked goroutines and descriptors",
	"transport.Server.ConnCount":      "test seam: transport.TestTCPConnectionReuse",
}

// keptKnobs are the only fields of exported …Config and …Options
// structs that reachAllow may excuse, each until the ROADMAP item that
// removes it: the resource budget (Fuel), the audit-interval sweep
// (AuditInterval) and the simulation's one clock (Clock, Now). Any
// other such field that only a test sets is a knob nobody sets: delete
// it, and keep its value in a constant, or in an unexported variable
// the package's own tests lower.
var keptKnobs = map[string]bool{
	"agentlang.Options.Fuel":          true,
	"policy.GateConfig.AuditInterval": true,
	"host.Config.Clock":               true,
	"shardstore.Config.Now":           true,
	"planner.Config.Now":              true,
}

// refusedKnob reports whether reachAllow may not excuse f under key: f
// is a field of an exported struct named …Config or …Options, key names
// that field or its struct rather than a whole test-support package
// (platformtest, whose options are its API), and f is not one of the
// keptKnobs.
func refusedKnob(key string, f finding) bool {
	parts := strings.Split(f.id, ".")
	if f.kind != "field" || len(parts) < 3 || !strings.Contains(key, ".") || keptKnobs[f.id] {
		return false
	}
	typ := parts[1]
	return token.IsExported(typ) && (strings.HasSuffix(typ, "Config") || strings.HasSuffix(typ, "Options"))
}

// seamTest matches the test a "test seam: …" reason names.
var seamTest = regexp.MustCompile(`^test seam: ([\w/]+)\.((?:Test|Fuzz)\w*)`)

// reasonHolds reports whether a reachAllow reason names a test that
// exists, or an OPERATIONS section.
func reasonHolds(reason string) error {
	if section, ok := strings.CutPrefix(reason, "operator hook: OPERATIONS §"); ok {
		ops, err := os.ReadFile("../../docs/OPERATIONS.md")
		if err != nil {
			return err
		}
		if !strings.Contains(string(ops), "## "+section) {
			return fmt.Errorf("docs/OPERATIONS.md has no section %q", section)
		}
		return nil
	}
	m := seamTest.FindStringSubmatch(reason)
	if m == nil {
		return fmt.Errorf("neither \"test seam: <pkg>.<Test> …\" nor \"operator hook: OPERATIONS §…\"")
	}
	tests, err := filepath.Glob(filepath.Join("../../internal", m[1], "*_test.go"))
	if err != nil {
		return err
	}
	for _, file := range tests {
		src, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		if strings.Contains(string(src), "\nfunc "+m[2]+"(") {
			return nil
		}
	}
	return fmt.Errorf("internal/%s declares no %s", m[1], m[2])
}

// dynamicMethods are the method names the standard library calls
// through interfaces it discovers at run time (fmt, errors, the
// encoders), so no Go source in the tree names the call.
var dynamicMethods = []string{
	"Error", "String", "GoString", "Format", "Unwrap", "Is", "As",
	"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText",
	"MarshalBinary", "UnmarshalBinary", "GobEncode", "GobDecode",
}

// TestProductionReachability is the gate against code no deployment
// runs. It type-checks every non-test file of the tree and of
// benchmark/, then walks from the production roots — every main, every
// init and package-level initializer linked into a binary, and the
// benchmarks DESIGN §6 lists — and fails on every function, method,
// type, constant, variable and struct field under internal/ that the
// walk does not reach and reachAllow does not excuse. A field counts
// only where reached code writes it: a field that is only read always
// holds its zero value, so it is a knob nobody sets.
func TestProductionReachability(t *testing.T) {
	start := time.Now()
	benches, err := design6Benchmarks("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	res, err := unreached("../..", "repro", benches)
	if err != nil {
		t.Fatal(err)
	}
	matched := map[string]bool{}
	allowed := map[string]int{}
	for _, f := range res.findings {
		if key, ok := allowKey(f.id); ok {
			if refusedKnob(key, f) {
				t.Errorf("%s: reachAllow[%q] excuses %s, a config field no production caller sets: delete the field, not allowlist it",
					f.pos, key, f.id)
			}
			matched[key] = true
			allowed[f.kind]++
			continue
		}
		t.Errorf("%s: %s %s is reached by no production root: delete it, or allowlist it in reachAllow as a test seam or an operator hook",
			f.pos, f.kind, f.id)
	}
	for key, reason := range reachAllow {
		if err := reasonHolds(reason); err != nil {
			t.Errorf("reachAllow[%q]: reason %q: %v", key, reason, err)
		}
		if !matched[key] {
			t.Errorf("reachAllow[%q] matches no finding any more: drop it", key)
		}
	}
	for _, kind := range declKinds {
		t.Logf("%-6s %5d declared, %5d reached, %4d allowlisted", kind, res.declared[kind], res.reached[kind], allowed[kind])
	}
	t.Logf("walked %d packages in %v", res.packages, time.Since(start).Round(time.Millisecond))
}

// TestReachabilityFixture pins the gate's rules on testdata/reach: a
// function only a test calls, fields only a test sets and fields only
// a constructor's defaults set (to a constant, to time.Now) are
// findings; a method reached only through an interface call, an Error
// method reached only through error and a sticky first error set under
// a nil check are not. Of the findings, reachAllow may not excuse the
// fields of Config and Options under their own keys; Square's field,
// and any field under the package's key, it may.
func TestReachabilityFixture(t *testing.T) {
	res, err := unreached("testdata/reach", "reach", nil)
	if err != nil {
		t.Fatal(err)
	}
	var got, knobs []string
	for _, f := range res.findings {
		got = append(got, f.kind+" "+f.id)
		if refusedKnob(f.id, f) {
			knobs = append(knobs, f.id)
		}
		if refusedKnob("lib", f) {
			t.Errorf("the package key excuses %s as a config knob", f.id)
		}
	}
	want := []string{"func lib.OnlyTestsCall", "field lib.Config.OnlyTestsSet", "field lib.Config.Retries",
		"field lib.Config.Clock", "field lib.Options.Verbose", "field lib.Square.Label"}
	wantKnobs := []string{"lib.Config.OnlyTestsSet", "lib.Config.Retries", "lib.Config.Clock", "lib.Options.Verbose"}
	for _, l := range [][]string{got, want, knobs, wantKnobs} {
		sort.Strings(l)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
	if strings.Join(knobs, "\n") != strings.Join(wantKnobs, "\n") {
		t.Errorf("config knobs:\n  %s\nwant:\n  %s", strings.Join(knobs, "\n  "), strings.Join(wantKnobs, "\n  "))
	}
}

// allowKey returns the reachAllow key that excuses id, if any.
func allowKey(id string) (string, bool) {
	for key := id; ; {
		if _, ok := reachAllow[key]; ok {
			return key, true
		}
		i := strings.LastIndex(key, ".")
		if i < 0 {
			return "", false
		}
		key = key[:i]
	}
}

// benchRoot is one benchmark named as a root: a function in the
// _test.go files of a package, optionally qualified by the package's
// directory name.
type benchRoot struct{ pkg, name string }

// design6Benchmarks reads the Benchmark* functions DESIGN §6 lists.
func design6Benchmarks(file string) ([]benchRoot, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	text := string(data)
	start := strings.Index(text, "\n## §6 ")
	if start < 0 {
		return nil, fmt.Errorf("%s: no §6", file)
	}
	text = text[start+1:]
	if end := strings.Index(text, "\n## §"); end >= 0 {
		text = text[:end]
	}
	var out []benchRoot
	seen := map[benchRoot]bool{}
	for _, m := range regexp.MustCompile(`(?:(\w+)\.)?(Benchmark\w+)`).FindAllStringSubmatch(text, -1) {
		b := benchRoot{m[1], m[2]}
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	return out, nil
}

// declKinds are the kinds of declaration the gate reports.
var declKinds = []string{"func", "method", "type", "const", "var", "field"}

// finding is one declaration no root reaches.
type finding struct {
	id, kind string
	pos      token.Position
}

// reachResult is what one walk found.
type reachResult struct {
	findings          []finding
	declared, reached map[string]int
	packages          int
}

// decl is one package-level declaration, method or struct field.
type decl struct {
	id, kind string
	node     ast.Node    // walked once reached; nil for a field
	info     *types.Info // type information node was checked with
	report   bool        // in a non-test file under internal/
}

// reach is one walk over a source tree.
type reach struct {
	fset   *token.FileSet
	root   string // directory of the tree
	module string // import path of root
	std    types.Importer
	dirs   map[string][]string // directory → its non-test files
	pkgs   map[string]*checked // import path → non-test package
	tested map[string]*checked // import path → package checked with its tests
	tests  []string            // every _test.go file, once listed
	decls  map[token.Pos]*decl

	seen   map[token.Pos]bool // reached declarations and written fields
	queue  []*decl
	named  []*types.Named        // reached types of the tree
	iface  map[string]bool       // method names called through an interface
	stdsig map[types.Object]bool // standard-library objects already scanned
}

// checked is one type-checked package.
type checked struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// unreached type-checks the tree at root, whose import path is module,
// and reports what its roots leave unreached.
func unreached(root, module string, benches []benchRoot) (*reachResult, error) {
	files, err := goSources(root)
	if err != nil {
		return nil, err
	}
	// Standard-library packages come from source; cgo variants would
	// need a C toolchain and change nothing the walk sees.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	r := &reach{
		fset:   fset,
		root:   root,
		module: module,
		std:    importer.ForCompiler(fset, "source", nil),
		dirs:   map[string][]string{},
		pkgs:   map[string]*checked{},
		tested: map[string]*checked{},
		decls:  map[token.Pos]*decl{},
		seen:   map[token.Pos]bool{},
		iface:  map[string]bool{},
		stdsig: map[types.Object]bool{},
	}
	for _, rel := range files {
		dir := path.Dir(rel)
		if ok, _ := build.Default.MatchFile(filepath.Join(root, dir), path.Base(rel)); ok {
			r.dirs[dir] = append(r.dirs[dir], rel)
		}
	}
	for _, name := range dynamicMethods {
		r.iface[name] = true
	}
	dirs := r.sortedDirs()
	for _, dir := range dirs {
		if _, err := r.Import(r.importPath(dir)); err != nil {
			return nil, err
		}
	}

	// Roots: every main, the listed benchmarks, and the initialization
	// of every package a main or a benchmark links in.
	var linked []*types.Package
	for _, dir := range dirs {
		if c := r.pkgs[r.importPath(dir)]; c.pkg.Name() == "main" {
			linked = append(linked, c.pkg)
			r.reachObj(c.pkg.Scope().Lookup("main"))
		}
	}
	for _, b := range benches {
		pkg, fn, err := r.loadBenchmark(b)
		if err != nil {
			return nil, err
		}
		linked = append(linked, pkg)
		r.reachObj(fn)
	}
	closure := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if closure[p] {
			return
		}
		closure[p] = true
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range linked {
		visit(p)
		if plain := r.pkgs[p.Path()]; plain != nil {
			visit(plain.pkg) // a benchmark's package, checked with its tests
		}
	}
	for _, dir := range dirs {
		c := r.pkgs[r.importPath(dir)]
		if !closure[c.pkg] {
			continue
		}
		for _, f := range c.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.Name == "init" {
						r.walk(d, c.info)
					}
				case *ast.GenDecl:
					if d.Tok != token.VAR {
						continue
					}
					for _, s := range d.Specs {
						if s := s.(*ast.ValueSpec); len(s.Values) > 0 {
							r.walk(s, c.info)
						}
					}
				}
			}
		}
	}
	for len(r.queue) > 0 {
		d := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		r.walk(d.node, d.info)
	}

	res := &reachResult{declared: map[string]int{}, reached: map[string]int{}, packages: len(r.pkgs)}
	for pos, d := range r.decls {
		if !d.report {
			continue
		}
		res.declared[d.kind]++
		if r.seen[pos] {
			res.reached[d.kind]++
			continue
		}
		p := fset.Position(pos)
		if rel, err := filepath.Rel(root, p.Filename); err == nil {
			p.Filename = filepath.ToSlash(rel)
		}
		res.findings = append(res.findings, finding{id: d.id, kind: d.kind, pos: p})
	}
	sort.Slice(res.findings, func(i, j int) bool {
		a, b := res.findings[i].pos, res.findings[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return res, nil
}

// sortedDirs lists the directories holding non-test files.
func (r *reach) sortedDirs() []string {
	var dirs []string
	for dir := range r.dirs {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	return dirs
}

// importPath maps a slash-separated directory of the tree to its
// import path.
func (r *reach) importPath(dir string) string {
	if dir == "." {
		return r.module
	}
	return r.module + "/" + dir
}

// Import type-checks a package of the tree from its non-test files and
// hands every other import to the standard-library importer.
func (r *reach) Import(importPath string) (*types.Package, error) {
	dir, ok := strings.CutPrefix(importPath, r.module)
	if !ok || (dir != "" && dir[0] != '/') {
		return r.std.Import(importPath)
	}
	if c, ok := r.pkgs[importPath]; ok {
		return c.pkg, nil
	}
	dir = strings.TrimPrefix(dir, "/")
	if dir == "" {
		dir = "."
	}
	var files []*ast.File
	for _, rel := range r.dirs[dir] {
		f, err := parser.ParseFile(r.fset, filepath.Join(r.root, rel), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files for %s", importPath)
	}
	c, err := r.check(importPath, files)
	if err != nil {
		return nil, err
	}
	r.pkgs[importPath] = c
	r.index(c, files, strings.HasPrefix(dir, "internal/"))
	return c.pkg, nil
}

// check type-checks files as the package importPath.
func (r *reach) check(importPath string, files []*ast.File) (*checked, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: r}
	pkg, err := conf.Check(importPath, r.fset, files, info)
	if err != nil {
		return nil, err
	}
	return &checked{pkg: pkg, files: files, info: info}, nil
}

// loadBenchmark type-checks the package whose _test.go files declare
// b, together with those test files, and returns b's function.
func (r *reach) loadBenchmark(b benchRoot) (*types.Package, types.Object, error) {
	if r.tests == nil {
		dirs := r.sortedDirs()
		if _, ok := r.dirs["."]; !ok {
			dirs = append(dirs, ".") // a root holding only tests
		}
		for _, dir := range dirs {
			more, err := filepath.Glob(filepath.Join(r.root, dir, "*_test.go"))
			if err != nil {
				return nil, nil, err
			}
			r.tests = append(r.tests, more...)
		}
	}
	decl := "func " + b.name + "("
	for _, file := range r.tests {
		dir := filepath.Dir(file)
		if b.pkg != "" && filepath.Base(dir) != b.pkg {
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, nil, err
		}
		if !strings.Contains(string(src), decl) {
			continue
		}
		rel, _ := filepath.Rel(r.root, dir)
		c, err := r.withTests(filepath.ToSlash(rel), file)
		if err != nil {
			return nil, nil, err
		}
		return c.pkg, c.pkg.Scope().Lookup(b.name), nil
	}
	return nil, nil, fmt.Errorf("DESIGN §6 lists %s, but no _test.go file declares it", b.name)
}

// withTests type-checks dir's package together with its _test.go files
// of the same package clause as the one holding file (an external test
// package is checked on its own).
func (r *reach) withTests(dir, file string) (*checked, error) {
	target, err := parser.ParseFile(r.fset, file, nil, parser.PackageClauseOnly)
	if err != nil {
		return nil, err
	}
	clause := target.Name.Name
	importPath := r.importPath(dir)
	var files []*ast.File
	if plain := r.pkgs[importPath]; plain != nil && plain.pkg.Name() == clause {
		files = append(files, plain.files...)
	} else {
		importPath += "_test"
	}
	if c, ok := r.tested[importPath]; ok {
		return c, nil
	}
	tests, err := filepath.Glob(filepath.Join(r.root, dir, "*_test.go"))
	if err != nil {
		return nil, err
	}
	var own []*ast.File
	for _, name := range tests {
		if ok, _ := build.Default.MatchFile(filepath.Dir(name), filepath.Base(name)); !ok {
			continue
		}
		f, err := parser.ParseFile(r.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if f.Name.Name == clause {
			own = append(own, f)
		}
	}
	c, err := r.check(importPath, append(files, own...))
	if err != nil {
		return nil, err
	}
	r.tested[importPath] = c
	r.index(c, own, false)
	return c, nil
}

// index records the declarations of files, checked as c.
func (r *reach) index(c *checked, files []*ast.File, report bool) {
	pkgID := c.pkg.Path()
	if i := strings.Index(pkgID, "/internal/"); i >= 0 {
		pkgID = pkgID[i+len("/internal/"):]
	}
	add := func(id *ast.Ident, kind, name string, node ast.Node) {
		if id.Name == "_" {
			return
		}
		if _, ok := r.decls[id.Pos()]; !ok {
			r.decls[id.Pos()] = &decl{id: pkgID + "." + name, kind: kind, node: node, info: c.info, report: report}
		}
	}
	var fields func(owner string, st *ast.StructType)
	fields = func(owner string, st *ast.StructType) {
		for _, f := range st.Fields.List {
			for _, n := range f.Names {
				add(n, "field", owner+"."+n.Name, nil)
				if inner, ok := f.Type.(*ast.StructType); ok {
					fields(owner+"."+n.Name, inner)
				}
			}
		}
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					if d.Name.Name != "init" {
						add(d.Name, "func", d.Name.Name, d)
					}
					continue
				}
				add(d.Name, "method", recvName(d.Recv.List[0].Type)+"."+d.Name.Name, d)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, "type", s.Name.Name, s)
						if st, ok := s.Type.(*ast.StructType); ok {
							fields(s.Name.Name, st)
						}
					case *ast.ValueSpec:
						kind := "var"
						if d.Tok == token.CONST {
							kind = "const"
						}
						for _, n := range s.Names {
							add(n, kind, n.Name, s)
						}
					}
				}
			}
		}
	}
}

// recvName is the type name of a method receiver expression.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// inTree reports whether obj is declared in the tree.
func (r *reach) inTree(obj types.Object) bool {
	p := obj.Pkg()
	if p == nil {
		return false
	}
	return p.Path() == r.module || strings.HasPrefix(p.Path(), r.module+"/") || strings.HasSuffix(p.Path(), "_test")
}

// reachObj marks a used object reached. A field is not reached by use:
// only a write (markWrite) reaches it.
func (r *reach) reachObj(obj types.Object) {
	switch o := obj.(type) {
	case nil:
		return
	case *types.Func:
		obj = o.Origin()
		if sig := o.Type().(*types.Signature); sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
			r.callThrough(o.Name())
		}
	case *types.Var:
		if o.IsField() {
			return
		}
		obj = o.Origin()
	}
	if !r.inTree(obj) {
		r.scanStd(obj)
		return
	}
	if r.seen[obj.Pos()] {
		return
	}
	r.mark(obj.Pos())
	if tn, ok := obj.(*types.TypeName); ok {
		if named, ok := tn.Type().(*types.Named); ok {
			r.named = append(r.named, named)
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); r.iface[m.Name()] {
					r.mark(m.Pos())
				}
			}
		}
	}
}

// mark reaches the declaration at pos and queues it for walking.
func (r *reach) mark(pos token.Pos) {
	if r.seen[pos] {
		return
	}
	r.seen[pos] = true
	if d := r.decls[pos]; d != nil && d.node != nil {
		r.queue = append(r.queue, d)
	}
}

// callThrough records a method name called through an interface and
// reaches that method on every reached type.
func (r *reach) callThrough(name string) {
	if r.iface[name] {
		return
	}
	r.iface[name] = true
	for _, named := range r.named {
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Name() == name {
				r.mark(m.Pos())
			}
		}
	}
}

// scanStd records the methods of the interfaces a standard-library
// object's type takes or holds: a value of the tree handed to
// sort.Sort or stored in an http.Server's Handler has those methods
// called by code outside the tree.
func (r *reach) scanStd(obj types.Object) {
	if obj.Pkg() == nil {
		return
	}
	if r.stdsig[obj] {
		return
	}
	r.stdsig[obj] = true
	var scan func(t types.Type, depth int)
	scan = func(t types.Type, depth int) {
		if depth > 3 {
			return
		}
		switch t := t.(type) {
		case *types.Named:
			if it, ok := t.Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					r.callThrough(it.Method(i).Name())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				r.callThrough(t.Method(i).Name())
			}
		case *types.Pointer:
			scan(t.Elem(), depth+1)
		case *types.Slice:
			scan(t.Elem(), depth+1)
		case *types.Map:
			scan(t.Elem(), depth+1)
		case *types.Chan:
			scan(t.Elem(), depth+1)
		case *types.Signature:
			for i := 0; i < t.Params().Len(); i++ {
				scan(t.Params().At(i).Type(), depth+1)
			}
		}
	}
	scan(obj.Type(), 0)
}

// walk reaches everything node uses and every field it writes.
func (r *reach) walk(node ast.Node, info *types.Info) {
	defaults := map[ast.Stmt]bool{}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			r.reachObj(info.Uses[n])
		case *ast.IfStmt:
			for _, s := range n.Body.List {
				if isDefault(n.Cond, s, info) {
					defaults[s] = true
				}
			}
		case *ast.AssignStmt:
			if defaults[n] {
				break
			}
			for _, lhs := range n.Lhs {
				r.markWrite(lhs, info)
			}
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				r.markWrite(n.Key, info)
				r.markWrite(n.Value, info)
			}
		case *ast.IncDecStmt:
			r.markWrite(n.X, info)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				r.markWrite(n.X, info)
			}
		case *ast.SliceExpr:
			// Slicing an array field takes its address.
			if _, arr := info.TypeOf(n.X).Underlying().(*types.Array); arr {
				r.markWrite(n.X, info)
			}
		case *ast.TypeAssertExpr:
			// An assertion to an interface "calls" its methods: a
			// marker method is found by its presence alone.
			if n.Type != nil {
				r.assertTo(info.TypeOf(n.Type))
			}
		case *ast.CaseClause:
			for _, e := range n.List {
				if tv, ok := info.Types[e]; ok && tv.IsType() {
					r.assertTo(tv.Type)
				}
			}
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem() // &T elided in a []*T or map[K]*T literal
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok {
						r.writeField(info.Uses[key])
					}
				} else if i < st.NumFields() {
					r.writeField(st.Field(i))
				}
			}
		case *ast.SelectorExpr:
			// A pointer method called on an addressable field takes
			// its address: a mutex or counter is written by use.
			sel := info.Selections[n]
			if sel == nil || sel.Kind() != types.MethodVal {
				break
			}
			recv := sel.Obj().Type().(*types.Signature).Recv()
			if _, ptr := recv.Type().(*types.Pointer); ptr {
				if _, isPtr := info.TypeOf(n.X).Underlying().(*types.Pointer); !isPtr {
					r.markWrite(n.X, info)
				}
			}
		}
		return true
	})
}

// isDefault reports whether s, directly in the body of an if on cond,
// is a default: cond is x.F == z, x.F <= z or x.F < z, and s sets that
// same x.F to a constant or a package-level function. Such a line
// stores the value every reader could take from the constant itself,
// so it sets nothing. A lazy init or a sticky first error stores a
// computed value and still counts.
func isDefault(cond ast.Expr, s ast.Stmt, info *types.Info) bool {
	a, ok := s.(*ast.AssignStmt)
	if !ok || a.Tok != token.ASSIGN || len(a.Lhs) != 1 || len(a.Rhs) != 1 {
		return false
	}
	c, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (c.Op != token.EQL && c.Op != token.LEQ && c.Op != token.LSS) {
		return false
	}
	field, ok := ast.Unparen(a.Lhs[0]).(*ast.SelectorExpr)
	if !ok || info.Selections[field] == nil || types.ExprString(field) != types.ExprString(ast.Unparen(c.X)) {
		return false
	}
	rhs := ast.Unparen(a.Rhs[0])
	if info.Types[rhs].Value != nil {
		return true
	}
	var name *ast.Ident
	switch x := rhs.(type) {
	case *ast.Ident:
		name = x
	case *ast.SelectorExpr:
		if info.Selections[x] != nil {
			return false // a method value or a field, not pkg.Func
		}
		name = x.Sel
	}
	fn, ok := info.Uses[name].(*types.Func)
	return ok && fn.Type().(*types.Signature).Recv() == nil
}

// assertTo reaches the methods of t, when t is an interface a value
// is asserted to.
func (r *reach) assertTo(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			r.callThrough(it.Method(i).Name())
		}
	}
}

// markWrite reaches the fields an assignment to e writes: x.F, and x.F
// itself when e is x.F.G or x.F[i] on a struct or array value.
func (r *reach) markWrite(e ast.Expr, info *types.Info) {
	for e != nil {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			sel := info.Selections[x]
			if sel == nil || sel.Kind() != types.FieldVal {
				return
			}
			r.writeField(sel.Obj())
			if _, ptr := info.TypeOf(x.X).Underlying().(*types.Pointer); ptr {
				return
			}
			e = x.X
		case *ast.IndexExpr:
			if _, arr := info.TypeOf(x.X).Underlying().(*types.Array); !arr {
				return
			}
			e = x.X
		default:
			return
		}
	}
}

// writeField reaches a written field of the tree.
func (r *reach) writeField(obj types.Object) {
	if v, ok := obj.(*types.Var); ok && v.IsField() && r.inTree(v) {
		r.seen[v.Origin().Pos()] = true
	}
}
