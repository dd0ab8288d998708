package autrascale_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// architectureRules says, per kind of construct, which packages (or
// single files) of non-test code may contain it; a row with tests set
// covers _test.go files too. bench/, the harness that measures
// everything, is exempt. Today's truth is the table: widening a row is a
// design decision for review, not an edit to make a test pass.
var architectureRules = []struct {
	what    string
	tests   bool
	allowed func(file string) bool
	find    func(f *ast.File) []ast.Node
}{
	{
		// Wall time must not reach journals, goldens or snapshots: span
		// durations (trace) and Table IV's timings are the only readers.
		what:    "reads the wall clock (time.Now, time.Since)",
		allowed: in("internal/trace", "internal/experiments/table4.go"),
		find:    calls("time", "Now", "Since"),
	},
	{
		what:    "starts a goroutine",
		allowed: in("internal/fleet", "internal/persist", "internal/experiments", "cmd/metricsd"),
		find:    goStatements,
	},
	{
		what:    "sets GOMAXPROCS",
		allowed: in("internal/fleet"),
		find:    calls("runtime", "GOMAXPROCS"),
	},
	{
		// The controller is the per-job core; the fleet and its
		// persistence sit on top of it, never the other way round.
		what:    "imports internal/fleet or internal/persist",
		allowed: notIn("internal/core"),
		find:    imports("autrascale/internal/fleet", "autrascale/internal/persist"),
	},
	{
		// Every contender resolves through policy.Lookup, so the paper's
		// tables, the tournament and the fleet run one loop per baseline.
		what:    "imports internal/policy/ds2 or internal/policy/drs",
		allowed: in("internal/policy"),
		find:    imports("autrascale/internal/policy/ds2", "autrascale/internal/policy/drs"),
	},
	{
		// A planner measures a window only through core.MeasureTrial, so
		// every trial is paid and judged in one place; the controller's
		// monitor window is not a trial.
		what: "measures a window (MeasureSteady, MeasureSteadySampled, RunAndMeasure)",
		allowed: func(file string) bool {
			return in("internal/core/trial.go", "internal/core/controller.go")(file) ||
				notIn("internal/core", "internal/policy", "internal/policy/ds2", "internal/policy/drs")(file)
		},
		find: methodCalls("MeasureSteady", "MeasureSteadySampled", "RunAndMeasure"),
	},
	{
		// A monitor window is judged once, by slo.Judge, and every reader
		// combines its Verdict; Eq. 9's acceptance (bo/score.go) and the
		// DRS rule are the paper's own and judge a trial, not a window.
		what:    "compares a latency with a target",
		allowed: in("internal/slo", "internal/bo/score.go", "internal/policy/drs"),
		find:    latencyTargetComparisons,
	},
	{
		// ROADMAP renumbers its items at every re-anchor, so a number
		// soon names another item: cite an item by its title.
		what:    "cites a ROADMAP item by number",
		tests:   true,
		allowed: in(), // nowhere
		find:    comments(regexp.MustCompile(`ROADMAP\s+(items?\s+)?[#§]?\d`)),
	},
}

func TestArchitectureRules(t *testing.T) {
	src := sourceFiles(t)
	for _, rule := range architectureRules {
		files := src.files
		if rule.tests {
			files = append(files[:len(files):len(files)], src.tests...)
		}
		for _, gf := range files {
			if gf.dir == "bench" || strings.HasPrefix(gf.dir, "bench/") || rule.allowed(gf.path) {
				continue
			}
			for _, n := range rule.find(gf.f) {
				t.Errorf("%s: %s outside the packages architectureRules allows", src.fset.Position(n.Pos()), rule.what)
			}
		}
	}
}

// Every program under cmd/ and examples/ runs in tier-1: a directory
// there that holds package main has a _test.go file beside it.
func TestEveryProgramHasATest(t *testing.T) {
	src := sourceFiles(t)
	tested := map[string]bool{}
	for _, gf := range src.tests {
		tested[gf.dir] = true
	}
	for _, gf := range src.files {
		top, _, _ := strings.Cut(gf.dir, "/")
		if gf.f.Name.Name == "main" && (top == "cmd" || top == "examples") && !tested[gf.dir] {
			t.Errorf("%s is a program with no _test.go file: give it a test that runs it, or delete it", gf.dir)
			tested[gf.dir] = true // one error per directory
		}
	}
}

// in allows the listed package directories and files.
func in(paths ...string) func(string) bool {
	return func(file string) bool {
		for _, p := range paths {
			if file == p || path.Dir(file) == p {
				return true
			}
		}
		return false
	}
}

// notIn allows everything but the listed package directories.
func notIn(dirs ...string) func(string) bool {
	return func(file string) bool { return !in(dirs...)(file) }
}

// calls finds the uses of pkg.name for each name, under whatever name the
// file imports pkg.
func calls(pkg string, names ...string) func(*ast.File) []ast.Node {
	return func(f *ast.File) []ast.Node {
		var local string
		for name, p := range importNames(f) {
			if p == pkg {
				local = name
			}
		}
		if local == "" {
			return nil
		}
		var found []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					for _, name := range names {
						if sel.Sel.Name == name {
							found = append(found, sel)
						}
					}
				}
			}
			return true
		})
		return found
	}
}

// methodCalls finds the calls of a method or function with one of the
// given names on any receiver or package.
func methodCalls(names ...string) func(*ast.File) []ast.Node {
	return func(f *ast.File) []ast.Node {
		var found []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && slices.Contains(names, sel.Sel.Name) {
					found = append(found, call)
				}
			}
			return true
		})
		return found
	}
}

// comments finds the comments matching re.
func comments(re *regexp.Regexp) func(*ast.File) []ast.Node {
	return func(f *ast.File) []ast.Node {
		var found []ast.Node
		for _, g := range f.Comments {
			for _, c := range g.List {
				if re.MatchString(c.Text) {
					found = append(found, c)
				}
			}
		}
		return found
	}
}

func goStatements(f *ast.File) []ast.Node {
	var found []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			found = append(found, g)
		}
		return true
	})
	return found
}

// latencyTargetComparisons finds the ordered comparisons (<, <=, >, >=)
// of a latency with a target: one operand is an identifier or selector
// whose text contains "atency", the other one whose text contains
// "arget". A comparison with a literal (TargetLatencyMS <= 0) is a
// validation, not a judgement, and is not found.
func latencyTargetComparisons(f *ast.File) []ast.Node {
	judges := func(lat, tgt string) bool {
		return strings.Contains(lat, "atency") && strings.Contains(tgt, "arget")
	}
	var found []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok || (b.Op != token.LSS && b.Op != token.LEQ && b.Op != token.GTR && b.Op != token.GEQ) {
			return true
		}
		x, y := exprName(b.X), exprName(b.Y)
		if judges(x, y) || judges(y, x) {
			found = append(found, b)
		}
		return true
	})
	return found
}

// exprName is the text of an identifier or a selector chain over one
// (c.targetLatencyMS), and "" for any other expression.
func exprName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if x := exprName(e.X); x != "" {
			return x + "." + e.Sel.Name
		}
	}
	return ""
}

// imports finds the import specs of the given paths.
func imports(paths ...string) func(*ast.File) []ast.Node {
	return func(f *ast.File) []ast.Node {
		var found []ast.Node
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			for _, want := range paths {
				if p == want {
					found = append(found, imp)
				}
			}
		}
		return found
	}
}

// goFile is one parsed Go file of the module, comments included.
type goFile struct {
	path string // slash path from the module root
	dir  string // its package directory
	f    *ast.File
}

type moduleSource struct {
	fset  *token.FileSet
	files []goFile // non-test files
	tests []goFile // _test.go files
}

var parseModule = sync.OnceValues(func() (moduleSource, error) {
	src := moduleSource{fset: token.NewFileSet()}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(src.fset, path, nil, parser.SkipObjectResolution|parser.ParseComments)
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		gf := goFile{path: path, dir: filepath.Dir(path), f: f}
		if strings.HasSuffix(path, "_test.go") {
			src.tests = append(src.tests, gf)
		} else {
			src.files = append(src.files, gf)
		}
		return nil
	})
	return src, err
})

// sourceFiles parses every Go file of the module, once per test binary.
func sourceFiles(t *testing.T) moduleSource {
	t.Helper()
	src, err := parseModule()
	if err != nil {
		t.Fatal(err)
	}
	for _, gf := range src.files {
		if strings.HasPrefix(gf.dir, "internal/") {
			return src
		}
	}
	t.Fatal("found no packages under internal/; the test must run from the module root")
	return src
}

// importNames maps the name each import of f is known by to its path.
func importNames(f *ast.File) map[string]string {
	names := map[string]string{}
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		name := p[strings.LastIndex(p, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		names[name] = p
	}
	return names
}
