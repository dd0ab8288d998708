package autrascale_test

import (
	"go/ast"
	"path"
	"regexp"
	"strconv"
	"strings"
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
