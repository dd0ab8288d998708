package autrascale_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

const module = "autrascale/"

// unearned lists internal packages allowed to have no importer yet, each
// with the consumer that is to earn it. Anything else under internal/
// that no other package's non-test code imports is dead weight: delete
// it or give it a caller.
var unearned = map[string]string{}

// unearnedExports lists exported identifiers ("internal/pkg.Name",
// "internal/pkg.Type.Method" or "internal/pkg.Type.Field") allowed
// without a non-test user, each with the test that compares against it.
var unearnedExports = map[string]string{
	"internal/policy/ds2.MaxIterations": "TestBaselinePoliciesPropertyRandomDAGs bounds ds2's Report.Iterations by it",
	"internal/policy/drs.MaxIterations": "TestBaselinePoliciesPropertyRandomDAGs bounds drs's Report.Iterations by it",
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

// moduleDir maps an import path of this module to its directory from
// the module root: "." for the root facade.
func moduleDir(p string) (string, bool) {
	if p+"/" == module {
		return ".", true
	}
	return strings.CutPrefix(p, module)
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

// Every package under internal/ has at least one non-test importer
// outside itself.
func TestNoOrphanInternalPackages(t *testing.T) {
	packages := map[string]bool{}              // internal dirs holding non-test Go
	importedBy := map[string]map[string]bool{} // package dir → importing dirs
	for _, gf := range sourceFiles(t).files {
		if strings.HasPrefix(gf.dir, "internal/") {
			packages[gf.dir] = true
		}
		for _, p := range importNames(gf.f) {
			dir, ok := moduleDir(p)
			if !ok {
				continue
			}
			if importedBy[dir] == nil {
				importedBy[dir] = map[string]bool{}
			}
			importedBy[dir][gf.dir] = true
		}
	}
	var orphans []string
	for pkg := range packages {
		importers := importedBy[pkg]
		delete(importers, pkg)
		why, allowed := unearned[pkg]
		switch {
		case len(importers) > 0:
			if allowed {
				t.Errorf("%s now has an importer; drop it from the allow-list (%s)", pkg, why)
			}
		case allowed:
			t.Logf("%s has no importer yet, allowed: %s", pkg, why)
		default:
			orphans = append(orphans, pkg)
		}
	}
	sort.Strings(orphans)
	for _, pkg := range orphans {
		t.Errorf("%s has no non-test importer outside itself: delete it or give it a caller", pkg)
	}
}

// Every exported identifier under internal/ and of the root facade is
// earned by a non-test user (see unearnedIdents); none is kept alive by
// tests or for a future consumer. The facade's only non-test importers
// are the programs under examples/, so it cannot regrow dead aliases.
func TestNoUnearnedExports(t *testing.T) {
	src := sourceFiles(t)
	flagged := map[string]bool{}
	for _, id := range unearnedIdents(src.files) {
		k := id.key()
		flagged[k] = true
		if why, ok := unearnedExports[k]; ok {
			t.Logf("%s has no non-test user, allowed: %s", k, why)
			continue
		}
		t.Errorf("%s: %s has no non-test user: delete it, unexport it, or move it into a _test.go file",
			src.fset.Position(id.pos), k)
	}
	for k, why := range unearnedExports {
		if !flagged[k] {
			t.Errorf("%s is earned or gone; drop it from the allow-list (%s)", k, why)
		}
	}
}

// stdMethods are the method names standard-library interfaces call:
// fmt.Stringer, error, JSON and text marshalling, sort and heap, io,
// http.Handler.
var stdMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true, "Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "WriteTo": true, "ReadFrom": true, "ServeHTTP": true,
}

// exportedIdent is one exported top-level declaration under internal/:
// a function, type, const or var, or a method or struct field of an
// exported type.
type exportedIdent struct {
	pkg, name string // name is "Type.Method" for a method, "Type.Field" for a field
	isFunc    bool
	pos       token.Pos
	decl      []ast.Node     // the declaration proper: signature, type, value
	body      *ast.BlockStmt // a function's body
}

func (id *exportedIdent) key() string { return id.pkg + "." + id.name }

// unearnedIdents returns the exported identifiers declared in non-test
// code under internal/ or in the root facade (package dir ".") that are
// not earned, sorted by key. An identifier is earned when any one of
// these holds:
//   - non-test code outside its package names it (the root facade, cmd/,
//     examples/ and bench/ all count);
//   - it is a type, const or var named in the declaration (a signature,
//     a field, an embedded type, a value) of an earned identifier of its
//     own package, or a const or var of an earned type;
//   - it is an Err* sentinel that an earned function returns, itself or
//     through an unexported function of its package that it calls;
//   - it is a method of an earned type, and some non-test code selects
//     its name or it implements a standard-library interface;
//   - it is a field ("Type.Field") of an earned struct type, and some
//     non-test code reads its name through a selector (an assignment
//     target is written, not read, and a composite-literal key is not a
//     selector) or the struct is a JSON wire type: one with a json tag.
func unearnedIdents(files []goFile) []*exportedIdent {
	idents := map[string]*exportedIdent{} // key → declaration
	methods := map[string][]string{}      // type key → its method keys
	fields := map[string][]string{}       // type key → its exported field keys
	wire := map[string]bool{}             // type keys of JSON wire structs
	values := map[string][]string{}       // type key → keys of the consts and vars of that type
	named := map[string]bool{}            // keys named outside their package
	selected := map[string]bool{}         // names read through a selector on a value (not a package) anywhere
	// key → body of an unexported plain function, whose sentinels its callers return
	helpers := map[string]*ast.BlockStmt{}
	for _, gf := range files {
		imports := importNames(gf.f)
		written := map[*ast.SelectorExpr]bool{}
		ast.Inspect(gf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					if sel, ok := l.(*ast.SelectorExpr); ok {
						written[sel] = true
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := n.X.(*ast.SelectorExpr); ok {
					written[sel] = true
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok { // a qualified identifier
						if dir, ok := moduleDir(p); ok && dir != gf.dir {
							named[dir+"."+n.Sel.Name] = true
						}
						return false
					}
				}
				if !written[n] {
					selected[n.Sel.Name] = true
				}
			}
			return true
		})
		if gf.dir != "." && !strings.HasPrefix(gf.dir, "internal/") {
			continue
		}
		declare := func(id *exportedIdent) {
			id.pkg = gf.dir
			idents[id.key()] = id
		}
		for _, d := range gf.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					if d.Recv == nil && d.Body != nil {
						helpers[gf.dir+"."+d.Name.Name] = d.Body
					}
					continue
				}
				id := &exportedIdent{name: d.Name.Name, isFunc: true, pos: d.Pos(), decl: []ast.Node{d.Type}, body: d.Body}
				if d.Recv != nil {
					recv := recvTypeName(d.Recv.List[0].Type)
					if !ast.IsExported(recv) {
						continue
					}
					id.name = recv + "." + id.name
					id.decl = append(id.decl, d.Recv)
					methods[gf.dir+"."+recv] = append(methods[gf.dir+"."+recv], gf.dir+"."+id.name)
				}
				declare(id)
			case *ast.GenDecl:
				var typ ast.Expr // a const group repeats the last explicit type
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						declare(&exportedIdent{name: s.Name.Name, pos: s.Pos(), decl: []ast.Node{s}})
						st, ok := s.Type.(*ast.StructType)
						if !ok {
							continue
						}
						typeKey := gf.dir + "." + s.Name.Name
						for _, fld := range st.Fields.List {
							if fld.Tag != nil && strings.Contains(fld.Tag.Value, `json:"`) {
								wire[typeKey] = true
							}
							for _, n := range fld.Names {
								if n.IsExported() {
									declare(&exportedIdent{name: s.Name.Name + "." + n.Name, pos: n.Pos()})
									fields[typeKey] = append(fields[typeKey], gf.dir+"."+s.Name.Name+"."+n.Name)
								}
							}
						}
					case *ast.ValueSpec:
						if s.Type != nil || len(s.Values) > 0 {
							typ = s.Type
						}
						for _, n := range s.Names {
							if !n.IsExported() {
								continue
							}
							declare(&exportedIdent{name: n.Name, pos: n.Pos(), decl: []ast.Node{s}})
							if t, ok := typ.(*ast.Ident); ok {
								values[gf.dir+"."+t.Name] = append(values[gf.dir+"."+t.Name], gf.dir+"."+n.Name)
							}
						}
					}
				}
			}
		}
	}

	earned := map[string]bool{}
	var work []string
	earn := func(k string) {
		if idents[k] != nil && !earned[k] {
			earned[k] = true
			work = append(work, k)
		}
	}
	for k := range named {
		earn(k)
	}
	for len(work) > 0 {
		id := idents[work[len(work)-1]]
		work = work[:len(work)-1]
		for _, n := range id.decl {
			for _, name := range referencedNames(n) {
				if dep := idents[id.pkg+"."+name]; dep != nil && !dep.isFunc {
					earn(dep.key())
				}
			}
		}
		if id.body != nil {
			earnSentinels(id.pkg, id.body, helpers, map[string]bool{}, earn)
		}
		if !id.isFunc {
			for _, v := range values[id.key()] {
				earn(v)
			}
			for _, m := range methods[id.key()] {
				if name := m[strings.LastIndex(m, ".")+1:]; selected[name] || stdMethods[name] {
					earn(m)
				}
			}
			for _, f := range fields[id.key()] {
				if selected[f[strings.LastIndex(f, ".")+1:]] || wire[id.key()] {
					earn(f)
				}
			}
		}
	}

	var out []*exportedIdent
	for k, id := range idents {
		if !earned[k] {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key() < out[j].key() })
	return out
}

// recvTypeName returns the type name of a method receiver: T for T, *T,
// T[P] and *T[P].
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// referencedNames returns the unqualified identifiers n refers to,
// leaving out the names it declares (fields, parameters, the declared
// name itself) and the names it selects (x.Name).
// earnSentinels earns each Err* sentinel that a return statement in
// body names, or in the body of an unexported function of the package
// that body calls, transitively: an exported reader that hands its bytes
// to an unexported decode returns decode's sentinels.
func earnSentinels(pkg string, body *ast.BlockStmt, helpers map[string]*ast.BlockStmt, seen map[string]bool, earn func(string)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				for _, name := range referencedNames(r) {
					if strings.HasPrefix(name, "Err") {
						earn(pkg + "." + name)
					}
				}
			}
		case *ast.CallExpr:
			if fn, ok := n.Fun.(*ast.Ident); ok {
				if k := pkg + "." + fn.Name; helpers[k] != nil && !seen[k] {
					seen[k] = true
					earnSentinels(pkg, helpers[k], helpers, seen, earn)
				}
			}
		}
		return true
	})
}

func referencedNames(n ast.Node) []string {
	var names []string
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			names = append(names, n.Name)
		case *ast.SelectorExpr:
			ast.Inspect(n.X, walk)
			return false
		case *ast.Field:
			ast.Inspect(n.Type, walk)
			return false
		case *ast.TypeSpec:
			if n.TypeParams != nil {
				ast.Inspect(n.TypeParams, walk)
			}
			ast.Inspect(n.Type, walk)
			return false
		case *ast.ValueSpec:
			if n.Type != nil {
				ast.Inspect(n.Type, walk)
			}
			for _, v := range n.Values {
				ast.Inspect(v, walk)
			}
			return false
		}
		return true
	}
	ast.Inspect(n, walk)
	return names
}

// unsetOptions lists option fields ("internal/pkg.Type.Field") allowed
// without a non-test setter, each with the test that needs the field at
// a second value to reach the behaviour it checks.
var unsetOptions = map[string]string{
	"internal/core.ThroughputOptions.MaxIterations":       "TestOptimizeThroughputPropertyRandomDAGs runs random DAGs at 2·P_max iterations, past the production bound of 8",
	"internal/flink.Config.TickSec":                       "TestCompiledTickMatchesReference compares the compiled tick to the reference at 1 s and 0.5 s ticks",
	"internal/flink.Config.RestartDowntimeSec":            "TestCompiledTickMatchesReference restarts with a 4 s downtime, not the default 10 s",
	"internal/flink.Config.RescaleDeadlineSec":            "TestRescaleDeadlineBoundsRetries bounds retries by a short deadline",
	"internal/workloads.EngineOptions.NoNoise":            "the workloads calibration tests (TestThroughputOptimizationMatchesPaperOperatingPoints and others) pin the paper operating points noise-free",
	"internal/workloads.EngineOptions.RescaleMaxAttempts": "TestControllerChaosHeavySoak allows 2 attempts so a double rescale failure reaches the degraded path",
	"internal/workloads.EngineOptions.RescaleBackoffSec":  "TestControllerChaosHeavySoak sets it beside RescaleMaxAttempts, at flink's own 5 s",
}

// Every exported field of an exported *Config or *Options struct under
// internal/, and of core.PolicyEnv, is set by some non-test code (bench/,
// cmd/, examples/ and the root facade count): a field nobody sets is a
// constant with plumbing, so make it one. A field is set when it is a
// key of a composite literal of its type, or the target of a selector
// assignment outside a defaults method and outside an if whose condition
// reads the same field (the `if o.F <= 0 { o.F = v }` idiom). Selector
// assignments are matched by field name alone, since the rule reads
// syntax, not types: an assignment to any field of that name counts, so
// the rule is a floor and a hand check can still find more.
func TestNoUnsetOptions(t *testing.T) {
	src := sourceFiles(t)
	fieldPos := map[string]token.Pos{} // "dir.Type.Field" → declaration
	structs := map[string][]string{}   // "dir.Type" → its exported field names
	for _, gf := range src.files {
		if !strings.HasPrefix(gf.dir, "internal/") {
			continue
		}
		for _, d := range gf.f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, s := range gd.Specs {
				ts, ok := s.(*ast.TypeSpec)
				if !ok || !isOptionType(gf.dir, ts.Name.Name) {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				typeKey := gf.dir + "." + ts.Name.Name
				for _, fld := range st.Fields.List {
					for _, n := range fld.Names {
						if n.IsExported() {
							fieldPos[typeKey+"."+n.Name] = n.Pos()
							structs[typeKey] = append(structs[typeKey], n.Name)
						}
					}
				}
			}
		}
	}

	aliases := map[string]string{} // "dir.Alias" → the type expression it stands for
	for _, gf := range src.files {
		imports := importNames(gf.f)
		for _, d := range gf.f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok {
				for _, s := range gd.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok && ts.Assign.IsValid() {
						aliases[gf.dir+"."+ts.Name.Name] = typeKey(gf.dir, imports, ts.Type)
					}
				}
			}
		}
	}

	keyed := map[string]bool{}    // "dir.Type.Field" set by a composite literal
	assigned := map[string]bool{} // field names set by a selector assignment
	for _, gf := range src.files {
		imports := importNames(gf.f)
		typeOf := func(e ast.Expr) string {
			k := typeKey(gf.dir, imports, e)
			for aliases[k] != "" {
				k = aliases[k]
			}
			return k
		}
		elided := map[*ast.CompositeLit]string{} // element literals that omit their type
		var stack []ast.Node
		ast.Inspect(gf.f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.CompositeLit:
				typ := elided[n]
				switch lt := n.Type.(type) {
				case nil:
				case *ast.ArrayType:
					markElided(n, typeOf(lt.Elt), elided)
				case *ast.MapType:
					markElided(n, typeOf(lt.Value), elided)
				default:
					typ = typeOf(lt)
				}
				if structs[typ] == nil {
					return true
				}
				for _, el := range n.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok { // a positional literal sets every field
						for _, f := range structs[typ] {
							keyed[typ+"."+f] = true
						}
						break
					}
					if k, ok := kv.Key.(*ast.Ident); ok {
						keyed[typ+"."+k.Name] = true
					}
				}
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					if sel, ok := l.(*ast.SelectorExpr); ok && !defaulting(stack, sel.Sel.Name) {
						assigned[sel.Sel.Name] = true
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := n.X.(*ast.SelectorExpr); ok && !defaulting(stack, sel.Sel.Name) {
					assigned[sel.Sel.Name] = true
				}
			}
			return true
		})
	}

	var unset []string
	for k := range fieldPos {
		if !keyed[k] && !assigned[k[strings.LastIndex(k, ".")+1:]] {
			unset = append(unset, k)
		}
	}
	sort.Strings(unset)
	flagged := map[string]bool{}
	for _, k := range unset {
		flagged[k] = true
		if why, ok := unsetOptions[k]; ok {
			t.Logf("%s has no non-test setter, allowed: %s", k, why)
			continue
		}
		t.Errorf("%s: %s is set by no non-test code: make it a constant, or set it where it has a second value",
			src.fset.Position(fieldPos[k]), k)
	}
	for k, why := range unsetOptions {
		if !flagged[k] {
			t.Errorf("%s is set or gone; drop it from the allow-list (%s)", k, why)
		}
	}
}

// typeKey resolves a type expression of a file in package dir to
// "dir.Type", or "" when it names no type of this module.
func typeKey(dir string, imports map[string]string, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return dir + "." + e.Name
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok {
			if d, ok := moduleDir(imports[x.Name]); ok {
				return d + "." + e.Sel.Name
			}
		}
	}
	return ""
}

// isOptionType reports whether the type named name in package dir is
// one TestNoUnsetOptions checks.
func isOptionType(dir, name string) bool {
	if dir == "internal/core" && name == "PolicyEnv" {
		return true
	}
	return ast.IsExported(name) && (strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options"))
}

// markElided records typ as the type of every element (or map value) of
// lit that is a composite literal with its type left out, as in
// []T{{A: 1}} or []*T{{A: 1}}.
func markElided(lit *ast.CompositeLit, typ string, elided map[*ast.CompositeLit]string) {
	if typ == "" {
		return
	}
	for _, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			el = kv.Value
		}
		if u, ok := el.(*ast.UnaryExpr); ok && u.Op == token.AND {
			el = u.X
		}
		if cl, ok := el.(*ast.CompositeLit); ok && cl.Type == nil {
			elided[cl] = typ
		}
	}
}

// defaulting reports whether an assignment to field, reached through
// stack (outermost node first), is defaulting code: inside a method
// named defaults, or inside an if whose condition reads field.
func defaulting(stack []ast.Node, field string) bool {
	for _, n := range stack {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Recv != nil && n.Name.Name == "defaults" {
				return true
			}
		case *ast.IfStmt:
			reads := false
			ast.Inspect(n.Cond, func(c ast.Node) bool {
				if sel, ok := c.(*ast.SelectorExpr); ok && sel.Sel.Name == field {
					reads = true
				}
				return !reads
			})
			if reads {
				return true
			}
		}
	}
	return false
}
