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
var unearnedExports = map[string]string{}

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
			dir, ok := strings.CutPrefix(p, module)
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

// Every exported identifier under internal/ is earned by a non-test user
// (see unearnedIdents); none is kept alive by tests or for a future
// consumer.
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
// code under internal/ that are not earned, sorted by key. An identifier
// is earned when any one of these holds:
//   - non-test code outside its package names it (the root facade, cmd/,
//     examples/ and bench/ all count);
//   - it is a type, const or var named in the declaration (a signature,
//     a field, an embedded type, a value) of an earned identifier of its
//     own package, or a const or var of an earned type;
//   - it is an Err* sentinel that an earned function returns;
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
						if dir, ok := strings.CutPrefix(p, module); ok && dir != gf.dir {
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
		if !strings.HasPrefix(gf.dir, "internal/") {
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
			ast.Inspect(id.body, func(n ast.Node) bool {
				if ret, ok := n.(*ast.ReturnStmt); ok {
					for _, r := range ret.Results {
						for _, name := range referencedNames(r) {
							if strings.HasPrefix(name, "Err") {
								earn(id.pkg + "." + name)
							}
						}
					}
				}
				return true
			})
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
