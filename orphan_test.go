package autrascale_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
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

// unearnedExports lists identifiers TestNoUnearnedExports checks
// ("internal/pkg.Name", "internal/pkg.Type.Method" or
// "internal/pkg.Type.Field") allowed without a non-test user, each with
// the test that needs it.
var unearnedExports = map[string]string{
	"internal/policy/ds2.MaxIterations":   "TestBaselinePoliciesPropertyRandomDAGs bounds ds2's Report.Iterations by it",
	"internal/policy/drs.MaxIterations":   "TestBaselinePoliciesPropertyRandomDAGs bounds drs's Report.Iterations by it",
	"internal/metrics.Store.Latest":       "TestGaugeContract's by-name path, flink's TestMetricsRecorded and TestCompiledTickMatchesReference and fleet's telemetry tests read a series' newest sample by name",
	"internal/fleet.Fleet.barrierVisited": "TestFleetBarrierIsODue counts the jobs each round barrier visits",
	"internal/core.PlanResult.Trials":     "TestEveryPlanningWindowIsAccounted holds it to the windows each policy's plan measured, TestBOPlanLogsItsPhasesInOrder to its phases and its report's counts",
}

// moduleDir maps an import path of this module to its directory from
// the module root: "." for the root facade.
func moduleDir(p string) (string, bool) {
	if p+"/" == module {
		return ".", true
	}
	return strings.CutPrefix(p, module)
}

// Every package under internal/ has at least one non-test importer.
func TestNoOrphanInternalPackages(t *testing.T) {
	m := typedSource(t)
	imported := map[*types.Package]bool{}
	for _, p := range m.pkgs {
		for _, imp := range p.types.Imports() {
			imported[imp] = true
		}
	}
	for _, p := range m.pkgs {
		why, allowed := unearned[p.dir]
		switch {
		case !strings.HasPrefix(p.dir, "internal/") || imported[p.types] && !allowed:
		case imported[p.types]:
			t.Errorf("%s now has an importer; drop it from the allow-list (%s)", p.dir, why)
		case allowed:
			t.Logf("%s has no importer yet, allowed: %s", p.dir, why)
		default:
			t.Errorf("%s has no non-test importer: delete it or give it a caller", p.dir)
		}
	}
}

// typedPackage is one non-test package of the module, type-checked.
type typedPackage struct {
	dir   string // from the module root: "." for the root facade
	types *types.Package
	files []*ast.File
	info  *types.Info
}

type typedModule struct {
	fset *token.FileSet
	pkgs []*typedPackage // in dependency order
	// std imports a standard-library package by path from export data.
	std func(path string) (*types.Package, error)
}

// loadTyped type-checks the module's non-test packages from source, in
// the dependency order `go list -deps` prints them, each against the
// packages already checked: every object is one pointer in every package
// that uses it. The standard library comes from its export data.
var loadTyped = sync.OnceValues(func() (*typedModule, error) {
	var stderr bytes.Buffer
	cmd := exec.Command("go", "list", "-export", "-deps", "-json", "./...")
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export -deps -json ./...: %v\n%s", err, stderr.Bytes())
	}
	m := &typedModule{fset: token.NewFileSet()}
	exports := map[string]string{}
	gc := importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("go list printed no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	m.std = gc.Import
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return gc.Import(path)
	})}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p struct {
			ImportPath, Dir, Export string
			GoFiles                 []string
		}
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		dir, ok := moduleDir(p.ImportPath)
		if !ok {
			exports[p.ImportPath] = p.Export
			continue
		}
		tp := &typedPackage{dir: dir, info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(m.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			tp.files = append(tp.files, f)
		}
		if tp.types, err = conf.Check(p.ImportPath, m.fset, tp.files, tp.info); err != nil {
			return nil, err
		}
		checked[p.ImportPath] = tp.types
		m.pkgs = append(m.pkgs, tp)
	}
	return m, nil
})

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func typedSource(t *testing.T) *typedModule {
	t.Helper()
	m, err := loadTyped()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range m.pkgs {
		if strings.HasPrefix(p.dir, "internal/") {
			return m
		}
	}
	t.Fatal("go list found no packages under internal/; the test must run from the module root")
	return m
}

// stdInterfaces are the standard-library interfaces, beside error, whose
// methods the standard library calls on the values handed to it.
var stdInterfaces = [][2]string{
	{"fmt", "Stringer"}, {"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"},
	{"encoding", "TextMarshaler"}, {"encoding", "TextUnmarshaler"}, {"sort", "Interface"},
	{"container/heap", "Interface"}, {"io", "Reader"}, {"io", "Writer"}, {"io", "Closer"},
	{"io", "WriterTo"}, {"io", "ReaderFrom"}, {"net/http", "Handler"},
}

// earnedObjects returns the module's objects that non-test code reaches
// from its roots: each main and init function and each blank var
// declaration. An earned declaration earns every object its signature,
// type, value or body uses, except that:
//   - an exported package-level object also needs a user in another
//     package, or a mention in the signature, type or value of an
//     earned exported declaration, unless it is an error sentinel or a
//     value of a type that passes this rule. One that only its own
//     package's bodies use is to be unexported;
//   - a field is earned only by a read: through a selector (not as an
//     assignment target; a literal key is no selector), or with its
//     whole struct by ==, as a map key, by fmt or by a JSON encode
//     (exported fields only; an interface stands for each earned type
//     that implements it), or by a json tag on its earned struct;
//   - a method called through an interface earns the same-named method
//     of each earned type that implements it; the standard library
//     calls through error and stdInterfaces.
func earnedObjects(m *typedModule) map[types.Object]bool {
	type decl struct {
		p        *typedPackage
		n        ast.Node
		exported bool // its signature, type and value vouch for what they name
	}
	decls := map[types.Object]decl{}
	var roots []decl
	inModule := map[*types.Package]bool{}
	for _, p := range m.pkgs {
		inModule[p.types] = true
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.types.Name() == "main") {
						roots = append(roots, decl{p: p, n: d})
						continue
					}
					obj := p.info.Defs[d.Name]
					exported := obj.Exported()
					if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
						t := types.Unalias(recv.Type())
						if ptr, ok := t.(*types.Pointer); ok {
							t = ptr.Elem()
						}
						exported = exported && t.(*types.Named).Obj().Exported()
					}
					decls[obj] = decl{p, d, exported}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							decls[p.info.Defs[s.Name]] = decl{p, s, s.Name.IsExported()}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.Name == "_" {
									roots = append(roots, decl{p: p, n: s})
								} else {
									decls[p.info.Defs[n]] = decl{p, s, n.IsExported()}
								}
							}
						}
					}
				}
			}
		}
	}

	earned := map[types.Object]bool{}
	vouched := map[types.Object]bool{}               // used in another package or named by an exported declaration
	called := map[string]map[*types.Interface]bool{} // method name → interfaces it is called through
	callThrough := func(name string, iface *types.Interface) {
		if called[name] == nil {
			called[name] = map[*types.Interface]bool{}
		}
		called[name][iface] = true
	}
	type read struct {
		t   types.Type
		how string // "==" (a map key too), "fmt" or "json"
	}
	reads := map[read]bool{} // the types whose values earned code reads whole
	var work []types.Object
	var earn func(obj types.Object) types.Object
	earn = func(obj types.Object) types.Object {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
			if recv := o.Type().(*types.Signature).Recv(); recv != nil {
				if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
					callThrough(o.Name(), iface)
				}
			}
		case *types.Var:
			obj = o.Origin()
		}
		if obj == nil || earned[obj] || !inModule[obj.Pkg()] {
			return obj
		}
		earned[obj] = true
		work = append(work, obj)
		if tn, ok := obj.(*types.TypeName); ok {
			if st, ok := tn.Type().Underlying().(*types.Struct); ok && isWire(st) {
				for i := range st.NumFields() {
					if st.Field(i).Exported() {
						earn(st.Field(i))
					}
				}
			}
		}
		return obj
	}
	// inspect earns what root uses and vouches for what it uses from
	// another package, or all it names when root is an exported
	// declaration outside a body.
	var inspect func(p *typedPackage, root ast.Node, exported bool)
	inspect = func(p *typedPackage, root ast.Node, exported bool) {
		written := map[*ast.SelectorExpr]bool{}
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BlockStmt:
				if exported { // a body vouches for nothing
					inspect(p, n, false)
					return false
				}
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
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					reads[read{p.info.TypeOf(n.X), "=="}] = true
				}
			case *ast.MapType:
				reads[read{p.info.TypeOf(n.Key), "=="}] = true
			case *ast.CallExpr:
				fun := ast.Unparen(n.Fun)
				if sel, ok := fun.(*ast.SelectorExpr); ok {
					fun = sel.Sel
				}
				id, _ := fun.(*ast.Ident)
				name := ""
				if fn, ok := p.info.Uses[id].(*types.Func); ok {
					name = fn.FullName()
				}
				switch {
				case strings.HasPrefix(name, "fmt."): // which prints what a pointer argument points to
					for _, a := range n.Args {
						t := p.info.TypeOf(a)
						if ptr, ok := t.(*types.Pointer); ok {
							t = ptr.Elem()
						}
						reads[read{t, "fmt"}] = true
					}
				case name == "encoding/json.Marshal" || name == "encoding/json.MarshalIndent" || name == "(*encoding/json.Encoder).Encode":
					reads[read{p.info.TypeOf(n.Args[0]), "json"}] = true
				}
			case *ast.SelectorExpr:
				sel := p.info.Selections[n]
				if sel == nil {
					break
				}
				// A promoted field or method reads the embedded fields
				// on its way.
				typ := sel.Recv()
				for _, i := range sel.Index()[:len(sel.Index())-1] {
					if ptr, ok := typ.Underlying().(*types.Pointer); ok {
						typ = ptr.Elem()
					}
					f := typ.Underlying().(*types.Struct).Field(i)
					earn(f)
					typ = f.Type()
				}
				if sel.Kind() == types.FieldVal && !written[n] {
					earn(sel.Obj())
				}
			case *ast.Ident:
				obj := p.info.Uses[n]
				if v, ok := obj.(*types.Var); ok && v.IsField() {
					break
				}
				obj = earn(obj)
				if _, isFunc := obj.(*types.Func); obj != nil && (obj.Pkg() != p.types || exported && !isFunc) {
					vouched[obj] = true
				}
			}
			return true
		})
	}

	std := []types.Object{types.Universe.Lookup("error")}
	for _, name := range stdInterfaces {
		if pkg, err := m.std(name[0]); err == nil {
			std = append(std, pkg.Scope().Lookup(name[1]))
		}
	}
	for _, obj := range std {
		iface := obj.Type().Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			callThrough(iface.Method(i).Name(), iface)
		}
	}
	for _, d := range roots {
		inspect(d.p, d.n, d.exported)
	}
	for len(work) > 0 {
		for len(work) > 0 {
			obj := work[len(work)-1]
			work = work[:len(work)-1]
			if d, ok := decls[obj]; ok {
				inspect(d.p, d.n, d.exported)
			}
		}
		var named []*types.TypeName
		for obj := range earned {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() && !types.IsInterface(tn.Type()) {
				named = append(named, tn)
			}
		}
		implements := func(tn *types.TypeName, iface *types.Interface) bool {
			return types.Implements(tn.Type(), iface) || types.Implements(types.NewPointer(tn.Type()), iface)
		}
		for _, tn := range named {
			methods := types.NewMethodSet(types.NewPointer(tn.Type()))
			for i := 0; i < methods.Len(); i++ {
				fn := methods.At(i).Obj()
				for iface := range called[fn.Name()] {
					if !earned[fn] && implements(tn, iface) {
						earn(fn)
					}
				}
			}
		}
		seen := map[read]bool{}
		var readWhole func(r read)
		readWhole = func(r read) {
			if seen[r] {
				return
			}
			seen[r] = true
			switch t := types.Unalias(r.t).(type) {
			case *types.Named:
				if inModule[t.Obj().Pkg()] {
					readWhole(read{t.Underlying(), r.how})
				}
			case *types.Struct:
				for i := range t.NumFields() {
					if f := t.Field(i); r.how != "json" || f.Exported() || f.Embedded() {
						earn(f)
						readWhole(read{f.Type(), r.how})
					}
				}
			case *types.Interface:
				for _, tn := range named {
					if r.how == "json" && !t.Empty() && implements(tn, t) {
						readWhole(read{tn.Type(), r.how})
					}
				}
			case interface{ Elem() types.Type }: // == compares a pointer, and a slice or map to nil, as itself; fmt prints a nested pointer as an address
				_, array := t.(*types.Array)
				_, ptr := t.(*types.Pointer)
				if array || r.how == "json" || r.how == "fmt" && !ptr {
					readWhole(read{t.Elem(), r.how})
				}
			}
		}
		for r := range reads {
			readWhole(r)
		}
	}

	errorType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	for obj := range earned {
		v, isVar := obj.(*types.Var)
		if named, ok := obj.Type().(*types.Named); ok && vouched[named.Obj()] || isVar && types.Implements(v.Type(), errorType) {
			continue // a value of a vouched type, or a sentinel
		}
		if obj.Exported() && obj.Parent() == obj.Pkg().Scope() && !vouched[obj] {
			delete(earned, obj)
		}
	}
	return earned
}

// isWire reports whether st is a JSON wire type: one with a json tag.
func isWire(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		if strings.Contains(st.Tag(i), `json:"`) {
			return true
		}
	}
	return false
}

// Every exported identifier under internal/ and of the root facade is
// earned (see earnedObjects): non-test code reaches it from a main, an
// init or a blank var. None is kept alive by tests or for a future
// consumer. The facade's only non-test importer is
// examples/custom_workload, so it cannot regrow dead aliases. Every
// field of a struct type declared there, exported or not, local types
// included, is checked too: it is earned only by a read.
func TestNoUnearnedExports(t *testing.T) {
	m := typedSource(t)
	earned := earnedObjects(m)
	unearnedAt := map[string]token.Pos{}
	for _, p := range m.pkgs {
		if p.dir != "." && !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		flag := func(obj types.Object, key string) {
			if !earned[obj] {
				unearnedAt[p.dir+"."+key] = obj.Pos()
			}
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			if obj := scope.Lookup(name); obj.Exported() {
				flag(obj, name)
			}
		}
		// The members of each earned type declared here, local types too.
		for _, obj := range p.info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || !earned[tn] {
				continue
			}
			name := tn.Name()
			switch u := tn.Type().Underlying().(type) {
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					if f := u.Field(i); f.Name() != "_" {
						flag(f, name+"."+f.Name())
					}
				}
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					if fn := u.ExplicitMethod(i); fn.Exported() && tn.Exported() {
						flag(fn, name+"."+fn.Name())
					}
				}
			}
			if named, ok := tn.Type().(*types.Named); ok && tn.Exported() {
				for i := 0; i < named.NumMethods(); i++ {
					if fn := named.Method(i); fn.Exported() {
						flag(fn, name+"."+fn.Name())
					}
				}
			}
		}
	}
	report(t, m, unearnedAt, unearnedExports, "has no non-test user",
		"delete it, unexport it, or move it into a _test.go file", "is earned or gone")
}

// report fails t on each key of found that allowed does not list, and on
// each key allowed lists that found lacks; it logs the allowed finds.
func report(t *testing.T, m *typedModule, found map[string]token.Pos, allowed map[string]string, what, fix, stale string) {
	keys := make([]string, 0, len(found))
	for k := range found {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if why, ok := allowed[k]; ok {
			t.Logf("%s %s, allowed: %s", k, what, why)
		} else {
			t.Errorf("%s: %s %s: %s", m.fset.Position(found[k]), k, what, fix)
		}
	}
	for k, why := range allowed {
		if _, ok := found[k]; !ok {
			t.Errorf("%s %s; drop it from the allow-list (%s)", k, stale, why)
		}
	}
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
	"internal/flink.Config.RescaleBackoffSec":             "TestRescaleRetriesThenFails and TestRescaleDeadlineBoundsRetries back off 4 s and 10 s, not the default 5 s",
}

// Every exported field of an exported *Config or *Options struct under
// internal/, and of core.PolicyEnv, is set by some non-test code (bench/,
// cmd/, examples/ and the root facade count): a field nobody sets is a
// constant with plumbing, so make it one. A field is set when it is a
// key of a composite literal of its type, or the target of an assignment
// outside a defaults method and outside an if whose condition reads the
// same field (the `if o.F <= 0 { o.F = v }` idiom).
func TestNoUnsetOptions(t *testing.T) {
	m := typedSource(t)
	options := map[*types.Var]string{} // option field → "dir.Type.Field"
	for _, p := range m.pkgs {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			if st, ok := scope.Lookup(name).Type().Underlying().(*types.Struct); ok && isOptionType(p.dir, name) {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						options[f] = p.dir + "." + name + "." + f.Name()
					}
				}
			}
		}
	}

	set := map[*types.Var]bool{}
	for _, p := range m.pkgs {
		assigned := func(stack []ast.Node, e ast.Expr) {
			if sel, ok := e.(*ast.SelectorExpr); ok && p.info.Selections[sel] != nil && !defaulting(stack, sel.Sel.Name) {
				set[p.info.Selections[sel].Obj().(*types.Var).Origin()] = true
			}
		}
		for _, f := range p.files {
			var stack []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, ok := p.info.TypeOf(n).Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if v, ok := p.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
								set[v.Origin()] = true
							}
						} else { // a positional literal
							set[st.Field(i).Origin()] = true
						}
					}
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						assigned(stack, l)
					}
				case *ast.IncDecStmt:
					assigned(stack, n.X)
				}
				return true
			})
		}
	}

	unset := map[string]token.Pos{}
	for f, k := range options {
		if !set[f] {
			unset[k] = f.Pos()
		}
	}
	report(t, m, unset, unsetOptions, "is set by no non-test code",
		"make it a constant, or set it where it has a second value", "is set or gone")
}

// isOptionType reports whether the type named name in package dir is
// one TestNoUnsetOptions checks.
func isOptionType(dir, name string) bool {
	if dir == "internal/core" && name == "PolicyEnv" {
		return true
	}
	return ast.IsExported(name) && (strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options"))
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
