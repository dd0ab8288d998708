package autrascale_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unearned lists internal packages allowed to have no importer yet, each
// with the consumer that is to earn it. Anything else under internal/
// that no other package's non-test code imports is dead weight: delete
// it or give it a caller.
var unearned = map[string]string{
	"internal/eventsim": "ROADMAP item 4(a): the record-level cross-check of internal/flink",
}

// Every package under internal/ has at least one non-test importer
// outside itself.
func TestNoOrphanInternalPackages(t *testing.T) {
	const module = "autrascale/"
	packages := map[string]bool{}              // internal dirs holding non-test Go
	importedBy := map[string]map[string]bool{} // import path → importing dirs
	fset := token.NewFileSet()
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(dir, "internal/") {
			packages[dir] = true
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if !strings.HasPrefix(p, module) {
				continue
			}
			p = strings.TrimPrefix(p, module)
			if importedBy[p] == nil {
				importedBy[p] = map[string]bool{}
			}
			importedBy[p][dir] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(packages) == 0 {
		t.Fatal("found no packages under internal/; the test must run from the module root")
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
