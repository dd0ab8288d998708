package autrascale_test

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	inlineCode = regexp.MustCompile("`([^`]+)`")
	makeRef    = regexp.MustCompile(`\bmake ([a-z][\w-]*)`)
	goRunRef   = regexp.MustCompile(`\bgo run \./([\w./-]+)`)
	makeRule   = regexp.MustCompile(`(?m)^([a-zA-Z][\w-]*)\s*:(?:[^=]|$)`)
)

// Every backticked make invocation in the docs and Go comments names a
// Makefile rule, and every backticked `go run ./<path>` names a main
// package of this module. CHANGES.md is history and is not scanned.
func TestDocsNameRealTargets(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeRule.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	src := sourceFiles(t)
	mains := map[string]bool{}
	for _, gf := range src.files {
		if gf.f.Name.Name == "main" {
			mains[gf.dir] = true
		}
	}
	check := func(where, code string) {
		code = strings.Join(strings.Fields(code), " ")
		for _, m := range makeRef.FindAllStringSubmatch(code, -1) {
			if !targets[m[1]] {
				t.Errorf("%s: `%s` names no Makefile target", where, m[0])
			}
		}
		for _, m := range goRunRef.FindAllStringSubmatch(code, -1) {
			if !mains[strings.TrimSuffix(m[1], "/")] {
				t.Errorf("%s: `%s` names no main package", where, m[0])
			}
		}
	}

	docs := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"}
	for _, root := range []string{"docs", ".claude/skills"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".md") {
				docs = append(docs, path)
			}
			return err
		})
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			t.Fatal(err)
		}
	}
	for _, path := range docs {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range markdownCode(string(blob)) {
			check(fmt.Sprintf("%s:%d", path, s.line), s.code)
		}
	}
	for _, gf := range slices.Concat(src.files, src.tests) {
		for _, cg := range gf.f.Comments {
			text := cg.Text()
			for _, m := range inlineCode.FindAllStringSubmatchIndex(text, -1) {
				line := src.fset.Position(cg.Pos()).Line + strings.Count(text[:m[0]], "\n")
				check(fmt.Sprintf("%s:%d", gf.path, line), text[m[2]:m[3]])
			}
		}
	}
}

// codeSpan is one piece of backticked markdown and the line it starts on.
type codeSpan struct {
	line int
	code string
}

// markdownCode returns every line of a fenced block and every inline
// code span (which may wrap lines) of a markdown text.
func markdownCode(text string) []codeSpan {
	var out []codeSpan
	var prose strings.Builder
	var proseLines []int // the text's line number of each prose line
	fenced := false
	for i, l := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(l), "```"):
			fenced = !fenced
		case fenced:
			out = append(out, codeSpan{i + 1, l})
		default:
			proseLines = append(proseLines, i+1)
			prose.WriteString(l + "\n")
		}
	}
	p := prose.String()
	for _, m := range inlineCode.FindAllStringSubmatchIndex(p, -1) {
		out = append(out, codeSpan{proseLines[strings.Count(p[:m[0]], "\n")], p[m[2]:m[3]]})
	}
	return out
}
