package autrascale_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var (
	inlineCode = regexp.MustCompile("`([^`]+)`")
	makeRef    = regexp.MustCompile(`\bmake ([a-z][\w-]*)`)
	goRunRef   = regexp.MustCompile(`\bgo run \./([\w./-]+)`)
	makeRule   = regexp.MustCompile(`(?m)^([a-zA-Z][\w-]*)\s*:(?:[^=]|$)`)
	flagToken  = regexp.MustCompile(`^--?([a-zA-Z][\w-]*)(=.*)?$`)
	pathRef    = regexp.MustCompile(`(?:^|[^\w])(internal/[\w./<>…-]*)`)
)

// flagDefiners maps each flag-defining function of package flag (and
// method of flag.FlagSet) to the argument index of the flag's name.
var flagDefiners = map[string]int{
	"Bool": 0, "BoolFunc": 0, "Duration": 0, "Float64": 0, "Func": 0,
	"Int": 0, "Int64": 0, "String": 0, "Uint": 0, "Uint64": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1,
	"StringVar": 1, "TextVar": 1, "UintVar": 1, "Uint64Var": 1, "Var": 1,
}

// definedFlags maps each main package's directory to the flag names its
// non-test code defines with a string literal through flag.* or fs.*.
func definedFlags(files []goFile) map[string]map[string]bool {
	flags := map[string]map[string]bool{}
	for _, gf := range files {
		if gf.f.Name.Name != "main" {
			continue
		}
		if flags[gf.dir] == nil {
			flags[gf.dir] = map[string]bool{}
		}
		ast.Inspect(gf.f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			x, ok := sel.X.(*ast.Ident)
			at, definer := flagDefiners[sel.Sel.Name]
			if !ok || (x.Name != "flag" && x.Name != "fs") || !definer || at >= len(call.Args) {
				return true
			}
			if lit, ok := call.Args[at].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					flags[gf.dir][name] = true
				}
			}
			return true
		})
	}
	return flags
}

// goRunProblems lists what is wrong with the `go run ./<path>` commands
// in one code span: a path that is no main package, or a -flag (or
// -flag=value) that the package does not define. A command's arguments
// end at the first shell operator.
func goRunProblems(code string, flags map[string]map[string]bool) []string {
	var out []string
	for _, m := range goRunRef.FindAllStringSubmatchIndex(code, -1) {
		dir := strings.TrimSuffix(code[m[2]:m[3]], "/")
		defined, ok := flags[dir]
		if !ok {
			out = append(out, fmt.Sprintf("`%s` names no main package", code[m[0]:m[1]]))
			continue
		}
		for _, tok := range strings.Fields(code[m[1]:]) {
			if strings.ContainsAny(tok[:1], "|&;>") {
				break
			}
			if f := flagToken.FindStringSubmatch(tok); f != nil && !defined[f[1]] {
				out = append(out, fmt.Sprintf("`go run ./%s` has no flag %s", dir, tok))
			}
		}
	}
	return out
}

// internalPathProblems lists the `internal/...` paths in one code span
// that name nothing in the module: a path must be a file or directory,
// and an `internal/pkg.Symbol` path needs the package directory.
// Placeholders (`internal/<name>`, `internal/…`) are skipped.
func internalPathProblems(code string) []string {
	var out []string
	for _, m := range pathRef.FindAllStringSubmatch(code, -1) {
		path := strings.TrimRight(m[1], "./")
		if strings.ContainsAny(path, "<>…") {
			continue
		}
		if _, err := os.Stat(path); err == nil {
			continue
		}
		dir, base := filepath.Split(path)
		if pkg, _, ok := strings.Cut(base, "."); ok {
			if fi, err := os.Stat(dir + pkg); err == nil && fi.IsDir() {
				continue
			}
		}
		out = append(out, fmt.Sprintf("`%s` names nothing in the module", path))
	}
	return out
}

// Every backticked make invocation in the docs and Go comments names a
// Makefile rule, and every backticked `go run ./<path>` names a main
// package of this module and passes only flags that package defines.
// Every backticked `internal/...` path in the docs (but not ROADMAP.md,
// which names deleted packages on purpose) names a real package or file.
// CHANGES.md is history and is not scanned.
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
	flags := definedFlags(src.files)
	if got := goRunProblems("go run ./cmd/metricsd -chaos heavy", flags); len(got) != 1 {
		t.Fatalf("an undefined metricsd flag should be one problem, got %q", got)
	}
	if got := internalPathProblems("internal/queueing, ./internal/trace.FlightRecorder, internal/<pkg>/x.go, internal/persist/v1.go."); len(got) != 1 {
		t.Fatalf("only the deleted package should be a problem, got %q", got)
	}
	check := func(where, code string) {
		code = strings.Join(strings.Fields(code), " ")
		for _, m := range makeRef.FindAllStringSubmatch(code, -1) {
			if !targets[m[1]] {
				t.Errorf("%s: `%s` names no Makefile target", where, m[0])
			}
		}
		for _, p := range goRunProblems(code, flags) {
			t.Errorf("%s: %s", where, p)
		}
	}

	docs := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}
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
	for _, path := range append(docs, "ROADMAP.md") {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range markdownCode(string(blob)) {
			where := fmt.Sprintf("%s:%d", path, s.line)
			check(where, s.code)
			if path == "ROADMAP.md" {
				continue
			}
			for _, p := range internalPathProblems(s.code) {
				t.Errorf("%s: %s", where, p)
			}
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

// EXPERIMENTS.md's planner-refinement ablation recipe switches each
// refinement off with one textual edit, `variant <name> <file> '<old>'
// '<new>'`, and the recipe asserts that <old> occurs exactly once. Every
// such line must still apply to the tree, so a refactor that rewrites a
// pattern's line has to rewrite the recipe too.
func TestAblationRecipePatternsExist(t *testing.T) {
	blob, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(blob)
	start := strings.Index(text, "variant() {")
	if start < 0 {
		t.Fatal("EXPERIMENTS.md has no ablation recipe (variant() {)")
	}
	recipe := text[start:]
	recipe = recipe[:strings.Index(recipe, "```")]

	stale := "C=internal/core/algorithm1.go\nvariant stale $C 'opt.SuggestWith(res.Iterations%3 != 2)' 'opt.SuggestWith(false)'\n"
	if got := variantProblems(stale); len(got) != 1 {
		t.Fatalf("a stale pattern should be one problem, got %q", got)
	}
	n := 0
	for _, call := range shellCalls(recipe) {
		if call[0] == "variant" && len(call) > 2 && call[2] != "" {
			n++
		}
	}
	if n == 0 {
		t.Fatal("the ablation recipe names no variant with a file")
	}
	for _, p := range variantProblems(recipe) {
		t.Error("EXPERIMENTS.md ablation recipe: " + p)
	}
}

// variantProblems lists the variant calls of a shell script whose file
// is missing or whose old text does not occur in it exactly once. A
// variant with an empty file (the unedited base) is skipped.
func variantProblems(script string) []string {
	var out []string
	for _, call := range shellCalls(script) {
		if call[0] != "variant" {
			continue
		}
		if len(call) != 5 {
			out = append(out, fmt.Sprintf("variant %q has %d arguments, want 4", call[1:], len(call)-1))
			continue
		}
		name, file, old := call[1], call[2], call[3]
		if file == "" {
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			out = append(out, fmt.Sprintf("variant %s: %v", name, err))
			continue
		}
		if c := strings.Count(string(src), old); c != 1 {
			out = append(out, fmt.Sprintf("variant %s: %q occurs %d times in %s, want 1", name, old, c, file))
		}
	}
	return out
}

// shellCalls splits a shell script into the words of each command line:
// words split on blanks; single- and double-quoted text is literal and
// may span lines; $NAME expands to the value of an earlier NAME=value
// line (empty otherwise); a # at the start of a word comments out the
// rest of the line.
func shellCalls(script string) [][]string {
	vars := map[string]string{}
	var calls [][]string
	var words []string
	var word strings.Builder
	inWord := false
	var quote byte
	flush := func() {
		if inWord {
			words = append(words, word.String())
			word.Reset()
			inWord = false
		}
	}
	endLine := func() {
		flush()
		if len(words) == 1 {
			if name, val, ok := strings.Cut(words[0], "="); ok {
				vars[name] = val
			}
		}
		if len(words) > 0 {
			calls = append(calls, words)
		}
		words = nil
	}
	isName := func(c byte) bool {
		return c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
	}
	for i := 0; i < len(script); i++ {
		c := script[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else {
				word.WriteByte(c)
			}
		case c == '\'' || c == '"':
			quote, inWord = c, true
		case c == '$':
			j := i + 1
			for j < len(script) && isName(script[j]) {
				j++
			}
			word.WriteString(vars[script[i+1:j]])
			inWord, i = true, j-1
		case c == '#' && !inWord:
			for i+1 < len(script) && script[i+1] != '\n' {
				i++
			}
		case c == ' ' || c == '\t':
			flush()
		case c == '\n':
			endLine()
		default:
			word.WriteByte(c)
			inWord = true
		}
	}
	endLine()
	return calls
}
