package umon_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestRunPatternsMatchTests keeps the targeted test steps honest: every
// `go test -run` of the Makefile and of CI that runs tests (not a benchmark
// pass, whose -run only keeps tests out) names packages, and each
// alternative of its pattern must match a Test or Fuzz function of one of
// them, and each package must have a function the pattern matches. A
// renamed test would otherwise leave a race or CI step running nothing, and
// passing.
func TestRunPatternsMatchTests(t *testing.T) {
	steps := 0
	for _, file := range []string{"Makefile", ".github/workflows/ci.yml"} {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(b), "\n") {
			args := shellWords(line)
			at := slices.Index(args, "-run")
			if at < 0 || at+1 == len(args) || !slices.Contains(args, "test") || slices.Contains(args, "-bench") {
				continue
			}
			steps++
			var pkgs []string
			for _, a := range args {
				if strings.HasPrefix(a, "./") {
					pkgs = append(pkgs, a)
				}
			}
			where := fmt.Sprintf("%s:%d", file, n+1)
			if len(pkgs) == 0 {
				t.Errorf("%s: a -run step names no package", where)
				continue
			}
			names := map[string][]string{} // package → its Test and Fuzz functions
			for _, p := range pkgs {
				names[p] = testFuncs(t, p)
			}
			pattern := args[at+1]
			for _, alt := range strings.Split(pattern, "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s: -run alternative %q: %v", where, alt, err)
					continue
				}
				if !anyMatch(re, names) {
					t.Errorf("%s: -run alternative %q matches no Test or Fuzz function in %v", where, alt, pkgs)
				}
			}
			re := regexp.MustCompile(pattern)
			for _, p := range pkgs {
				if !anyMatch(re, map[string][]string{p: names[p]}) {
					t.Errorf("%s: -run %q runs nothing in %s", where, pattern, p)
				}
			}
		}
	}
	if steps == 0 {
		t.Fatal("found no -run step: the parser is off")
	}
}

// testFuncs lists the Test and Fuzz functions of the package in dir.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("%s: no test files (%v)", dir, err)
	}
	var out []string
	fset := token.NewFileSet()
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range af.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && (strings.HasPrefix(fd.Name.Name, "Test") || strings.HasPrefix(fd.Name.Name, "Fuzz")) {
				out = append(out, fd.Name.Name)
			}
		}
	}
	return out
}

func anyMatch(re *regexp.Regexp, names map[string][]string) bool {
	for _, ns := range names {
		for _, n := range ns {
			if re.MatchString(n) {
				return true
			}
		}
	}
	return false
}

// shellWords splits a command line into words, honouring single quotes.
func shellWords(line string) []string {
	var words []string
	var cur strings.Builder
	inWord, quoted := false, false
	for _, r := range line {
		switch {
		case r == '\'':
			quoted, inWord = !quoted, true
		case !quoted && (r == ' ' || r == '\t'):
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
			}
			inWord = false
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}
