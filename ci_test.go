package udbench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ciPattern finds the test selectors in CI's go test commands: a -run,
// -bench or -fuzz flag and its quoted or bare pattern.
var ciPattern = regexp.MustCompile(`\s-(run|bench|fuzz) +(?:'([^']*)'|"([^"]*)"|([^\s'"]+))`)

// ciPrefixes maps each flag to the function kinds it selects.
var ciPrefixes = map[string][]string{
	"run":   {"Test", "Example", "Fuzz"},
	"bench": {"Benchmark"},
	"fuzz":  {"Fuzz"},
}

// TestCIPatternsNameTests fails when an alternative of a -run, -bench
// or -fuzz pattern in the CI workflow matches no Test, Example,
// Benchmark or Fuzz function declared in a _test.go file. go test
// passes silently on a pattern that selects nothing, so a renamed or
// deleted test would otherwise drop out of a CI gate unnoticed. An
// alternative that is only anchors, such as '^$', selects nothing on
// purpose and is skipped.
func TestCIPatternsNameTests(t *testing.T) {
	yml, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	var funcs []string
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") || path == filepath.Join("bench", "out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, dd := range f.Decls {
			if fd, ok := dd.(*ast.FuncDecl); ok && fd.Recv == nil {
				funcs = append(funcs, fd.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, m := range ciPattern.FindAllStringSubmatch(string(yml), -1) {
		flag, pattern := m[1], m[2]+m[3]+m[4]
		for _, alt := range strings.Split(pattern, "|") {
			alt = strings.Split(alt, "/")[0] // the top-level test of a subtest selector
			if strings.Trim(alt, "^$") == "" {
				continue
			}
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("-%s %q: %v", flag, alt, err)
				continue
			}
			checked++
			if !selectsAny(re, funcs, ciPrefixes[flag]) {
				t.Errorf("ci.yml: -%s alternative %q matches no %s function in a _test.go file",
					flag, alt, strings.Join(ciPrefixes[flag], ", "))
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run, -bench or -fuzz pattern in ci.yml")
	}
}

// selectsAny reports whether re matches a function of one of the kinds
// prefixes name.
func selectsAny(re *regexp.Regexp, funcs, prefixes []string) bool {
	for _, name := range funcs {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) && re.MatchString(name) {
				return true
			}
		}
	}
	return false
}
