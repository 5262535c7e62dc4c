package udbench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAPI lists the exported functions and methods that no
// non-test code calls but that stay exported, each with its reason: the
// tests of another package need it, or an open ROADMAP item removes it.
// Keys are "<dir>.<Name>" for a function and "<dir>.<Recv>.<Name>" for
// a method.
var testOnlyAPI = map[string]string{
	"internal/wal.FailFS.CrashAtByte":   "fault injection: durable's crash matrix kills the log at a byte offset",
	"internal/wal.FailFS.CrashAtSync":   "fault injection: durable's crash matrix kills the log mid-fsync",
	"internal/wal.FailFS.Crashed":       "fault injection: durable's crash matrix checks that its kill point fired",
	"internal/wal.FailFS.FailSyncsFrom": "fault injection: durable's sealed-log test fails every later fsync",
	"internal/wal.MemFS.Crash":          "fault injection: durable's crash tests drop the unsynced page cache",

	"internal/consistency.NewAtomicityChecker":              "durable's crash test and federation's atomicity test; goes with the ROADMAP item 'Isolation, checked on every run'",
	"internal/consistency.AtomicityChecker.RegisterTxn":     "as NewAtomicityChecker",
	"internal/consistency.AtomicityChecker.ObserveSnapshot": "as NewAtomicityChecker",
	"internal/consistency.AtomicityChecker.Violations":      "as NewAtomicityChecker",
	"internal/consistency.AtomicityChecker.Snapshots":       "as NewAtomicityChecker",
	"internal/txn.Manager.LockEntryCount":                   "udbms's lock-sweep test; goes with the ROADMAP item 'A long run stays bounded'",

	"internal/txn.Manager.ActiveCount":     "fixture: workload's conformance test checks that no transaction leaks",
	"internal/document.Collection.SetPath": "fixture: durable, federation, udbms and workload tests write one path",
	"internal/document.Func":               "fixture: udbms and workload reference queries filter with a Go predicate",
	"internal/xmlstore.MustParse":          "fixture: convert, federation and udbms tests build XML literals",
	"internal/mmvalue.MustParseJSON":       "fixture: convert, document and mmschema tests build JSON literals",
	"internal/graph.Store.GetEdge":         "fixture: durable, udbms and workload tests read an edge back",
}

// TestNoTestOnlyAPI holds the repository to exporting only what a
// program calls: every exported top-level function or method declared
// in internal/ or cmd/ must be named by an identifier in some non-test
// Go file of the repository (bench/ included), outside its own
// declaration, or be listed in testOnlyAPI with its reason. A name that
// only its own package's tests use belongs in an export_test.go.
func TestNoTestOnlyAPI(t *testing.T) {
	declared := map[string]string{} // key -> function or method name
	used := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") || path == filepath.Join("bench", "out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		api := strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/")
		own := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			own[fd.Name] = true
			if api && fd.Name.IsExported() {
				key := dir + "."
				if fd.Recv != nil {
					key += recvName(fd.Recv.List[0].Type) + "."
				}
				declared[key+fd.Name.Name] = fd.Name.Name
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for key, name := range declared {
		if _, kept := testOnlyAPI[key]; !kept && !used[name] {
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		t.Errorf("%s is exported but no non-test code calls it: delete it, move it into an export_test.go, or list it in testOnlyAPI with a reason", key)
	}
	for key, reason := range testOnlyAPI {
		if _, ok := declared[key]; !ok {
			t.Errorf("testOnlyAPI lists %s, which is no longer declared", key)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("testOnlyAPI lists %s without a reason", key)
		}
	}
}

// recvName is the type name of a method receiver: T, *T, T[P] or *T[P].
func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
