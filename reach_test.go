package umon_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The reachability ratchet: production means reachable. Every top-level
// function and method outside _test.go files and outside bench/ must be
// named by some non-test file other than at its own declaration, and every
// internal/ package must be a dependency of a binary, the facade or an
// example. Matching is by identifier name (go/parser only, no type
// information), so the check can miss dead code that shares a name with
// live code; the one live code it would flag is a method nothing names
// because only the standard library calls it, through an interface of its
// own — exempt the name below when one appears.
//
// reachAllow is the whole list of exceptions: symbol (or package, which
// covers what it declares) → the ROADMAP item that decides its fate. An
// entry that has become reachable or has disappeared fails the test too, so
// the list only shrinks.
var reachAllow = map[string]string{
	"internal/mbuf.Pool.Live": "ROADMAP item 2", // the leak check behind "memory is a function of flags"
}

func TestReachable(t *testing.T) {
	type decl struct{ sym, name string }
	var decls []decl
	declIdent := map[*ast.Ident]bool{}
	used := map[string]bool{}
	exempt := map[string]bool{"main": true, "init": true} // plus every method name an interface in the tree declares
	pkgDirs := map[string]bool{}

	fset := token.NewFileSet()
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (strings.HasPrefix(n, ".") || n == "out" || n == "bin") {
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
		files = append(files, f)
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(dir, "internal/") {
			pkgDirs[dir] = true
		}
		if _, allowed := reachAllow[dir]; allowed || dir == "bench" {
			return nil // bench/ names things; its own declarations are not checked
		}
		if dir == "." {
			dir = "umon"
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declIdent[fd.Name] = true
			sym := dir + "." + fd.Name.Name
			if fd.Recv != nil {
				sym = dir + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls = append(decls, decl{sym, fd.Name.Name})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if !declIdent[n] {
					used[n.Name] = true
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						exempt[name.Name] = true
					}
				}
			}
			return true
		})
	}

	seen := map[string]bool{}
	for _, d := range decls {
		dead := !used[d.name] && !exempt[d.name]
		_, allowed := reachAllow[d.sym]
		seen[d.sym] = true
		switch {
		case dead && !allowed:
			t.Errorf("%s: no non-test file names it; delete it, or move it to an export_test.go if only tests need it", d.sym)
		case !dead && allowed:
			t.Errorf("%s: is reachable now; drop it from reachAllow", d.sym)
		}
	}

	out, err := exec.Command("go", "list", "-deps", "./cmd/...", ".", "./examples/...").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	deps := map[string]bool{}
	for _, p := range strings.Fields(string(out)) {
		deps[strings.TrimPrefix(p, "umon/")] = true
	}
	for dir := range pkgDirs {
		_, allowed := reachAllow[dir]
		seen[dir] = true
		switch {
		case !deps[dir] && !allowed:
			t.Errorf("%s: no binary, example or the facade depends on it", dir)
		case deps[dir] && allowed:
			t.Errorf("%s: is a dependency now; drop it from reachAllow", dir)
		}
	}

	for sym, owner := range reachAllow {
		if !seen[sym] {
			t.Errorf("%s: allowlisted but no longer declared; drop it from reachAllow", sym)
		}
		if !strings.HasPrefix(owner, "ROADMAP item ") {
			t.Errorf("reachAllow[%s]: owner %q must name a ROADMAP item", sym, owner)
		}
	}
}

// recvName is the receiver's type name without pointer or type parameters.
func recvName(e ast.Expr) string {
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
			return "?"
		}
	}
}
