package umon_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The reachability ratchet: production means reachable. Every top-level
// function and method outside _test.go files and outside bench/ must be
// used by some non-test file, bench/ included, other than at its own
// declaration, and every internal/ package must be a dependency of a
// binary, the facade or an example. Uses are resolved with go/types, so a
// method counts as used only where that method, not another of its name,
// is named. A method called through an interface resolves to the
// interface's method, so two kinds of method are exempt by name: those an
// interface in the tree declares, and stdlibCalled.
//
// The type-check imports every dependency from source, the standard
// library included; on a 2-core box the test takes about 13 s.
//
// reachAllow is the whole list of exceptions: symbol (or package, which
// covers what it declares) → the ROADMAP item that decides its fate. An
// entry that has become reachable or has disappeared fails the test too, so
// the list only shrinks.
var reachAllow = map[string]string{
	"internal/mbuf.Pool.Live": "ROADMAP item 2", // the leak check behind "memory is a function of flags"
}

// configFields pins the configuration surface: the exported fields of the
// exported structs under internal/ whose names end in Config or Options.
// The test fails when the count rises above it, and when it sits above
// the count: a change that removes a field lowers it.
const configFields = 43

// stdlibCalled are the method names only the standard library calls,
// through interfaces of its own: fmt.Stringer, error, io.Reader, io.Writer,
// io.Closer and http.Handler.
var stdlibCalled = []string{"String", "Error", "Read", "Write", "Close", "ServeHTTP"}

func TestReachable(t *testing.T) {
	begin := time.Now()
	type decl struct{ sym, name string }
	var decls []decl
	used := map[string]bool{}
	exempt := map[string]bool{"main": true, "init": true} // plus stdlibCalled and every method name an interface in the tree declares
	for _, name := range stdlibCalled {
		exempt[name] = true
	}
	pkgDirs := map[string]bool{}
	cfgFields, cfgTypes := 0, 0

	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // package directory → its non-test files
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
		dir := filepath.ToSlash(filepath.Dir(path))
		files[dir] = append(files[dir], f)
		if strings.HasPrefix(dir, "internal/") {
			pkgDirs[dir] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	for dir, fs := range files {
		path := "umon"
		if dir != "." {
			path += "/" + dir
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		pkg, err := conf.Check(path, fset, fs, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
		if strings.HasPrefix(dir, "internal/") {
			for _, name := range pkg.Scope().Names() {
				tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
				if !ok || tn.IsAlias() || !tn.Exported() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
					continue
				}
				if st, ok := tn.Type().Underlying().(*types.Struct); ok {
					cfgTypes++
					for i := 0; i < st.NumFields(); i++ {
						if st.Field(i).Exported() {
							cfgFields++
						}
					}
				}
			}
		}
		for _, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[symOf(fn)] = true
			}
		}
		for _, f := range fs {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, name := range m.Names {
							exempt[name.Name] = true
						}
					}
				}
				return true
			})
		}
		if _, allowed := reachAllow[dir]; allowed || dir == "bench" {
			continue // bench/ uses things; its own declarations are not checked
		}
		for _, f := range fs {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					decls = append(decls, decl{symOf(info.Defs[fd.Name].(*types.Func)), fd.Name.Name})
				}
			}
		}
	}
	t.Logf("type-checked %d packages in %v", len(files), time.Since(begin).Round(time.Millisecond))
	t.Logf("%d exported fields in %d config structs under internal/", cfgFields, cfgTypes)
	switch {
	case cfgFields > configFields:
		t.Errorf("%d exported config fields, more than the ceiling of %d: remove one, or raise configFields and say why", cfgFields, configFields)
	case cfgFields < configFields:
		t.Errorf("%d exported config fields, under the ceiling of %d: lower configFields to the count", cfgFields, configFields)
	}

	seen := map[string]bool{}
	for _, d := range decls {
		dead := !used[d.sym] && !exempt[d.name]
		_, allowed := reachAllow[d.sym]
		seen[d.sym] = true
		switch {
		case dead && !allowed:
			t.Errorf("%s: no non-test file uses it; delete it, or move it to an export_test.go if only tests need it", d.sym)
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

// symOf names fn as reachAllow does: its package directory (umon for the
// facade), then its receiver's type name, then its own name.
func symOf(fn *types.Func) string {
	fn = fn.Origin()
	if fn.Pkg() == nil {
		return fn.Name() // a universe method: error.Error
	}
	sym := strings.TrimPrefix(fn.Pkg().Path(), "umon/") + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			sym += n.Obj().Name() + "."
		}
	}
	return sym + fn.Name()
}
