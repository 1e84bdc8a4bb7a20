package symbiosys

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// orphanAllow is the one list of exceptions to TestNoOrphans, each with
// its reason: a function, as its name or "pkg.Name"/"pkg.Type.Name", or
// an option as "pkg.Struct.Field" (or "pkg.Struct" for every field of a
// struct). An allowlisted function is a root: what it reaches is reached.
var orphanAllow = map[string]string{
	"SetClockSkew":    "margo's Lamport-order test skews one process's wall clock, the only way to show ordering does not lean on timestamps; no scenario skews a clock yet",
	"SetLink":         "per-link fault editing: the fault tests of na, mercury, margo and the services delay, drop or cut one link; the chaos plan faults every link alike",
	"Partition":       "cuts a link both ways for the same fault tests (see SetLink)",
	"PartitionOneWay": "cuts a link one way for the same fault tests (see SetLink)",
}

var (
	// implicit methods are called by the standard library through one of
	// its interfaces (fmt, errors, net/http, encoding/json), which the rule
	// does not look into: they are roots.
	implicit     = map[string]bool{"String": true, "Error": true, "ServeHTTP": true, "MarshalJSON": true}
	optionStruct = regexp.MustCompile(`^([A-Z]\w*)?(Config|Options|Policy|Plan|Opts)$`)
	rpcConst     = regexp.MustCompile(`^RPC[A-Z]\w*$`)
)

// TestNoOrphans fails when the tree carries (a) a function that no main
// under cmd/ or examples/ and nothing under benchmark/ reaches, (b) an
// RPC with a handler and no caller, or (c) an option no non-test file
// sets. References are resolved by go/types over the non-test files of
// both modules, so a name shared by two functions, or by two fields,
// does not make one of them look used.
func TestNoOrphans(t *testing.T) {
	pkgs := loadPackages(t, goList(t, ".", "./..."), goList(t, "benchmark", "./..."))
	r := findOrphans(pkgs, orphanAllow, func(p *checkedPkg) bool {
		return p.types.Name() == "main" || strings.HasPrefix(p.types.Path(), "symbiosys/benchmark")
	})
	if len(r.bad) > 0 {
		t.Error(strings.Join(r.bad, "\n"))
	}
	if len(orphanAllow) > 5 {
		t.Errorf("the allowlist has %d entries; it may hold 5", len(orphanAllow))
	}
	t.Logf("unreached functions: %d, option fields: %d, allowlist entries: %d", r.unreached, r.options, len(orphanAllow))
}

// TestNoOrphansCatchesNameCollisions runs the rule on testdata/orphans,
// which carries one of each orphan a match by name misses: a method
// named like a reached function, an RPC forwarded only inside it, and an
// option field whose name a reached struct shares.
func TestNoOrphansCatchesNameCollisions(t *testing.T) {
	pkgs := loadPackages(t, goList(t, ".", "./testdata/orphans/..."))
	r := findOrphans(pkgs, nil, func(p *checkedPkg) bool { return p.types.Name() == "main" })
	want := []string{
		"testdata/orphans/internal/store/store.go: RPCOpen has a handler and no caller outside tests",
		"testdata/orphans/internal/store/store.go: func store.Client.Open is reached only by tests",
		"testdata/orphans/internal/store/store.go: option store.Config.Verbose is set by no non-test file",
	}
	if strings.Join(r.bad, "\n") != strings.Join(want, "\n") {
		t.Errorf("reports:\n%s\nwant:\n%s", strings.Join(r.bad, "\n"), strings.Join(want, "\n"))
	}
	if r.unreached != 1 || r.options != 3 {
		t.Errorf("unreached functions %d, option fields %d; want 1 and 3", r.unreached, r.options)
	}
}

// listedPkg is one package as `go list -json` prints it.
type listedPkg struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	Standard                bool
}

// goList lists the packages matching patterns in dir and every package
// they import, dependencies first, with the export data the build cache
// holds for each.
func goList(t *testing.T, dir string, patterns ...string) []listedPkg {
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export", "-json=ImportPath,Dir,Export,GoFiles,Standard"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var list []listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			return list
		} else if err != nil {
			t.Fatal(err)
		}
		list = append(list, p)
	}
}

// checkedPkg is the type-checked non-test source of one module package.
type checkedPkg struct {
	fset  *token.FileSet
	dir   string // relative to the root module
	files []*ast.File
	info  *types.Info
	types *types.Package
}

// loadPackages type-checks every non-standard package of the lists from
// source, dependencies first, so that a package's objects are the same
// objects in every package that imports it; standard packages come from
// the gc export data the lists name.
func loadPackages(t *testing.T, lists ...[]listedPkg) []*checkedPkg {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	export, checked := map[string]string{}, map[string]*types.Package{}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(export[path]) })
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return gc.Import(path)
	})}
	var pkgs []*checkedPkg
	for _, list := range lists {
		for _, l := range list {
			if l.Standard {
				export[l.ImportPath] = l.Export
				continue
			} else if checked[l.ImportPath] != nil {
				continue // a root module package that benchmark/ imports
			}
			p := &checkedPkg{fset: fset, info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}}
			if p.dir, err = filepath.Rel(root, l.Dir); err != nil {
				t.Fatal(err)
			}
			for _, name := range l.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				p.files = append(p.files, f)
			}
			if p.types, err = conf.Check(l.ImportPath, fset, p.files, p.info); err != nil {
				t.Fatal(err)
			}
			checked[l.ImportPath] = p.types
			pkgs = append(pkgs, p)
		}
	}
	return pkgs
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// body is what one function declaration, or under a nil fn the
// package-level declarations of one file, resolves to.
type body struct {
	fn    *types.Func
	pkg   *checkedPkg
	refs  []*types.Func  // functions and methods named, interface methods included
	calls []*types.Const // RPC name constants used other than to register them
	sets  []*types.Var   // fields set by a keyed literal or an assignment
}

func (b *body) resolve(decl ast.Decl) {
	info := b.pkg.info
	registers := map[token.Pos]bool{} // where a Register*(...) argument ends
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && strings.HasPrefix(sel.Sel.Name, "Register") {
				for _, arg := range n.Args {
					registers[arg.End()] = true
				}
			}
		case *ast.KeyValueExpr:
			if k, ok := n.Key.(*ast.Ident); ok {
				b.set(info.Uses[k])
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok {
					b.set(info.Uses[sel.Sel])
				}
			}
		case *ast.Ident:
			switch obj := info.Uses[n].(type) {
			case *types.Func:
				b.refs = append(b.refs, obj.Origin())
			case *types.Const:
				if rpcConst.MatchString(obj.Name()) && !registers[n.End()] {
					b.calls = append(b.calls, obj)
				}
			}
		}
		return true
	})
}

func (b *body) set(obj types.Object) {
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		b.sets = append(b.sets, v.Origin())
	}
}

type orphanReport struct {
	bad                []string
	unreached, options int
}

// findOrphans reaches every function from the roots — the functions of
// the root packages, every init, the package-level declarations, the
// allowlisted functions and the implicit methods —
// through the objects each body resolves to. A call through an interface
// method reaches every method of the checked packages that implements it.
// An option field is set by a keyed literal or an assignment of that
// very field in a reached body, other than its own package filling in a
// default.
func findOrphans(pkgs []*checkedPkg, allow map[string]string, rootPkg func(*checkedPkg) bool) orphanReport {
	var bodies []*body
	byFn := map[*types.Func]*body{}
	// The package-level types that are not interfaces, the RPC name
	// constants, and the option fields with their "pkg.Struct.Field".
	var concrete []*types.Named
	rpcs, options := map[*types.Const]bool{}, map[*types.Var]string{}
	for _, p := range pkgs {
		for _, name := range p.types.Scope().Names() {
			obj := p.types.Scope().Lookup(name)
			if c, ok := obj.(*types.Const); ok && !rootPkg(p) && rpcConst.MatchString(name) {
				rpcs[c] = true
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			if _, ok := named.Underlying().(*types.Interface); !ok {
				concrete = append(concrete, named)
			}
			if st, ok := named.Underlying().(*types.Struct); ok && tn.Exported() && optionStruct.MatchString(name) &&
				strings.Contains("/"+p.dir+"/", "/internal/") {
				for i := 0; i < st.NumFields(); i++ {
					if st.Field(i).Exported() {
						options[st.Field(i)] = p.types.Name() + "." + name + "." + st.Field(i).Name()
					}
				}
			}
		}
		for _, f := range p.files {
			vars := &body{pkg: p}
			bodies = append(bodies, vars)
			for _, decl := range f.Decls {
				b := vars
				if d, ok := decl.(*ast.FuncDecl); ok {
					b = &body{fn: p.info.Defs[d.Name].(*types.Func), pkg: p}
					bodies = append(bodies, b)
					byFn[b.fn] = b
				}
				b.resolve(decl)
			}
		}
	}

	implementers := map[*types.Func][]*types.Func{}
	dispatch := func(m *types.Func) []*types.Func {
		if impls, ok := implementers[m]; ok {
			return impls
		}
		iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		var impls []*types.Func
		for _, named := range concrete {
			// A generic type is taken to implement whatever it has the methods of.
			if named.TypeParams() == nil && !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
				continue
			}
			if f, ok := lookupMethod(named, m); ok {
				impls = append(impls, f)
			}
		}
		implementers[m] = impls
		return impls
	}

	reached := map[*body]bool{}
	var reach func(b *body)
	reach = func(b *body) {
		if b == nil || reached[b] {
			return
		}
		reached[b] = true
		for _, f := range b.refs {
			if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				for _, impl := range dispatch(f) {
					reach(byFn[impl])
				}
			} else {
				reach(byFn[f])
			}
		}
	}
	for _, b := range bodies {
		if b.fn == nil || rootPkg(b.pkg) || b.fn.Name() == "init" || allow[b.fn.Name()] != "" || allow[qualified(b.fn)] != "" ||
			implicit[b.fn.Name()] && b.fn.Type().(*types.Signature).Recv() != nil {
			reach(b)
		}
	}

	file := func(obj types.Object) string { return pkgs[0].fset.Position(obj.Pos()).Filename }
	r := orphanReport{options: len(options)}
	called, set := map[*types.Const]bool{}, map[*types.Var]bool{}
	for _, b := range bodies {
		if !reached[b] {
			r.unreached++
			r.bad = append(r.bad, file(b.fn)+": func "+qualified(b.fn)+" is reached only by tests")
			continue
		}
		if b.fn == nil || !strings.HasSuffix(b.fn.Name(), "RPCNames") {
			for _, c := range b.calls {
				called[c] = true
			}
		}
		for _, v := range b.sets {
			// A package filling in the defaults of its own zero option sets nothing.
			if b.fn == nil || v.Pkg() != b.pkg.types || !isDefaultsFill(b.fn) {
				set[v] = true
			}
		}
	}
	for c := range rpcs {
		if !called[c] {
			r.bad = append(r.bad, file(c)+": "+c.Name()+" has a handler and no caller outside tests")
		}
	}
	for v, name := range options {
		if !set[v] && allow[name] == "" && allow[name[:strings.LastIndex(name, ".")]] == "" {
			r.bad = append(r.bad, file(v)+": option "+name+" is set by no non-test file")
		}
	}
	sort.Strings(r.bad)
	return r
}

// isDefaultsFill reports whether f is a method like Config.fillDefaults
// or Policy.WithDefaults, which fills in the zero fields of its receiver.
func isDefaultsFill(f *types.Func) bool {
	return f.Type().(*types.Signature).Recv() != nil && strings.Contains(strings.ToLower(f.Name()), "defaults")
}

// lookupMethod returns the method named like m in the method set of
// *named, promoted ones included.
func lookupMethod(named *types.Named, m *types.Func) (*types.Func, bool) {
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), false, m.Pkg(), m.Name())
	f, ok := obj.(*types.Func)
	if !ok {
		return nil, false
	}
	return f.Origin(), true
}

// qualified names a function "pkg.Name", or a method "pkg.Type.Name".
func qualified(f *types.Func) string {
	name := f.Pkg().Name() + "." + f.Name()
	if recv := f.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			name = f.Pkg().Name() + "." + n.Obj().Name() + "." + f.Name()
		}
	}
	return name
}
