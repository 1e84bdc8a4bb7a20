package symbiosys

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// orphanAllow is the one list of exceptions to TestNoOrphans, each with
// its reason: a function name, or an option as "pkg.Struct.Field" (or
// "pkg.Struct" for every field of a struct).
var orphanAllow = map[string]string{
	"StartDetector":                  "SSG failure detection: started by no scenario yet, ROADMAP item 1 schedules it onto the clock",
	"ssg.DetectorConfig":             "configures StartDetector; its test shortens every interval",
	"CancelPosted":                   "sweeps the handles posted to a target declared dead; nothing declares one until the detector runs, the cancel tests of mercury and margo drive it",
	"SetClockSkew":                   "margo's Lamport-order test skews one process's wall clock, the only way to show ordering does not lean on timestamps",
	"batch.Policy.MaxBytes":          "every deployment keeps the 128 KiB default; the byte-trigger tests lower it to reach ReasonBytes",
	"margo.RetryPolicy.BudgetRefill": "the budget-exhaustion tests slow the refill so the bucket runs dry",
}

var (
	// implicit names are called through a standard-library interface.
	implicit     = map[string]bool{"init": true, "String": true, "Error": true, "ServeHTTP": true, "MarshalJSON": true}
	optionStruct = regexp.MustCompile(`^([A-Z]\w*)?(Config|Options|Policy|Plan|Opts)$`)
	rpcConst     = regexp.MustCompile(`^RPC[A-Z]\w*$`)
)

// fn is what one function of a non-test file mentions, or, under the
// name "init", what the package-level declarations of one file do.
type fn struct {
	name, pkg, file string
	root            bool // an init, a main, or anything under benchmark/
	mentions        map[string]bool
	calls           map[string]bool // RPC name constants used other than to register them
	sets            map[string]bool // "pkg.Struct.Field" by keyed literal; ".Field" by assignment or untyped literal
}

// TestNoOrphans fails when the tree carries (a) a function that no main
// under cmd/ or examples/ and nothing under benchmark/ reaches, (b) an
// RPC with a handler and no caller, or (c) an option no non-test file
// sets. It walks the tree by name (go/parser and go/ast, no types), which
// over-approximates: it can miss an orphan, it cannot report code that is
// reached. A package without a non-test importer fails (a) wholesale.
func TestNoOrphans(t *testing.T) {
	var fns []*fn
	rpcs, options := map[string]string{}, map[string]string{} // RPC constant, "pkg.Struct.Field" -> declaring file
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if name := d.Name(); d.IsDir() && path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "out") {
			return filepath.SkipDir
		} else if d.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		bench := strings.HasPrefix(path, "benchmark/")
		newFn := func(name string, root bool) *fn {
			f := &fn{name, filepath.Base(filepath.Dir(path)), path, root, map[string]bool{}, map[string]bool{}, map[string]bool{}}
			fns = append(fns, f)
			return f
		}
		vars := newFn("init", true) // package-level declarations take effect on import
		for _, decl := range file.Decls {
			f := vars
			if d, ok := decl.(*ast.FuncDecl); ok {
				f = newFn(d.Name.Name, bench || d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main"))
			}
			// Where a name ends that is declared or registered, not used: a
			// declared constant, a Register*(...) argument, a literal's key.
			registers := map[token.Pos]bool{}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					f.mentions[n.Name] = true
					if rpcConst.MatchString(n.Name) && !registers[n.End()] {
						f.calls[n.Name] = true
					}
				case *ast.ValueSpec:
					for _, name := range n.Names {
						registers[name.End()] = true
						if f == vars && !bench && rpcConst.MatchString(name.Name) {
							rpcs[name.Name] = path
						}
					}
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok && strings.HasPrefix(path, "internal/") && optionStruct.MatchString(n.Name.Name) {
						for _, field := range st.Fields.List {
							for _, name := range field.Names {
								if name.IsExported() {
									options[f.pkg+"."+n.Name.Name+"."+name.Name] = path
								}
							}
						}
					}
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && strings.HasPrefix(sel.Sel.Name, "Register") {
						for _, arg := range n.Args {
							registers[arg.End()] = true
						}
					}
				case *ast.CompositeLit:
					typ := "" // stays "" for an elided element type
					switch t := n.Type.(type) {
					case *ast.Ident:
						typ = f.pkg + "." + t.Name
					case *ast.SelectorExpr:
						typ = t.X.(*ast.Ident).Name + "." + t.Sel.Name
					}
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							registers[kv.Key.End()] = true
							if k, ok := kv.Key.(*ast.Ident); ok {
								f.sets[typ+"."+k.Name] = true
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							f.sets["."+sel.Sel.Name] = true
						}
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	byName := map[string][]*fn{}
	for _, f := range fns {
		byName[f.name] = append(byName[f.name], f)
	}
	reached := map[*fn]bool{}
	var reach func(f *fn)
	reach = func(f *fn) {
		if !reached[f] {
			reached[f] = true
			for name := range f.mentions {
				for _, callee := range byName[name] {
					reach(callee)
				}
			}
		}
	}
	for _, f := range fns {
		if f.root {
			reach(f)
		}
	}

	var bad []string
	called := map[string]bool{}
	for _, f := range fns {
		if !reached[f] && !implicit[f.name] && orphanAllow[f.name] == "" {
			bad = append(bad, f.file+": func "+f.name+" is reached only by tests")
		}
		for r := range f.calls {
			called[r] = called[r] || reached[f] && !strings.HasSuffix(f.name, "RPCNames")
		}
	}
	for r, file := range rpcs {
		if !called[r] {
			bad = append(bad, file+": "+r+" has a handler and no caller outside tests")
		}
	}
	for o, file := range options {
		pkg, strct, field := o[:strings.Index(o, ".")], o[:strings.LastIndex(o, ".")], o[strings.LastIndex(o, "."):]
		set := orphanAllow[o] != "" || orphanAllow[strct] != ""
		for _, f := range fns {
			// A package filling its own zero option with the default sets nothing.
			fills := f.pkg == pkg && strings.Contains(strings.ToLower(f.name), "defaults")
			set = set || (f.sets[o] || f.sets[field]) && !fills
		}
		if !set {
			bad = append(bad, file+": option "+o+" is set by no non-test file")
		}
	}
	if sort.Strings(bad); len(bad) > 0 {
		t.Error(strings.Join(bad, "\n"))
	}
	if len(orphanAllow) > 12 {
		t.Errorf("the allowlist has %d entries; it may hold 12", len(orphanAllow))
	}
	t.Logf("option fields: %d, allowlist entries: %d", len(options), len(orphanAllow))
}
