package polystore

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// reachAllow names the symbols and fields that may have no reader outside
// tests, each with the test that needs it.
var reachAllow = map[string]string{
	"polystore.System.Handler":      "test harness: nine internal/server test files build their servers through it (newTestServer in server_test.go; stream_test, prepare_test, shape_test, topk_test, probe_test, tenant_e2e_test, fuzz_test and server_bench_test)",
	"core.NodeReport.Start":         "test oracle: TestSimulatedSchedulingRespectsDependencies, and reportsEqual in TestConcurrentMatchesSequential and TestSimulatedReportIgnoresHistory, hold the simulated schedule through it",
	"lru.Stats.Lookups":             "test oracle: core's TestRootMissProbedOnce counts through it the subplan-cache lookups a root-probe miss and the execution after it make",
	"relational.OpStats.Kind":       "test oracle: TestSeqScanAndFilter and TestQueryUsesIndexScan read the access path Engine.Query chose through it",
	"relational.OpStats.RowsIn":     "test oracle: TestSeqScanAndFilter and TestQueryUsesIndexScan check through it the rows a scan read, and the first a join's build plus probe rows",
	"relational.OpStats.RowsOut":    "test oracle: TestSeqScanAndFilter and TestQueryUsesIndexScan check through it the rows each step kept",
	"relational.Table.HasBTree":     "test oracle: TestGenerateClinicalShape and the backend suites' assertEquiv check through it that a deployment and a restored store carry their B-trees",
	"textstore.Store.Doc":           "test oracle: datagen's TestGeneratedDataPinned digests every generated note's text through it",
	"timeseries.WindowResult.Value": "test oracle: TestWindowMatchesFlatReference and timeseries_test.go's window tests read the means through it; WindowN's one non-test caller, bench/'s timeseries.window_us probe, times it and reads no window",
}

// TestExportedMiddlewareSymbolsAreReached is the reachability ratchet beside
// the LOC ratchet. In every package under internal/ and in the root facade,
// every exported package-level func, type, var and const, and every exported
// method declared there (on an unexported type or an interface too), must be
// reached from a non-test file of the module; and every field of a named
// struct type declared there, exported or not, must be read by one. The
// module is type-checked, and a use is matched to the declaration by its
// types.Object, not by its name, so a dead method stays visible when a live
// one elsewhere shares its name.
//
// Some methods are called where no identifier names them. Four rules keep
// them from being reported:
//
//   - The standard library calls a few interfaces' methods in code the scan
//     only has export data for: Error, String and GoString through fmt,
//     heap.Interface's through container/heap (graphstore's queue), and
//     UnmarshalJSON through encoding/json (server.Frontend). Those
//     interfaces' methods count as used.
//   - A call through an interface reaches every method that implements it. A
//     method counts as used when an interface method of its name is used and
//     its type, or a pointer to it, implements that interface. Interfaces are
//     types too: backend.Backend.Barrier is reached only through the narrower
//     core.DurabilityBarrier a Backend is assigned to.
//   - A method promoted through an embedded field is declared once, on the
//     type that declares it, and a call through the embedding type selects
//     that object: subplan.Cache's calls reach *lru.CostCache's methods, and
//     the promoted copies are never asked about.
//   - Only exported funcs and methods are in scope: main, init and the Set of
//     a flag.Value are called by the runtime or the flag package, and all are
//     unexported or outside the scanned packages.
//
// A field is read where a selector or a literal key names it, except where it
// is only stored to. Four rules decide that:
//
//   - A store is not a read: the outermost selector on the left of = or of an
//     op-assign (x.f = v, x.f += v), the operand of ++ and --, and the key of
//     a keyed composite literal (T{f: v}). x.f[k] = v and x.f.g = v read f.
//   - encoding/json reads fields by reflection: every field of a struct with
//     a json tag counts as read, and so does every field of the struct types
//     its fields reach through pointers, slices, arrays and maps.
//   - Comparing a struct reads all its fields: those of a map's key type, and
//     of a struct compared with == or != (eide.Binding, against its zero
//     value in server.New), with the struct and array fields they hold by
//     value.
//   - Embedded fields are not scanned, as promoted methods are not: a
//     selector through them names the promoted field or method, not them.
func TestExportedMiddlewareSymbolsAreReached(t *testing.T) {
	dead := unreached(typeCheck(t, "./..."), func(p *types.Package) bool {
		return p.Path() == "polystorepp" || strings.HasPrefix(p.Path(), "polystorepp/internal/")
	})
	for _, sym := range dead {
		if _, allowed := reachAllow[sym]; !allowed {
			t.Errorf("%s is reached (a field: read) by no non-test file: delete it, or add it to reachAllow with the test that needs it", sym)
		}
	}
	for sym := range reachAllow {
		if !slices.Contains(dead, sym) {
			t.Errorf("reachAllow names %s, which is not declared or is reached now: drop the entry", sym)
		}
	}
}

// TestReachScanMatchesObjects runs the scan over testdata/reach, whose
// declarations each hold one case the scan must get right: a dead method
// named like a live one, a method reached only through an interface, a
// String method fmt calls, an interface method reached only through a
// narrower interface, a func only a _test.go file calls, fields only written
// (by =, ++ and a keyed literal) or only read by a _test.go file, fields
// encoding/json reads, fields of a map key and of a struct compared with ==,
// and an embedded field.
func TestReachScanMatchesObjects(t *testing.T) {
	dead := unreached(typeCheck(t, "./testdata/reach"), func(p *types.Package) bool { return p.Path() == "polystorepp/testdata/reach" })
	want := []string{"main.Dead.Window", "main.OnlyTested", "main.Tally.Bumped", "main.Tally.Set", "main.Tally.Tested"}
	if !slices.Equal(dead, want) {
		t.Errorf("unreached = %q, want %q", dead, want)
	}
}

// checkedPackage is one module package type-checked from its non-test files.
type checkedPackage struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
}

// typeCheck type-checks the module packages the patterns match, with the
// module packages they import, from their non-test files. go list supplies
// the packages in dependency order and the standard library's export data
// from the build cache; module packages are checked from source, each import
// of one resolving to the *types.Package already checked, so that an object
// is the same value in every package that uses it.
func typeCheck(t *testing.T, patterns ...string) []checkedPackage {
	t.Helper()
	var stderr strings.Builder
	cmd := exec.Command("go", append([]string{"list", "-export", "-deps", "-json=ImportPath,Dir,Export,GoFiles,Standard"}, patterns...)...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.String())
	}
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		Standard                bool
	}
	var module []listed
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			t.Fatalf("go list output: %v", err)
		}
		if p.Standard {
			exports[p.ImportPath] = p.Export
		} else {
			module = append(module, p)
		}
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})}
	var pkgs []checkedPackage
	for _, p := range module {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		pkgs = append(pkgs, checkedPackage{pkg, info, files})
	}
	return pkgs
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// unreached returns, sorted, the exported symbols and the fields of the
// packages inScope selects that nothing in pkgs uses: "pkg.Name" for a
// package-level func, type, var or const, "pkg.Type.Method" for a method and
// "pkg.Type.field" for a field. A use is an identifier the type checker
// resolved to the object (types.Info.Uses, which also records the field or
// method every selector selects) and that writes does not list, taken through
// Origin so a use of a generic method's instance reaches its declaration,
// plus the interface uses and field reads
// TestExportedMiddlewareSymbolsAreReached describes.
func unreached(pkgs []checkedPackage, inScope func(*types.Package) bool) []string {
	declared := map[types.Object]string{}
	for _, c := range pkgs {
		if !inScope(c.pkg) {
			continue
		}
		scope := c.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				declared[obj] = c.pkg.Name() + "." + name
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			methods := []*types.Func{}
			for i := 0; i < named.NumMethods(); i++ {
				methods = append(methods, named.Method(i))
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumExplicitMethods(); i++ {
					methods = append(methods, iface.ExplicitMethod(i))
				}
			}
			for _, m := range methods {
				if m.Exported() {
					declared[m] = c.pkg.Name() + "." + name + "." + m.Name()
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); !f.Embedded() && f.Name() != "_" {
						declared[f] = c.pkg.Name() + "." + name + "." + f.Name()
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	ifaceUses := map[*types.Interface][]*types.Func{} // used interface methods, by their interface
	useIface := func(iface *types.Interface, m *types.Func) {
		if !slices.Contains(ifaceUses[iface], m) {
			ifaceUses[iface] = append(ifaceUses[iface], m)
		}
	}
	var candidates []types.Type // every non-generic named type of the module
	for _, c := range pkgs {
		written := writes(c)
		for id, obj := range c.info.Uses {
			obj = origin(obj)
			if written[id] {
				continue
			}
			used[obj] = true
			if m, ok := obj.(*types.Func); ok {
				if recv := m.Type().(*types.Signature).Recv(); recv != nil {
					if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
						useIface(iface, m)
					}
				}
			}
		}
		for _, obj := range c.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
					candidates = append(candidates, named)
				}
			}
		}
	}
	ifaces := []types.Type{types.Universe.Lookup("error").Type()}
	for _, name := range []string{"fmt.Stringer", "fmt.GoStringer", "container/heap.Interface", "encoding/json.Unmarshaler"} {
		path, typ, _ := strings.Cut(name, ".")
		for _, c := range pkgs {
			if imp := importOf(c.pkg, path); imp != nil {
				ifaces = append(ifaces, imp.Scope().Lookup(typ).Type())
				break
			}
		}
	}
	for _, typ := range ifaces {
		iface := typ.Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			useIface(iface, iface.Method(i))
		}
	}
	for iface, methods := range ifaceUses {
		for _, typ := range candidates {
			if !types.Implements(typ, iface) && !types.Implements(types.NewPointer(typ), iface) {
				continue
			}
			for _, m := range methods {
				if obj, _, _ := types.LookupFieldOrMethod(typ, true, m.Pkg(), m.Name()); obj != nil {
					used[origin(obj)] = true
				}
			}
		}
	}

	readFields(pkgs, used)

	var dead []string
	for obj, sym := range declared {
		if !used[obj] {
			dead = append(dead, sym)
		}
	}
	sort.Strings(dead)
	return dead
}

// writes returns the identifiers in c that select a field only to store to
// it: the outermost selector on the left of = or an op-assign, the operand
// of ++ and --, and the key of a keyed composite literal.
func writes(c checkedPackage) map[*ast.Ident]bool {
	written := map[*ast.Ident]bool{}
	field := func(id *ast.Ident) {
		if v, ok := c.info.Uses[id].(*types.Var); ok && v.IsField() {
			written[id] = true
		}
	}
	store := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			field(sel.Sel)
		}
	}
	for _, f := range c.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					store(lhs)
				}
			case *ast.IncDecStmt:
				store(n.X)
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					field(id)
				}
			}
			return true
		})
	}
	return written
}

// readFields marks as used the fields that are read where no selector names
// them: every field of a struct type encoding/json reflects over (one with a
// json tag, and the struct types its fields reach through pointers, slices,
// arrays and maps), and every field of a struct compared whole, as a map key
// or by == and !=, with the struct and array fields it holds by value.
func readFields(pkgs []checkedPackage, used map[types.Object]bool) {
	type visit struct {
		t         types.Type
		reflected bool
	}
	seen := map[visit]bool{}
	var readAll func(t types.Type, reflected bool)
	readAll = func(t types.Type, reflected bool) {
		if t == nil || seen[visit{t, reflected}] {
			return
		}
		seen[visit{t, reflected}] = true
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				used[origin(u.Field(i))] = true
				readAll(u.Field(i).Type(), reflected)
			}
		case *types.Array:
			readAll(u.Elem(), reflected)
		case *types.Pointer:
			if reflected {
				readAll(u.Elem(), reflected)
			}
		case *types.Slice:
			if reflected {
				readAll(u.Elem(), reflected)
			}
		case *types.Map:
			if reflected {
				readAll(u.Key(), reflected)
				readAll(u.Elem(), reflected)
			}
		}
	}
	for _, c := range pkgs {
		for _, f := range c.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.StructType:
					st, _ := c.info.TypeOf(n).(*types.Struct)
					for i := 0; st != nil && i < st.NumFields(); i++ {
						if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok {
							readAll(st, true)
							break
						}
					}
				case *ast.MapType:
					readAll(c.info.TypeOf(n.Key), false)
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						readAll(c.info.TypeOf(n.X), false)
					}
				}
				return true
			})
		}
	}
}

// origin maps an instantiated generic func or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// importOf returns the package pkg imports under path, or nil.
func importOf(pkg *types.Package, path string) *types.Package {
	for _, imp := range pkg.Imports() {
		if imp.Path() == path {
			return imp
		}
	}
	return nil
}

// TestEveryOpKindIsBuilt holds the IR to the operators that run: every
// ir.OpKind constant must be put into a graph by some non-test file, as the
// kind argument of an Add call (a frontend building a node) or assigned to a
// node's Kind (a compiler pass rewriting one). A kind no frontend or pass
// builds is dead vocabulary every switch over kinds still has to answer.
func TestEveryOpKindIsBuilt(t *testing.T) {
	kinds := map[string]bool{} // declared OpKind constant -> built by a non-test file
	built := map[string]bool{}
	walkSource(t, func(path, pkg string, f *ast.File) {
		// opKind names the OpKind constant e denotes: ir.OpX anywhere, OpX
		// inside package ir.
		opKind := func(e ast.Expr) string {
			switch e := e.(type) {
			case *ast.SelectorExpr:
				if x, ok := e.X.(*ast.Ident); ok && x.Name == "ir" {
					return e.Sel.Name
				}
			case *ast.Ident:
				if pkg == "ir" {
					return e.Name
				}
			}
			return ""
		}
		for _, decl := range f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.CONST && pkg == "ir" {
				typed := false // within a const block, a spec without type or value repeats the last
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					if vs.Type != nil || vs.Values != nil {
						id, ok := vs.Type.(*ast.Ident)
						typed = ok && id.Name == "OpKind"
					}
					for _, name := range vs.Names {
						if typed && name.Name != "_" {
							kinds[name.Name] = true
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Add" && len(n.Args) > 0 {
					built[opKind(n.Args[0])] = true
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "Kind" && i < len(n.Rhs) {
						built[opKind(n.Rhs[i])] = true
					}
				}
			}
			return true
		})
	})
	if len(kinds) == 0 {
		t.Fatal("found no ir.OpKind constants: the declaration moved out of this test's sight")
	}
	var unbuilt []string
	for k := range kinds {
		if !built[k] {
			unbuilt = append(unbuilt, k)
		}
	}
	sort.Strings(unbuilt)
	for _, k := range unbuilt {
		t.Errorf("ir.%s is declared but no non-test file builds it (Add(ir.%s, …) or .Kind = ir.%s): delete it, or give it a frontend", k, k, k)
	}
}

// walkSource parses every non-test Go file of the repository and hands it to
// visit with its path and package name.
func walkSource(t *testing.T, visit func(path, pkg string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return fs.SkipDir // .git and the like hold no source
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		visit(path, f.Name.Name, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
