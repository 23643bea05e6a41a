package polystore

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

// reachAllow names the exported middleware symbols that may have no caller
// outside tests, each with the reason it is kept.
var reachAllow = map[string]string{
	"cast.ReadBinary":           "fuzz entry point: FuzzReadBinary and the CI fuzz smoke drive the pipe decoder through it",
	"metrics.Registry.Names":    "test oracle: server's TestStatTableCoversRegistry enumerates the registry to hold the stat table complete",
	"graphstore.Store.BFS":      "test oracle: TestPropertyBFSMatchesUnitDijkstra holds ShortestPath (the graph adapter's shortest-path operator) to its hop counts on random unit-weight DAGs",
	"relational.Table.HasBTree": "test oracle: the datagen and backend suites check through it that a deployment and a restored store carry their B-trees",
	"kvstore.Store.Delete":      "writes the WAL's delete op, which Apply replays on recovery: FuzzApply seeds it and TestShardedVersionMonotonic races it against puts",
	"kvstore.WithClock":         "test seam: TTL expiry and the version bump it causes are only testable on a substituted clock",
	"tensor.MatMul":             "test oracle: the allocating reference mlengine's reference trainer is written in, which the workspace trainer and the three Into GEMMs are held bit-equal to",
	"tensor.Transpose":          "test oracle: as tensor.MatMul (the reference's explicit transposes)",
	"tensor.Sub":                "test oracle: as tensor.MatMul (the reference's loss gradient)",
	"tensor.Add":                "test oracle: TestPropertyMatMulDistributive holds the GEMM kernel to A(B+C) = AB+AC through it",
	"tensor.MatVec":             "test oracle: TestPropertyMatVecAgreesWithMatMul holds the GEMM kernel to an independent GEMV",
}

// TestExportedMiddlewareSymbolsAreReached is the reachability ratchet beside
// the LOC ratchet: every exported func or method of a middleware or engine
// package must be named by at least one non-test file of the repository. It matches by
// name, not by type — a package-level func by pkg.Name (or Name inside its
// own package), a method by .Name on anything or by an interface that lists
// it — so it can miss a dead symbol that shares a live one's name, and never
// reports a live one.
func TestExportedMiddlewareSymbolsAreReached(t *testing.T) {
	middleware := map[string]bool{}
	for _, p := range strings.Fields("adapter backend cast compiler core eide hw ir lru metrics migrate obs optimizer partition relational server subplan tenant " +
		"graphstore kvstore mlengine streamstore tensor textstore timeseries") {
		middleware[p] = true
	}
	declared := map[string]string{} // "pkg.Func" or "pkg.Type.Method" -> name a reference must carry
	used := map[string]bool{}       // "pkg.Name" for qualified and same-package idents, ".Name" for selections
	walkSource(t, func(path, pkg string, f *ast.File) {
		skip := map[*ast.Ident]bool{} // declaring occurrences and selected names are not same-package references
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			skip[fn.Name] = true
			if !middleware[pkg] || filepath.Base(filepath.Dir(path)) != pkg || !fn.Name.IsExported() {
				continue
			}
			if fn.Recv == nil {
				declared[pkg+"."+fn.Name.Name] = pkg + "." + fn.Name.Name
			} else if recv := receiverName(fn.Recv.List[0].Type); ast.IsExported(recv) {
				declared[pkg+"."+recv+"."+fn.Name.Name] = "." + fn.Name.Name
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				used["."+n.Sel.Name] = true
				skip[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok {
					used[x.Name+"."+n.Sel.Name] = true
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						used["."+name.Name] = true
					}
				}
			case *ast.Ident:
				if !skip[n] {
					used[pkg+"."+n.Name] = true
				}
			}
			return true
		})
	})
	var dead []string
	for sym, ref := range declared {
		if _, allowed := reachAllow[sym]; !used[ref] && !allowed {
			dead = append(dead, sym)
		}
	}
	sort.Strings(dead)
	for _, sym := range dead {
		t.Errorf("%s is exported but no non-test file references it: delete it, or add it to reachAllow with the reason it stays", sym)
	}
	for sym := range reachAllow {
		if ref, ok := declared[sym]; !ok || used[ref] {
			t.Errorf("reachAllow names %s, which is not declared or is referenced now: drop the entry", sym)
		}
	}
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

// receiverName returns the type name of a method receiver: T, *T, T[K].
func receiverName(e ast.Expr) string {
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
			return ""
		}
	}
}
