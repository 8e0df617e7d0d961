package elites

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadExportAllowed lists exported names that no program reaches but
// tests keep as oracles: each one checks a live function or
// is a baseline another package's test compares against. The value names
// the test that uses it.
var deadExportAllowed = map[string]string{
	"faults.Injector.Fired":                "serve TestChaosStageRetryAbsorbsTransientFault counts injections",
	"graph.Condensation":                   "graph TestAttractingEqualsCondensationSinks checks AttractingComponents",
	"graph.FromEdges":                      "fixture builder of the graph, centrality and spectral tests",
	"graph.LocalClustering":                "features referenceMatrix, the feature-matrix oracle",
	"linalg.JacobiEigen":                   "spectral TestLanczosAgainstJacobi, the dense eigen oracle",
	"linalg.Matrix.Transpose":              "linalg TestTMulEqualsTransposeMul checks TMul",
	"linalg.Mul":                           "linalg TestCholeskyInverseAndLogDet checks Cholesky.Inverse",
	"linalg.MulT":                          "linalg TestCholeskyReconstruction checks NewCholesky",
	"spectral.LaplacianOperator.MaxDegree": "spectral TestLaplacianEigenvaluesNonNegative bounds λ_max",
	"spectral.TopEigenvaluesPower":         "root BenchmarkAblationEigensolvers, the power-iteration baseline",
	"stats.Summarize":                      "root BenchmarkFigure1Distributions prints the paper comparison",
	"text.Counter.AddText":                 "root benchNGrams feeds the bio n-gram benchmarks",
	"timeseries.BICPenalty":                "root BenchmarkAblationChangepointAlgos",
	"timeseries.BinarySegmentation":        "root BenchmarkAblationChangepointAlgos, the PELT baseline",
	"timeseries.DailySeries.IndexOf":       "twitter TestActivityChangepoints locates planted dates",
}

// TestNoDeadExports fails when an exported function, method, type or var
// declared in any non-main package of this module (the root package
// included) is referenced by no non-test Go file of this module or of
// perfbench. Such code is reached only by its own tests, so
// it costs readers and reviewers without changing any output: delete it,
// or allowlist it above when a test needs it as an oracle.
//
// The scan is syntactic. Package-level names match through their import
// (or by bare name inside their own package, outside their own
// declaration). Methods match by name alone: any selector or interface
// method of that name anywhere counts, which errs toward "used".
func TestNoDeadExports(t *testing.T) {
	fset := token.NewFileSet()
	type file struct {
		pkg string // import path of the file's package
		f   *ast.File
	}
	var files []file
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		pkg := "elites"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		files = append(files, file{pkg, f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Declarations: "pkg.Name" for package-level names, "pkg.Recv.Name"
	// for methods.
	type decl struct{ pkg, name, recv string }
	var decls []decl
	for _, fl := range files {
		if fl.f.Name.Name == "main" {
			continue
		}
		for _, d := range fl.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() {
					decls = append(decls, decl{fl.pkg, d.Name.Name, recvName(d)})
				}
			case *ast.GenDecl:
				if d.Tok != token.TYPE && d.Tok != token.VAR {
					continue
				}
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							decls = append(decls, decl{pkg: fl.pkg, name: s.Name.Name})
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								decls = append(decls, decl{pkg: fl.pkg, name: n.Name})
							}
						}
					}
				}
			}
		}
	}

	// References. Methods the standard library calls through its own
	// interfaces never appear as a selector in this repo.
	methods := map[string]bool{
		"String": true, "Error": true, "Unwrap": true, "MarshalJSON": true,
		"UnmarshalJSON": true, "ServeHTTP": true, "Len": true, "Less": true,
		"Swap": true, "Push": true, "Pop": true,
	}
	used := map[string]bool{} // "pkg.Name"
	for _, fl := range files {
		imports := map[string]string{}
		for _, im := range fl.f.Imports {
			path, _ := strconv.Unquote(im.Path.Value)
			name := path[strings.LastIndex(path, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = path
		}
		for _, d := range fl.f.Decls {
			// Identifiers that declare or select are not references to a
			// package-level name; nor are a function's calls to itself or
			// the receiver type of a method.
			skip := map[*ast.Ident]bool{}
			self := ""
			if fd, ok := d.(*ast.FuncDecl); ok {
				skip[fd.Name] = true
				if fd.Recv == nil {
					self = fd.Name.Name
				} else {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							skip[id] = true
						}
						return true
					})
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					skip[n.Name] = true
				case *ast.ValueSpec:
					for _, name := range n.Names {
						skip[name] = true
					}
				case *ast.Field:
					for _, name := range n.Names {
						skip[name] = true
					}
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if path, ok := imports[x.Name]; ok {
							used[path+"."+n.Sel.Name] = true
							return false
						}
					}
					methods[n.Sel.Name] = true
					skip[n.Sel] = true
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, name := range m.Names {
							methods[name.Name] = true
						}
					}
				case *ast.Ident:
					if !skip[n] && n.Name != self {
						used[fl.pkg+"."+n.Name] = true
					}
				}
				return true
			})
		}
	}

	var dead []string
	seen := map[string]bool{}
	for _, d := range decls {
		short := strings.TrimPrefix(d.pkg, "elites/internal/")
		key, alive := short+"."+d.name, used[d.pkg+"."+d.name]
		if d.recv != "" {
			key, alive = short+"."+d.recv+"."+d.name, methods[d.name]
		}
		seen[key] = true
		if _, ok := deadExportAllowed[key]; ok {
			if alive {
				t.Errorf("%s is allowlisted but a program now uses it: drop it from deadExportAllowed", key)
			}
			continue
		}
		if !alive {
			dead = append(dead, key)
		}
	}
	for key := range deadExportAllowed {
		if !seen[key] {
			t.Errorf("allowlisted %s is not declared in a non-main package", key)
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("%s: exported but referenced by no non-test file", key)
	}
}

// recvName is the receiver's type name of a method, "" for a function.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return ""
	}
	x := fd.Recv.List[0].Type
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}
