package elites

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
	"timeseries.BICPenalty":                "root BenchmarkAblationChangepointAlgos",
	"timeseries.BinarySegmentation":        "root BenchmarkAblationChangepointAlgos, the PELT baseline",
	"timeseries.DailySeries.IndexOf":       "twitter TestActivityChangepoints locates planted dates",
}

// goFile is one parsed non-test Go file and the import path of its
// package.
type goFile struct {
	pkg string
	f   *ast.File
}

// moduleFiles parses every non-test Go file of this module and of
// perfbench, skipping testdata and dot directories.
func moduleFiles(t *testing.T) []goFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []goFile
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
		files = append(files, goFile{pkg, f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
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
	files := moduleFiles(t)

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
		imports := fileImports(fl.f)
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

// TestDeadExportReasonsNameLiveTests fails when a reason in
// deadExportAllowed names a test, benchmark or fuzz target that no test
// file of this module or of perfbench declares any more.
func TestDeadExportReasonsNameLiveTests(t *testing.T) {
	declared := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	named := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*`)
	for key, reason := range deadExportAllowed {
		for _, name := range named.FindAllString(reason, -1) {
			if !declared[name] {
				t.Errorf("deadExportAllowed[%q] names %s, which no test file declares", key, name)
			}
		}
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

// unsetOptionAllowed lists the exported *Options/*Config structs, or single
// fields of one, that stay settable although no program outside the
// declaring package sets them, with the reason.
var unsetOptionAllowed = map[string]string{
	"gen.Config":                      "a preset bundle: VerifiedDefaults and TwitterDefaults set different values inside gen",
	"twitter.PlatformConfig.Verified": "DefaultPlatformConfig sets it from the n every program passes",
}

// TestNoUnsetOptions fails when an exported field of an exported struct
// whose name ends in Options or Config is set by no non-test file outside
// its declaring package (cmd, examples and perfbench included). A value
// that no program varies is a constant: fold it into the package.
//
// The scan is syntactic. A set is a composite-literal key or an assignment
// to a selector. It names the field of a type where the code writes that
// type: a typed literal, or a selector rooted at a variable declared with
// a type or bound to a typed literal, followed through struct field types.
// Any other set matches every field of that name, as the method scan of
// TestNoDeadExports does, which errs toward "set".
func TestNoUnsetOptions(t *testing.T) {
	files := moduleFiles(t)

	// fieldTypes maps "pkg.Type" to each field's type, where the code
	// writes it as a package-level name.
	fieldTypes := map[string]map[string]string{}
	type field struct{ typ, name string } // typ is "pkg.Type"
	var options []field
	for _, fl := range files {
		imports := fileImports(fl.f)
		ast.Inspect(fl.f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			typ := fl.pkg + "." + ts.Name.Name
			option := ts.Name.IsExported() && fl.f.Name.Name != "main" &&
				(strings.HasSuffix(ts.Name.Name, "Options") || strings.HasSuffix(ts.Name.Name, "Config"))
			fieldTypes[typ] = map[string]string{}
			for _, f := range st.Fields.List {
				for _, id := range f.Names {
					fieldTypes[typ][id.Name] = typeName(f.Type, fl.pkg, imports)
					if option && id.IsExported() {
						options = append(options, field{typ, id.Name})
					}
				}
			}
			return true
		})
	}

	setBy := map[string]map[string]bool{} // "pkg.Type.Field" or "Field" → setting packages
	note := func(typ, name, pkg string) {
		key := name
		if typ != "" {
			key = typ + "." + name
		}
		if setBy[key] == nil {
			setBy[key] = map[string]bool{}
		}
		setBy[key][pkg] = true
	}
	for _, fl := range files {
		imports := fileImports(fl.f)
		for _, d := range fl.f.Decls {
			// Variables of a written type, by name within one declaration;
			// a name bound to two types resolves to none.
			vars := map[string]string{}
			bind := func(id *ast.Ident, typ string) {
				if old, ok := vars[id.Name]; ok && old != typ {
					typ = ""
				}
				vars[id.Name] = typ
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Field:
					for _, id := range n.Names {
						bind(id, typeName(n.Type, fl.pkg, imports))
					}
				case *ast.ValueSpec:
					for i, id := range n.Names {
						typ := typeName(n.Type, fl.pkg, imports)
						if n.Type == nil && i < len(n.Values) {
							typ = literalType(n.Values[i], fl.pkg, imports)
						}
						bind(id, typ)
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if id, ok := lhs.(*ast.Ident); ok && n.Tok == token.DEFINE && len(n.Rhs) == len(n.Lhs) {
							bind(id, literalType(n.Rhs[i], fl.pkg, imports))
						}
					}
				}
				return true
			})
			var resolve func(x ast.Expr) string
			resolve = func(x ast.Expr) string {
				switch x := x.(type) {
				case *ast.Ident:
					return vars[x.Name]
				case *ast.ParenExpr:
					return resolve(x.X)
				case *ast.StarExpr:
					return resolve(x.X)
				case *ast.SelectorExpr:
					if typ := resolve(x.X); typ != "" {
						return fieldTypes[typ][x.Sel.Name]
					}
				}
				return ""
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					typ := ""
					if n.Type != nil {
						typ = typeName(n.Type, fl.pkg, imports)
					}
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								note(typ, id.Name, fl.pkg)
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							note(resolve(sel.X), sel.Sel.Name, fl.pkg)
						}
					}
				}
				return true
			})
		}
	}

	var unset []string
	seen := map[string]bool{}
	for _, f := range options {
		pkg, typ, _ := strings.Cut(strings.TrimPrefix(f.typ, "elites/"), ".")
		short := strings.TrimPrefix(pkg, "internal/") + "." + typ
		seen[short], seen[short+"."+f.name] = true, true
		if unsetOptionAllowed[short] != "" || unsetOptionAllowed[short+"."+f.name] != "" {
			continue
		}
		outside := false
		for _, key := range []string{f.typ + "." + f.name, f.name} {
			for setter := range setBy[key] {
				outside = outside || setter != "elites/"+pkg
			}
		}
		if !outside {
			unset = append(unset, short+"."+f.name)
		}
	}
	for key := range unsetOptionAllowed {
		if !seen[key] {
			t.Errorf("allowlisted %s is not an exported options struct or field", key)
		}
	}
	sort.Strings(unset)
	for _, key := range unset {
		t.Errorf("%s: no program outside its package sets it", key)
	}
}

// fileImports maps each import's local name to its path.
func fileImports(f *ast.File) map[string]string {
	imports := map[string]string{}
	for _, im := range f.Imports {
		path, _ := strconv.Unquote(im.Path.Value)
		name := path[strings.LastIndex(path, "/")+1:]
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = path
	}
	return imports
}

// typeName is "pkg.Type" for a type expression naming a package-level
// type, through one pointer, and "" for any other.
func typeName(x ast.Expr, pkg string, imports map[string]string) string {
	if star, ok := x.(*ast.StarExpr); ok {
		x = star.X
	}
	switch x := x.(type) {
	case *ast.Ident:
		return pkg + "." + x.Name
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
			return imports[id.Name] + "." + x.Sel.Name
		}
	}
	return ""
}

// literalType is the type of a typed composite literal or its address,
// "" for any other expression.
func literalType(x ast.Expr, pkg string, imports map[string]string) string {
	if u, ok := x.(*ast.UnaryExpr); ok && u.Op == token.AND {
		x = u.X
	}
	if lit, ok := x.(*ast.CompositeLit); ok && lit.Type != nil {
		return typeName(lit.Type, pkg, imports)
	}
	return ""
}
