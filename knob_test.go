package tightcps_test

// The knob rule (ROADMAP.md): an option field or a function stays only if
// a command or a benchmark op reaches it. Its two tests share one go/types
// load of the module, the commands, benchmark/ and the README's examples
// (loadTree), so every use resolves to the one field or function it names,
// never to a namesake: TestOptionFieldsAreSet fails on every exported field
// of an option struct under internal/ that no code outside its package
// sets, and TestFunctionsAreReached on every non-test function no command,
// benchmark op or README example reaches. Deleted mechanisms stay deleted:
// TestDeletedMechanismsStayDeleted fails on any line of Go that brings one
// back. TestPlacementRules keeps a few calls and imports in the files they
// belong to, and TestEveryCommandIsTested keeps a test beside every
// command.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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
	"regexp"
	"regexp/syntax"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// knobExempt holds the fields, or whole structs, kept without a setter.
var knobExempt = map[string]string{
	"plants.SyntheticOptions.Archetypes":   "shapes the generator behind fleet-sweep; only a [benchmark] change may alter that workload",
	"plants.SyntheticOptions.UnstableFrac": "shapes the generator behind fleet-sweep; only a [benchmark] change may alter that workload",
	"sim.SporadicConfig":                   "ROADMAP item 17 builds on the Monte-Carlo scenarios",
	"ta.CheckOptions.MaxStates":            "the timed-automata oracle's budget: its own tests and ROADMAP item 12 drive it, and benchmark/ passes the type's zero value",
	"ta.CheckOptions.Trace":                "the timed-automata oracle's witness: its own tests and ROADMAP item 12 drive it, and benchmark/ passes the type's zero value",
}

// knobStructs names the scanned structs beyond the *Options and *Config
// ones: the wire form of verify.Config and the service's client.
var knobStructs = map[string]bool{"verify.Spec": true, "admit.Client": true}

// TestOptionFieldsAreSet fails on an exported field of an exported
// internal/ struct named *Options or *Config (or in knobStructs) that no
// non-test code outside its package sets, the commands and benchmark/
// included. The type checker resolves each use to the field itself. A field
// is set by a keyed composite literal naming it, a positional one of its
// struct, or a selector of it that is assigned, incremented or
// decremented, or whose address is taken (&x.F, how flag and decoder code
// fill one); x.F.G = v sets G alone.
func TestOptionFieldsAreSet(t *testing.T) {
	tree := loadTree(t)

	fields := map[*types.Var]string{} // scanned field → pkg.Type.Field
	scanned := map[string]bool{}      // pkg.Type and pkg.Type.Field
	for _, p := range tree.pkgs {
		if p.example || !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			label := p.types.Name() + "." + name
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config") || knobStructs[label]) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			scanned[label] = true
			for f := range st.Fields() {
				if f.Exported() && !f.Embedded() {
					fields[f] = label + "." + f.Name()
					scanned[label+"."+f.Name()] = true
				}
			}
		}
	}

	set := map[*types.Var]bool{}
	for _, p := range tree.pkgs {
		if p.example {
			continue
		}
		mark := func(v *types.Var) {
			if v = v.Origin(); v.Pkg() != p.types {
				set[v] = true
			}
		}
		// written marks the field e selects, if it selects one.
		written := func(e ast.Expr) {
			if x, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if s := p.info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
					mark(s.Obj().(*types.Var))
				}
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					typ := p.info.TypeOf(n)
					if ptr, ok := typ.(*types.Pointer); ok {
						typ = ptr.Elem()
					}
					st, ok := typ.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for _, el := range n.Elts {
						kv, ok := el.(*ast.KeyValueExpr)
						if !ok { // positional: every field is set
							for f := range st.Fields() {
								mark(f)
							}
							break
						}
						if v, ok := p.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							mark(v)
						}
					}
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						written(l)
					}
				case *ast.IncDecStmt:
					written(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						written(n.X)
					}
				}
				return true
			})
		}
	}

	var unset []string
	for f, key := range fields {
		_, exempt := knobExempt[key]
		_, whole := knobExempt[key[:strings.LastIndex(key, ".")]]
		if !set[f] && !exempt && !whole {
			unset = append(unset, key)
		}
	}
	slices.Sort(unset)
	if len(unset) > 0 {
		t.Errorf("option fields no command or benchmark op sets (delete them, or set them outside their package):\n\t%s",
			strings.Join(unset, "\n\t"))
	}
	for name := range knobExempt {
		if !scanned[name] {
			t.Errorf("exemption %s names no scanned struct or field", name)
		}
	}
}

// reachExempt holds the non-test functions kept though no root reaches
// them, keyed as TestFunctionsAreReached names them; what they call is kept
// with them.
var reachExempt = map[string]string{
	"lti.SimulateFeedback":        "the plain closed loop, kept beside the delayed one as the reference a reader checks a controller against",
	"lti.SimulateDelayedFeedback": "the closed loop with the paper's one-period delay, kept as the reference of the co-simulations",
	"sim.Runner.MonteCarlo":       "ROADMAP item 17 builds on the Monte-Carlo scenarios",
	"mat.Diag":                    "a fixture of the lti, control and mat tests",
}

// rootInterfaces name the interfaces through which the standard library
// calls a type's methods, beside error and Unwrap() error (errors).
var rootInterfaces = []string{
	"fmt.Stringer", "net/http.Handler", "sort.Interface", "io.Reader", "io.Writer", "io.Closer",
}

// readmeExample matches a README line naming a testable example.
var readmeExample = regexp.MustCompile("`(internal/\\w+)` `(Example\\w*)`")

// TestFunctionsAreReached fails on a non-test function that no command, no
// benchmark op and no README example reaches. The roots are every main
// under cmd/ and benchmark/, every init, every package-level var
// initializer, the examples the README lists, and the methods the standard
// library calls through its interfaces (rootInterfaces) on a type of the
// module that implements one. A reached function reaches every function
// and method its body names, as the type checker resolves them; a call of
// an interface method reaches that method on every type of the module that
// implements the interface. A function of a file another platform's build
// takes (tablemem_other.go) must have a twin of its name in the package's
// checked files, and is reached with it; its body is not type-checked, so
// what only it calls is not seen.
func TestFunctionsAreReached(t *testing.T) {
	tree := loadTree(t)

	type decl struct {
		body *ast.BlockStmt
		pkg  *knobPkg
	}
	decls := map[*types.Func]decl{}
	labels := map[string]*types.Func{} // pkg.Name or pkg.Recv.Name → non-test function
	var named []*types.Named           // the module's concrete types
	reached := map[*types.Func]bool{}
	var queue []*types.Func
	mark := func(fn *types.Func) {
		if fn = fn.Origin(); !reached[fn] {
			reached[fn] = true
			queue = append(queue, fn)
		}
	}
	walk := func(p *knobPkg, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := p.info.Uses[id].(*types.Func); ok {
					mark(fn)
				}
			}
			return true
		})
	}
	// implement marks the methods of the module's types that implement
	// iface and are named by one of its methods in names.
	implement := func(iface *types.Interface, names ...*types.Func) {
		for _, n := range named {
			for _, typ := range []types.Type{n, types.NewPointer(n)} {
				if !types.Implements(typ, iface) {
					continue
				}
				for _, m := range names {
					obj, _, _ := types.LookupFieldOrMethod(typ, true, m.Pkg(), m.Name())
					mark(obj.(*types.Func))
				}
				break
			}
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	examples := map[string]bool{} // dir.Example the README lists
	for _, m := range readmeExample.FindAllStringSubmatch(string(readme), -1) {
		examples[m[1]+"."+m[2]] = true
	}
	// Walking a root only queues what it names, so the roots are walked as
	// they are found.
	for _, p := range tree.pkgs {
		for _, name := range p.types.Scope().Names() {
			if tn, ok := p.types.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams() == nil && !types.IsInterface(n) {
					named = append(named, n)
				}
			}
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if p.example {
						if key := p.dir + "." + d.Name.Name; examples[key] {
							walk(p, d.Body)
							delete(examples, key)
						}
						continue
					}
					if d.Recv == nil && d.Name.Name == "init" { // many per package, never named
						walk(p, d.Body)
						continue
					}
					fn := p.info.Defs[d.Name].(*types.Func)
					decls[fn] = decl{d.Body, p}
					label := funcLabel(p, fn)
					if _, ok := labels[label]; ok {
						t.Errorf("two functions are labelled %s", label)
					}
					labels[label] = fn
					if d.Name.Name == "main" && d.Recv == nil && p.types.Name() == "main" {
						mark(fn)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR && !p.example {
						walk(p, d)
					}
				}
			}
		}
		for _, f := range p.ignored {
			for _, d := range f.Decls {
				d, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if _, twin := p.types.Scope().Lookup(d.Name.Name).(*types.Func); !twin || d.Recv != nil {
					t.Errorf("%s: %s has no twin: a build-tagged file declares only plain functions its package's other files declare too",
						tree.fset.Position(d.Pos()), d.Name.Name)
				}
			}
		}
	}
	for key := range examples {
		t.Errorf("README names example %s, which does not exist", key)
	}
	errorType := types.Universe.Lookup("error").Type()
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap",
		types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errorType)), false))
	ifaces := []*types.Interface{errorType.Underlying().(*types.Interface), types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete()}
	for _, name := range rootInterfaces {
		i := strings.LastIndex(name, ".")
		pkg, err := tree.imp.Import(name[:i])
		if err != nil {
			t.Fatal(err)
		}
		ifaces = append(ifaces, pkg.Scope().Lookup(name[i+1:]).Type().Underlying().(*types.Interface))
	}
	for _, iface := range ifaces {
		implement(iface, slices.Collect(iface.Methods())...)
	}
	drain := func() {
		for len(queue) > 0 {
			fn := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if d, ok := decls[fn]; ok {
				if d.body != nil {
					walk(d.pkg, d.body)
				}
			} else if recv := fn.Signature().Recv(); recv != nil {
				if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
					implement(iface, fn)
				}
			}
		}
	}
	drain()

	// An exempt function must be unreached, and what it calls is kept
	// with it.
	for name := range reachExempt {
		if fn, ok := labels[name]; !ok {
			t.Errorf("exemption %s names no non-test function", name)
		} else if reached[fn] {
			t.Errorf("exemption %s names a reached function", name)
		} else {
			mark(fn)
		}
	}
	drain()

	var unreached []string
	for label, fn := range labels {
		if !reached[fn] {
			unreached = append(unreached, label)
		}
	}
	slices.Sort(unreached)
	if len(unreached) > 0 {
		t.Errorf("functions no command, benchmark op or README example reaches (delete them, or move them into the tests that use them):\n\t%s",
			strings.Join(unreached, "\n\t"))
	}
}

// funcLabel names fn as pkg.Name or pkg.Recv.Name, a command's pkg being
// its directory.
func funcLabel(p *knobPkg, fn *types.Func) string {
	pkg := p.types.Name()
	if pkg == "main" {
		pkg = p.dir
	}
	if recv := fn.Signature().Recv(); recv != nil {
		typ := recv.Type()
		if ptr, ok := typ.(*types.Pointer); ok {
			typ = ptr.Elem()
		}
		if n, ok := typ.(*types.Named); ok {
			pkg += "." + n.Obj().Name()
		}
	}
	return pkg + "." + fn.Name()
}

// knobPkg is one type-checked package of the tree.
type knobPkg struct {
	dir     string // slash-separated, relative to the repo root
	types   *types.Package
	info    *types.Info
	files   []*ast.File
	ignored []*ast.File // non-test files only another platform's build takes
	example bool        // the README's examples of a package: its external tests declaring them
}

// knobTree is the module type-checked once for the knob tests: every
// non-test package (the commands among them), benchmark/, and the files
// of the examples the README lists.
type knobTree struct {
	fset *token.FileSet
	pkgs []*knobPkg // dependencies first
	imp  types.Importer
}

func loadTree(t *testing.T) *knobTree {
	t.Helper()
	tree, err := knobTreeOnce()
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// knobTreeOnce loads the tree from source. The standard library comes
// from its compiled export data, which one go list -export -deps per
// module (the root, and benchmark/ with its replace) names.
var knobTreeOnce = sync.OnceValues(func() (*knobTree, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	type listed struct {
		ImportPath, Dir, Export               string
		Standard                              bool
		GoFiles, IgnoredGoFiles, XTestGoFiles []string
	}
	var module []listed
	export := map[string]string{}
	for _, dir := range []string{".", "benchmark"} {
		cmd := exec.Command("go", "list", "-export", "-deps",
			"-json=ImportPath,Dir,Export,Standard,GoFiles,IgnoredGoFiles,XTestGoFiles", "./...")
		cmd.Dir = dir
		out, err := cmd.Output()
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			err = fmt.Errorf("go list in %s: %w\n%s", dir, err, ee.Stderr)
		}
		if err != nil {
			return nil, err
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			var p listed
			if err := dec.Decode(&p); err != nil {
				return nil, err
			}
			if p.Standard {
				export[p.ImportPath] = p.Export
			} else if !slices.ContainsFunc(module, func(q listed) bool { return q.ImportPath == p.ImportPath }) {
				module = append(module, p)
			}
		}
	}

	tree := &knobTree{fset: token.NewFileSet()}
	std := importer.ForCompiler(tree.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := export[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	})
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})}
	parse := func(dir string, names []string) ([]*ast.File, error) {
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(tree.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		return files, nil
	}
	relDir := func(dir string) string {
		rel, _ := filepath.Rel(root, dir) // go list's directories are under root
		return filepath.ToSlash(rel)
	}
	check := func(path, dir string, files []*ast.File) (*knobPkg, error) {
		p := &knobPkg{dir: dir, files: files, info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}}
		var err error
		if p.types, err = conf.Check(path, tree.fset, files, p.info); err != nil {
			return nil, err
		}
		tree.pkgs = append(tree.pkgs, p)
		return p, nil
	}
	// The README's examples: per package, the external test files that
	// declare one, type-checked on their own.
	readme, err := os.ReadFile("README.md")
	if err != nil {
		return nil, err
	}
	want := map[string][]string{} // dir → examples
	for _, m := range readmeExample.FindAllStringSubmatch(string(readme), -1) {
		want[m[1]] = append(want[m[1]], m[2])
	}
	for _, lp := range module {
		files, err := parse(lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, err
		}
		p, err := check(lp.ImportPath, relDir(lp.Dir), files)
		if err != nil {
			return nil, err
		}
		checked[lp.ImportPath] = p.types
		var ignored []string
		for _, name := range lp.IgnoredGoFiles {
			if !strings.HasSuffix(name, "_test.go") {
				ignored = append(ignored, name)
			}
		}
		if p.ignored, err = parse(lp.Dir, ignored); err != nil {
			return nil, err
		}
	}
	for _, lp := range module { // after every package an example may import
		dir := relDir(lp.Dir)
		if want[dir] == nil {
			continue
		}
		xtests, err := parse(lp.Dir, lp.XTestGoFiles)
		if err != nil {
			return nil, err
		}
		xtests = slices.DeleteFunc(xtests, func(f *ast.File) bool {
			return !slices.ContainsFunc(f.Decls, func(d ast.Decl) bool {
				fn, ok := d.(*ast.FuncDecl)
				return ok && slices.Contains(want[dir], fn.Name.Name)
			})
		})
		if len(xtests) > 0 {
			x, err := check(lp.ImportPath+"_test", dir, xtests)
			if err != nil {
				return nil, err
			}
			x.example = true
		}
	}
	tree.imp = conf.Importer
	return tree, nil
})

// importerFunc is a types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// knobFile is one parsed Go file of the tree.
type knobFile struct {
	path    string // slash-separated, relative to the repo root
	dir     string // path's directory
	test    bool
	ast     *ast.File
	fset    *token.FileSet
	imports map[string]string // local name → import path
}

// parseTree parses every Go file under the repo root, skipping hidden
// directories.
func parseTree(t *testing.T) []knobFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []knobFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imports := map[string]string{}
		for _, im := range f.Imports {
			path, _ := strconv.Unquote(im.Path.Value)
			local := path[strings.LastIndex(path, "/")+1:]
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = path
		}
		files = append(files, knobFile{path: filepath.ToSlash(path), dir: filepath.ToSlash(filepath.Dir(path)),
			test: strings.HasSuffix(path, "_test.go"), ast: f, fset: fset, imports: imports})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// placementRules confine a use — a selector of an imported package, as
// "import/path.Name", or an import, as its path — to the non-test files
// under the listed paths.
var placementRules = []struct {
	use     string
	allowed []string
	reason  string
}{
	{"tightcps/internal/verify.Refute", []string{"internal/verify", "internal/mapping", "benchmark"},
		"the replay prefilter settles a \"no\" before a search, and mapping.Admission decides when it runs (DESIGN.md §2, \"Counterexample replay prefilter\"); benchmark/ rebuilds the sweep from public calls"},
	{"syscall.Mmap", []string{"internal/verify/tablemem_linux.go"}, tableMemory},
	{"syscall.Munmap", []string{"internal/verify/tablemem_linux.go"}, tableMemory},
	{"syscall.Madvise", []string{"internal/verify/tablemem_linux.go"}, tableMemory},
	{"unsafe", []string{"internal/verify/tablemem_linux.go"}, tableMemory},
}

const tableMemory = "manual memory stays in one file: visited-set tables of 2 MiB and up are mapped off the Go heap by internal/verify/tablemem_linux.go alone (DESIGN.md §4, \"Table memory\")"

// TestPlacementRules holds the non-test files to placementRules.
func TestPlacementRules(t *testing.T) {
	files := parseTree(t)
	for _, row := range placementRules {
		for _, p := range row.allowed {
			if _, err := os.Stat(p); err != nil {
				t.Errorf("%s is allowed in %s: %v", row.use, p, err)
			}
		}
	}
	check := func(f *knobFile, pos token.Pos, use string) {
		for _, row := range placementRules {
			if row.use == use && !slices.ContainsFunc(row.allowed, func(p string) bool {
				return f.path == p || strings.HasPrefix(f.path, p+"/")
			}) {
				t.Errorf("%s:%d uses %s (%s)", f.path, f.fset.Position(pos).Line, use, row.reason)
			}
		}
	}
	for i := range files {
		f := &files[i]
		if f.test {
			continue
		}
		for _, im := range f.ast.Imports {
			path, _ := strconv.Unquote(im.Path.Value)
			check(f, im.Pos(), path)
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && f.imports[x.Name] != "" {
					check(f, sel.Pos(), f.imports[x.Name]+"."+sel.Sel.Name)
				}
			}
			return true
		})
	}
}

// TestEveryCommandIsTested fails on a command under cmd/ whose directory
// holds no Test function: every command is a run function its tests call
// in process, flag refusals and exit codes included (internal/cli).
func TestEveryCommandIsTested(t *testing.T) {
	tested := map[string]bool{}
	for _, f := range parseTree(t) {
		if !strings.HasPrefix(f.dir, "cmd/") {
			continue
		}
		tested[f.dir] = tested[f.dir] || f.test && slices.ContainsFunc(f.ast.Decls, func(d ast.Decl) bool {
			fn, ok := d.(*ast.FuncDecl)
			return ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test")
		})
	}
	if len(tested) == 0 {
		t.Fatal("no command under cmd/")
	}
	for dir, ok := range tested {
		if !ok {
			t.Errorf("%s has no Test function", dir)
		}
	}
}

// deletedMechanisms lists what the tree once had and may not grow back
// without a measurement that shows it winning. A row with a pattern fails
// on every line of a .go file under path that the pattern (RE2) matches —
// _test.go files only when tests is set; a row without one fails while
// path exists. This file, which spells every pattern out, is not scanned.
var deletedMechanisms = []struct {
	pattern string
	path    string
	tests   bool
	reason  string
}{
	{``, "cmd/bench", false, "a second harness over the inputs of benchmark/ (DESIGN.md §4)"},
	{``, "BENCH_verify.json", false, "a second harness over the inputs of benchmark/ (DESIGN.md §4)"},
	{``, "examples", false, "the examples are testable examples in the packages they demonstrate"},
	{`func ClusterRetry`, ".", true, "the backend flags are one group in internal/cli: no per-command cluster helper"},
	{`"(connect-retries|cpuprofile|memprofile)"`, ".", false, "the dial schedule is a constant; go test -bench and verifyd -pprof profile, not verifyslot flags"},
	{``, "internal/dverify/mesh.go", false, "the mesh is five files with one worker lifecycle and one poll round (DESIGN.md §5)"},
	{`\b(wideWords|wideAppWords|wideIdle|laneWords|stateKey|packWide|unpackWide|forceWide)\b|\[3\]uint64|type (u64Set|wideSet) |func \(v \*Verifier\) (successorsWide|expandWide)\(|func (hashW|lessW)\(`, ".", true,
		"a state is one word: no multi-word layout, key-width type family, wide set, expansion, hash or order, and no forced-wide test axis (DESIGN.md §2)"},
	{`codecFlate`, ".", true, "the DEFLATE frontier codec lost on every TCP row (DESIGN.md §4)"},
	{`func \(w \*meshWorker\) reinit|roundFT|collectFT|SuccessorsInto`, ".", false, "no second worker reset, second poll loop or hash-less expansion call (DESIGN.md §5)"},
	{`type cstate |func \(v \*Verifier\) (expand|expandGrouped|schedule|unpack|unpackWide)\(`, ".", false, "the decoded expansion core is the kernel's test oracle, not a second engine (DESIGN.md §2)"},
	{`\[\]verify\.PackedState|verify\.HashedState|\.AddHashed\(`, "internal/dverify", false, "the mesh worker moves flat words through the sets' chunked insert (DESIGN.md §3 item 5, §5)"},
	{`func \(c \*Cache\) Wrap`, ".", true, "mapping.Cache is the one verdict store, Get and Put its way in (DESIGN.md §1, \"Admission cache\")"},
	{`results +map\[uint64\]\*record|errVerifierPanicked|func \(s \*Service\) DrainOnSignal|func (FirstFit|Optimal)\(|func \(c \*Cache\) (Do|SaveFile|LoadFile)\(|cacheSubdir`, ".", false, "no second verdict map or shard layout; the single-file cache, the uncached mappers and DrainOnSignal stay gone (DESIGN.md §7)"},
	{`type inflight struct`, "internal/mapping", false, "no singleflight beside mapping.Cache's Get and Put"},
	{`Decode\(&req\)|Unmarshal\([^)]*&req\)`, "internal/admit", false, "an admission request is decoded by decodeRequest alone (DESIGN.md §7, \"Request decoding\")"},
	{`meshIdleWait|meshDigest|futureQ|sparePending|SentByLevel|RecvByLevel`, ".", false, "one barrier per BFS level: no pipelined commit rule, milestone tracker, per-level sums or idle wait (DESIGN.md §5)"},
	{`func \(w \*meshWorker\) (setFinal|noteBound|drained|idle)\(`, ".", false, "one barrier per BFS level: no deferral lists (DESIGN.md §5)"},
	{`map\[string\]bool|func encode\(|func \(n \*Network\) Successors\(`, "internal/ta", false, "the timed-automata checker keeps one slab-keyed store and one entry point, Reachable"},
	{`sendFilter|wantFilter|filterBits|codecDelta|zigzag|frontierCodec|Filtered +int`, "internal/dverify", false, "a TCP link ships raw words: the send filter and the varint-delta codec lost on every measured host (DESIGN.md §4)"},
	{`adoptedNow|newSpareOf|func \(p \*meshPoller\) adopt|spares +\[\]Transport|\.spares\b|\bw\.ft\b`, "internal/dverify", false, "a worker death is decided by the coordinator alone: no worker FT flag, no spare adoption (DESIGN.md §9)"},
	{`Trace +bool|Counterexample +\[\]\[\]int`, "internal/verify", false, "verify.Counterexample rebuilds a schedule from any verdict: no trace search mode or Result field (DESIGN.md §1)"},
	{`scheduleEnds|traced re-run`, ".", false, "no labelled traced re-run in verifyslot"},
	{`\b(DefaultVerify|syntheticAdmission|syntheticCacheKey|admissionStats|slotVerify)\b`, ".", true, "a slot set becomes an admission bit in mapping.Admission alone (DESIGN.md §1, \"Admission cache\")"},
	{`\b(minParts|collectAfterStates|TestServiceCollectsAfterLargeVerdict)\b`, ".", true, "a lane keeps one table, mapped off the heap past 2 MiB: no 16-way partitions, no forced collection (DESIGN.md §1, \"Memory shape\")"},
	{`\bdoubling +bool|\.doubling\b|hash +func\(uint64\) uint64`, "internal/verify", false, "every visited table grows on one schedule scaled by its share of the search, and the lanes route by hashKey alone (DESIGN.md §4, \"Table memory\", Growth)"},
	{`successors +func\(`, "internal/verify", false, "the search drivers expand with the kernel's successors: no expansion parameter or field"},
	{`\b(AddLevel|statesThrough|levelTrans)\b`, ".", true,
		"a verdict carries its level vector, Result.Levels, on every engine, and Run writes the trace's level spans from it: no per-level trace writer, per-level transition count or violation-only state sum (DESIGN.md §8)"},
	{`FaultTolerance +bool`, "internal/verify", false, "recovery is the cluster's one behaviour, in every dverify.Runner hook: no switch on verify.Config"},
	{`HTTPClient|RetryBackoff +time|BreakerCooldown +time`, "internal/admit", false, "the service has no backend retry or breaker, so no timings for them"},
	{`FaultTolerantRunner|RetryAttempts|BreakerThreshold|type Recover struct|recoverTo|reassignOwners|checkOwners|\bEra +int`, ".", true,
		"a dead worker leaves the cluster for good and every recovery is a fresh Init on the survivors: no opt-in hook, in-session Recover order, era tags or ownership tables, and no front-door retry or breaker, which only delayed the 502 of a cluster that never redialled (DESIGN.md §9)"},
	{`\.(Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Func|BoolFunc|Text)?(Var)?\(([&\w.]+, *)?"(ft|retries|breaker)"`, ".", false,
		"recovery needs no flag, and -retries and -breaker never kept a cluster answering (DESIGN.md §9, \"Tried and removed\")"},
	{`Switching +switching\.Config|Verify +verify\.Config`, "internal/core", true, "core.Options carries no nested verify or switching config"},
	{`\b(MaxDisturbances|BoundFor)\b`, ".", true, "the bounded-disturbance model never stored fewer states than the exact one (DESIGN.md §4)"},
	{`\b(cntBits|cntShift|maxDist)\b`, ".", true, "a lane is its phase and clock: the bounded model's counter is gone (DESIGN.md §2)"},
	{`"bounded"|json:"bounded|"maxDisturbances"`, ".", false, "no flag, config key or verdict field selects the bounded model; a request's bounded keys are skipped like any unknown key"},
	{`writeSegment|readSegment|segMagic|CheckpointDir|ckptWriteHook|AppendLevel|SortWords|"ftdir"`, ".", false, "a worker death restarts the search on the survivors: rolling back to per-level checkpoint segments lost every measured pair to it (DESIGN.md §9, \"Recovery restarts the search\")"},
	{`codecRaw|encodeBatch|decodeBatch`, ".", true, "a batch is the states' words and protoVersion names the format: no per-batch codec byte (DESIGN.md §4)"},
	{`^\s+(Fresh|MaxFresh|Next|Routed|RawBytes|WireBytes) +int$|^\s+Viol +bool$|^\s+Links +\[\]verify\.LinkWire$`, "internal/dverify", true,
		"a worker answer states each fact once: per-level commits, per-peer states and the violator; the coordinator derives every total (DESIGN.md §5)"},
	{`tightcps_(dverify|verify)_wire_bytes_total|shards_?[rR]eassigned|Shards +int`, ".", false,
		"a state crosses a link as one 8-byte word, so a byte series only restates the state series; a restart re-partitions every shard, so a reassigned-shard count describes nothing (DESIGN.md §8)"},
	{`Concurrency +int`, "internal/admit", true, "the service runs one queue worker: a cluster hook serialises its runs and a local search already uses every core"},
	{`\.(Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Func|BoolFunc|Text)?(Var)?\(([&\w.]+, *)?"concurrency"`, ".", false,
		"one queue worker: a second concurrent verification can only wait behind the cluster hook's lock or share the cores"},
	{`func settleIndex`, "internal/sim", false, "the co-simulator's settling index is lti.SettlingIndex"},
	{`func \(t RLETable\) (Decode|Len|At)\(`, "internal/switching", true, "a dwell table's runs are counted (Words), never expanded or indexed: no command reads an entry back from them"},
	{`\.(Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Func|BoolFunc|Text)?(Var)?\((&[\w.]+, *)?"nodes"`, ".", false,
		"one node per process: a command reaches a cluster by -connect to verifyd workers; in-process nodes share one heap and the cores and tied the local lanes (DESIGN.md, \"Commands\")"},
	{`BackendNodes|backendNodes`, ".", true,
		"MaxStates bounds the question on every backend, so the cluster size salts no cache key and /statsz has no node count to report (DESIGN.md §3, item 4)"},
	{`TooLarge +bool`, "internal/dverify", true,
		"the coordinator derives a budget bust from the nodes' summed FreshByLevel: a worker states no fact another field determines (protoVersion 21)"},
	{`TooLarge +bool`, "internal/verify", true,
		"a node past its budget sweeps its level as one that knows a violator does, and the level decides the verdict: verify.LaneStats needs no budget flag"},
	{`^\s+Profiles +func\(`, "internal/admit", true, "a request's named apps resolve through plants.ProfileList: no resolver option, which nothing set"},
	{`func \(c \*Client\) Stats\(`, "internal/admit", true, "no command reads /statsz through the client; the tests fetch it with a helper"},
	{`func \(m \*Matrix\) Trace\(`, "internal/mat", true, "no command takes a trace; the mat tests have a helper"},
	{`func \(g \*Gauge\) Set\(`, "internal/obs", true, "every gauge moves by Add: no series is stored absolute"},
	{`func \(p \*Profile\) Validate\(`, "internal/switching", false, "re-simulating a profile's windows is the sweep tests' oracle (export_test.go), not API"},
	{`^\s+Width +int\b`, "internal/textplot", true, "every plot is plotWidth columns wide: no command sized one otherwise"},
	{`^\s+Delay +int\b`, "internal/baseline", true, "no code read or wrote a baseline request offset"},
	{`^\s+Elapsed +int\b`, "internal/ta", true, "no code read or wrote a trace step's elapsed delay"},
	{`^\s+(ProbeSteps|Overflows) +uint64`, "internal/verify", true, "no code read or wrote them; benchmark/ reads CASRetries and Steals alone"},
}

// TestDeletedMechanismsStayDeleted holds the tree to deletedMechanisms.
func TestDeletedMechanismsStayDeleted(t *testing.T) {
	type goFile struct {
		path string // slash-separated, relative to the repo root
		test bool
		src  string
	}
	var files []goFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || path == "knob_test.go" {
			return nil
		}
		src, err := os.ReadFile(path)
		files = append(files, goFile{filepath.ToSlash(path), strings.HasSuffix(path, "_test.go"), string(src)})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range deletedMechanisms {
		if row.pattern == "" {
			if _, err := os.Stat(row.path); err == nil {
				t.Errorf("%s exists: %s", row.path, row.reason)
			} else if !errors.Is(err, fs.ErrNotExist) {
				t.Fatal(err)
			}
			continue
		}
		re := regexp.MustCompile(row.pattern)
		ast, err := syntax.Parse(row.pattern, syntax.Perl)
		if err != nil {
			t.Fatal(err)
		}
		lits := anyOf(ast) // a file holding none of them holds no match
		for _, f := range files {
			if f.test && !row.tests || row.path != "." && f.path != row.path && !strings.HasPrefix(f.path, row.path+"/") ||
				lits != nil && !slices.ContainsFunc(lits, func(l string) bool { return strings.Contains(f.src, l) }) {
				continue
			}
			for i, line := range strings.Split(f.src, "\n") {
				if re.MatchString(line) {
					t.Errorf("%s:%d matches %q (%s):\n\t%s", f.path, i+1, row.pattern, row.reason, line)
				}
			}
		}
	}
}

// anyOf returns strings of which every match of re holds at least one, or
// nil when it cannot name them.
func anyOf(re *syntax.Regexp) []string {
	switch re.Op {
	case syntax.OpLiteral:
		if re.Flags&syntax.FoldCase == 0 {
			return []string{string(re.Rune)}
		}
	case syntax.OpCapture, syntax.OpPlus:
		return anyOf(re.Sub[0])
	case syntax.OpConcat: // any part's strings do; take the longest shortest one
		var best []string
		for _, sub := range re.Sub {
			if lits := anyOf(sub); lits != nil && (best == nil || minLen(lits) > minLen(best)) {
				best = lits
			}
		}
		return best
	case syntax.OpAlternate:
		var all []string
		for _, sub := range re.Sub {
			lits := anyOf(sub)
			if lits == nil {
				return nil
			}
			all = append(all, lits...)
		}
		return all
	}
	return nil
}

func minLen(ss []string) int {
	n := len(ss[0])
	for _, s := range ss[1:] {
		n = min(n, len(s))
	}
	return n
}
