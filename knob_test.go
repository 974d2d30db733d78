package tightcps_test

// The knob rule (ROADMAP.md): an option field stays only if a command or
// a benchmark op reaches it. This test scans the tree with go/parser and
// fails on every exported field of an option struct under internal/ that
// no code outside its package sets.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// knobExempt holds the fields, or whole structs, kept without a setter.
var knobExempt = map[string]string{
	"plants.SyntheticOptions.Archetypes":   "shapes the generator behind fleet-sweep; only a [benchmark] change may alter that workload",
	"plants.SyntheticOptions.UnstableFrac": "shapes the generator behind fleet-sweep; only a [benchmark] change may alter that workload",
	"sim.SporadicConfig":                   "ROADMAP item 17 builds on the Monte-Carlo scenarios",
}

// knobStructs names the scanned structs beyond the *Options and *Config
// ones: the wire form of verify.Config and the service's client.
var knobStructs = map[string]bool{"verify.Spec": true, "admit.Client": true}

// knobFile is one parsed Go file of the tree.
type knobFile struct {
	dir  string // slash-separated, relative to the repo root
	test bool
	ast  *ast.File
}

// TestOptionFieldsAreSet fails on an exported field of an exported
// internal/ struct named *Options or *Config (or in knobStructs) that no
// file outside its package sets, counting only non-test files and the
// files under benchmark/. A field is set by a keyed or positional
// composite literal of its struct, or by an assignment, an increment or
// an address-of (&x.F, how flag and decoder code fill one) of a selector
// with its name. The last three go by name alone, so a field is let
// through when any struct's field of that name is assigned: the test
// misses some dead fields, but never fails a live one.
func TestOptionFieldsAreSet(t *testing.T) {
	files := parseTree(t)

	// fields maps "pkg.Type" to its exported fields; pkgDir maps "pkg" to
	// its directory (internal/<pkg>).
	fields := map[string][]string{}
	pkgDir := map[string]string{}
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		pkg := f.ast.Name.Name
		for _, d := range f.ast.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, s := range gd.Specs {
				ts := s.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				name := pkg + "." + ts.Name.Name
				if !ok || !ts.Name.IsExported() || !(strings.HasSuffix(ts.Name.Name, "Options") ||
					strings.HasSuffix(ts.Name.Name, "Config") || knobStructs[name]) {
					continue
				}
				pkgDir[pkg] = f.dir
				for _, fl := range st.Fields.List {
					for _, n := range fl.Names {
						if n.IsExported() {
							fields[name] = append(fields[name], n.Name)
						}
					}
				}
			}
		}
	}

	// set holds the "pkg.Type.Field" keys of literals; named maps a field
	// name to the directories of the files that set it by name.
	set := map[string]bool{}
	named := map[string][]string{}
	for _, f := range files {
		if f.test && !strings.HasPrefix(f.dir, "benchmark") {
			continue
		}
		imports := map[string]string{} // local name → package name
		for _, im := range f.ast.Imports {
			path, _ := strconv.Unquote(im.Path.Value)
			name := path[strings.LastIndex(path, "/")+1:]
			local := name
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = name
		}
		byName := func(e ast.Expr) {
			for {
				sel, ok := e.(*ast.SelectorExpr)
				if !ok {
					return
				}
				named[sel.Sel.Name] = append(named[sel.Sel.Name], f.dir)
				e = sel.X
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				sel, ok := n.Type.(*ast.SelectorExpr)
				if !ok {
					break
				}
				x, ok := sel.X.(*ast.Ident)
				if !ok {
					break
				}
				name := imports[x.Name] + "." + sel.Sel.Name
				for _, el := range n.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok { // positional: every field is set
						for _, fl := range fields[name] {
							set[name+"."+fl] = true
						}
						break
					}
					if k, ok := kv.Key.(*ast.Ident); ok {
						set[name+"."+k.Name] = true
					}
				}
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					byName(l)
				}
			case *ast.IncDecStmt:
				byName(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					byName(n.X)
				}
			}
			return true
		})
	}
	var unset []string
	for name, names := range fields {
		if _, ok := knobExempt[name]; ok {
			continue
		}
		own := pkgDir[name[:strings.Index(name, ".")]]
		for _, fl := range names {
			key := name + "." + fl
			_, exempt := knobExempt[key]
			if !exempt && !set[key] && !slices.ContainsFunc(named[fl], func(d string) bool { return d != own }) {
				unset = append(unset, key)
			}
		}
	}
	slices.Sort(unset)
	if len(unset) > 0 {
		t.Errorf("option fields no command or benchmark op sets (delete them, or set them outside their package):\n\t%s",
			strings.Join(unset, "\n\t"))
	}
	for name := range knobExempt {
		parts := strings.Split(name, ".")
		if names, ok := fields[parts[0]+"."+parts[1]]; !ok || len(parts) == 3 && !slices.Contains(names, parts[2]) {
			t.Errorf("exemption %s names no scanned struct or field", name)
		}
	}
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
		files = append(files, knobFile{dir: filepath.ToSlash(filepath.Dir(path)),
			test: strings.HasSuffix(path, "_test.go"), ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
