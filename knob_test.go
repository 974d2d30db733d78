package tightcps_test

// The knob rule (ROADMAP.md): an option field or a function stays only if
// a command or a benchmark op reaches it. TestOptionFieldsAreSet scans the
// tree with go/parser and fails on every exported field of an option
// struct under internal/ that no code outside its package sets;
// TestFunctionsAreReached fails on every non-test function no command,
// benchmark op or README example reaches. Deleted mechanisms stay deleted:
// TestDeletedMechanismsStayDeleted fails on any line of Go that brings one
// back. TestPlacementRules keeps a few calls and imports in the files they
// belong to, and TestEveryCommandIsTested keeps a test beside every
// command.

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"regexp/syntax"
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
	path    string // slash-separated, relative to the repo root
	dir     string // path's directory
	test    bool
	ast     *ast.File
	fset    *token.FileSet
	imports map[string]string // local name → import path
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
				path := f.imports[x.Name]
				name := path[strings.LastIndex(path, "/")+1:] + "." + sel.Sel.Name
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

// reachExempt holds the non-test functions kept though no root reaches
// them, keyed as TestFunctionsAreReached names them; what they call is kept
// with them.
var reachExempt = map[string]string{
	"lti.SimulateFeedback":        "the plain closed loop, kept beside the delayed one as the reference a reader checks a controller against",
	"lti.SimulateDelayedFeedback": "the closed loop with the paper's one-period delay, kept as the reference of the co-simulations",
	"sim.Runner.MonteCarlo":       "ROADMAP item 17 builds on the Monte-Carlo scenarios",
	"mat.Diag":                    "a fixture of the lti, control and mat tests",
}

// reachRoots are the methods the standard library calls through its
// interfaces (fmt.Stringer, error, http.Handler, sort.Interface, io).
var reachRoots = []string{"String", "Error", "ServeHTTP", "Len", "Less", "Swap", "Read", "Write", "Close", "Unwrap"}

// readmeExample matches a README line naming a testable example.
var readmeExample = regexp.MustCompile("`(internal/\\w+)` `(Example\\w*)`")

// TestFunctionsAreReached fails on a non-test function that no command, no
// benchmark op and no README example reaches. The roots are every main
// under cmd/ and benchmark/, every init, every package-level var
// initializer, the methods named in reachRoots and the examples the README
// lists; a reached function reaches every function and method its body
// names. A plain function is keyed by its package directory and name, a
// method by its name alone, and every declaration sharing a key is reached
// together (the build-tagged tablemem files). Going by name, the test
// misses some dead methods, but never fails a live function.
func TestFunctionsAreReached(t *testing.T) {
	files := parseTree(t)

	type decl struct {
		body  *ast.BlockStmt
		file  *knobFile
		label string // pkg.Name or pkg.Recv.Name; a command's pkg is its directory
	}
	decls := map[string][]decl{} // key → declarations sharing it
	var queue []string
	reached := map[string]bool{}
	mark := func(key string) {
		if !reached[key] {
			reached[key] = true
			queue = append(queue, key)
		}
	}
	// walk marks what n names: a plain function of f's package by its
	// identifier, one of another package by its selector — keyed by its
	// directory in the module, by its import path outside it — and every
	// method of any other selector's name.
	walk := func(f *knobFile, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				mark(f.dir + "." + n.Name)
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if path, ok := f.imports[x.Name]; ok {
						mark(strings.TrimPrefix(path, "tightcps/") + "." + n.Sel.Name)
						return false
					}
				}
				mark("." + n.Sel.Name)
			}
			return true
		})
	}
	for i := range files {
		f := &files[i]
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				pkg := f.ast.Name.Name
				if pkg == "main" {
					pkg = f.dir
				}
				key, label := f.dir+"."+d.Name.Name, pkg+"."+d.Name.Name
				if d.Recv != nil {
					key, label = "."+d.Name.Name, pkg+"."+recvName(d.Recv.List[0].Type)+"."+d.Name.Name
				}
				decls[key] = append(decls[key], decl{d.Body, f, label})
				if d.Recv == nil && (d.Name.Name == "init" ||
					d.Name.Name == "main" && (strings.HasPrefix(f.dir, "cmd/") || f.dir == "benchmark")) {
					mark(key)
				}
			case *ast.GenDecl:
				if d.Tok == token.VAR && !f.test {
					walk(f, d)
				}
			}
		}
	}
	for _, name := range reachRoots {
		mark("." + name)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range readmeExample.FindAllStringSubmatch(string(readme), -1) {
		if len(decls[m[1]+"."+m[2]]) == 0 {
			t.Errorf("README names example %s.%s, which does not exist", m[1], m[2])
		}
		mark(m[1] + "." + m[2])
	}
	drain := func() {
		for len(queue) > 0 {
			key := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, d := range decls[key] {
				if d.body != nil {
					walk(d.file, d.body)
				}
			}
		}
	}
	drain()

	// An exempt function must be unreached, and what it calls is kept
	// with it.
	keyOf := map[string]string{} // label → key, of non-test functions
	for key, ds := range decls {
		for _, d := range ds {
			if !d.file.test {
				keyOf[d.label] = key
			}
		}
	}
	for name := range reachExempt {
		if key, ok := keyOf[name]; !ok {
			t.Errorf("exemption %s names no non-test function", name)
		} else if reached[key] {
			t.Errorf("exemption %s names a reached function", name)
		} else {
			mark(key)
		}
	}
	drain()

	var unreached []string
	for label, key := range keyOf {
		if !reached[key] {
			unreached = append(unreached, label)
		}
	}
	slices.Sort(unreached)
	if len(unreached) > 0 {
		t.Errorf("functions no command, benchmark op or README example reaches (delete them, or move them into the tests that use them):\n\t%s",
			strings.Join(unreached, "\n\t"))
	}
}

// recvName returns the type name of a method receiver.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr: // generic receiver
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
