package tightcps_test

import (
	"go/ast"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docCommandLines names where documented command lines live: a
// `go run ./cmd/X …` line in a fenced block of the markdown files, and a
// `/tmp/X …` line of the CI workflow, which builds the commands there.
// Prose is not scanned: it may name a flag to say it is refused.
var docCommandLines = []struct {
	path   string
	fenced bool // only lines inside ``` blocks count
	cmd    *regexp.Regexp
}{
	{"README.md", true, regexp.MustCompile(`go run \./cmd/(\w+)`)},
	{"DESIGN.md", true, regexp.MustCompile(`go run \./cmd/(\w+)`)},
	{".claude/skills/verify/SKILL.md", true, regexp.MustCompile(`go run \./cmd/(\w+)`)},
	{".github/workflows/ci.yml", false, regexp.MustCompile(`/tmp/(\w+)`)},
}

// docFlag is a flag token of a command line: -name or -name=value, the
// name starting with a letter (so -1 is a value).
var docFlag = regexp.MustCompile(`^--?([A-Za-z][\w.-]*)(=.*)?$`)

// TestDocumentedFlagsAreRegistered fails on a flag in a documented command
// line (docCommandLines) that its command does not register. A command's
// flags are the string literals naming them in its fs.* registrations,
// with internal/cli's backend group where it calls cli.BackendFlags, and
// -h and -help, which every FlagSet takes.
func TestDocumentedFlagsAreRegistered(t *testing.T) {
	files := parseTree(t)
	// flagNames collects the first string literal of every fs.* call
	// under n: the flag a registration names.
	flagNames := func(n ast.Node, into map[string]bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "fs" {
					for _, a := range call.Args {
						if lit, ok := a.(*ast.BasicLit); ok && lit.Kind == token.STRING {
							name, _ := strconv.Unquote(lit.Value)
							into[name] = true
							break
						}
					}
				}
			}
			return true
		})
	}
	backend := map[string]bool{}
	for _, f := range files {
		if f.path != "internal/cli/cli.go" {
			continue
		}
		for _, d := range f.ast.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name == "BackendFlags" {
				flagNames(fn.Body, backend)
			}
		}
	}
	if len(backend) == 0 {
		t.Fatal("no flag registered by cli.BackendFlags")
	}
	registered := map[string]map[string]bool{} // command → its flags
	for _, f := range files {
		cmd, ok := strings.CutPrefix(f.dir, "cmd/")
		if !ok || f.test {
			continue
		}
		flags := registered[cmd]
		if flags == nil {
			flags = map[string]bool{"h": true, "help": true}
			registered[cmd] = flags
		}
		flagNames(f.ast, flags)
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "BackendFlags" {
				if x, ok := sel.X.(*ast.Ident); ok && f.imports[x.Name] == "tightcps/internal/cli" {
					for name := range backend {
						flags[name] = true
					}
				}
			}
			return true
		})
	}

	checked := 0
	for _, src := range docCommandLines {
		b, err := os.ReadFile(src.path)
		if err != nil {
			t.Fatal(err)
		}
		inFence := false
		lines := strings.Split(string(b), "\n")
		for i := 0; i < len(lines); i++ {
			lineNo, line := i+1, lines[i]
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inFence = !inFence
				continue
			}
			for strings.HasSuffix(line, `\`) && i+1 < len(lines) { // a continued shell line
				i++
				line = strings.TrimSuffix(line, `\`) + " " + lines[i]
			}
			if src.fenced && !inFence {
				continue
			}
			for _, m := range src.cmd.FindAllStringSubmatchIndex(line, -1) {
				cmd := line[m[2]:m[3]]
				flags, ok := registered[cmd]
				if !ok {
					if !src.fenced {
						continue // a /tmp path that is no command
					}
					t.Errorf("%s:%d: %s is no command under cmd/:\n\t%s", src.path, lineNo, cmd, line)
					continue
				}
				checked++
				// The command's arguments end at the first shell operator.
				args := line[m[1]:]
				if j := strings.IndexAny(args, "|;&<>#)`"); j >= 0 {
					args = args[:j]
				}
				for _, tok := range strings.Fields(args) {
					fm := docFlag.FindStringSubmatch(strings.Trim(tok, `[]"'`))
					if fm != nil && !flags[fm[1]] {
						t.Errorf("%s:%d: %s registers no -%s flag:\n\t%s", src.path, lineNo, cmd, fm[1], strings.TrimSpace(line))
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no documented command line found")
	}
	t.Logf("%d documented command lines checked", checked)
}
