package onepipe_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"onepipe/internal/experiments"
)

// optionsBaselinePath is the committed inventory of settable values: one
// line per exported field of the option structs below and per delivery /
// incarnation mode, naming the figure or test that needs it (the file's
// header gives the format, DESIGN.md "Options" the rule).
const optionsBaselinePath = "api/options.baseline"

// optionTypes are the types under the rule, by directory: the option
// structs, and the two mode enumerations whose constants select a delivery
// or switch-incarnation path.
var optionTypes = []struct {
	dir, pkg string
	types    []string
}{
	{".", "onepipe", []string{"Config", "LiveConfig"}},
	{"internal/core", "core", []string{"Config", "SendOptions", "DeliveryMode"}},
	{"internal/netsim", "netsim", []string{"Config", "Mode"}},
	{"internal/serve", "serve", []string{"Config"}},
	{"internal/raft", "raft", []string{"Config"}},
	{"internal/udpnet", "udpnet", []string{"Config"}},
	{"internal/clock", "clock", []string{"Config"}},
	{"internal/chaos", "chaos", []string{"Plan"}},
	{"internal/topology", "topology", []string{"ClosConfig"}},
	{"internal/workload", "workload", []string{"SyntheticConfig"}},
	{"internal/kvstore", "kvstore", []string{"Config"}},
	{"internal/replication", "replication", []string{"Config"}},
	{"internal/baseline", "baseline", []string{"Config"}},
}

// parseDir parses the non-test (or only the test) files of one directory.
func parseDir(t *testing.T, dir string, tests bool) []*ast.File {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return strings.HasSuffix(fi.Name(), "_test.go") == tests
	}, 0)
	if err != nil {
		t.Fatalf("parse %s: %v", dir, err)
	}
	var files []*ast.File
	for _, p := range pkgs {
		for _, f := range p.Files {
			files = append(files, f)
		}
	}
	return files
}

// optionSurface returns "pkg.Type.Member" for every exported field of the
// named struct types and every exported constant of the named enumeration
// types in files.
func optionSurface(files []*ast.File, pkg string, types []string) []string {
	want := make(map[string]bool, len(types))
	for _, n := range types {
		want[n] = true
	}
	var out []string
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			constType := "" // carried down an iota group
			for _, spec := range gd.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					st, ok := s.Type.(*ast.StructType)
					if !ok || !want[s.Name.Name] {
						continue
					}
					for _, fld := range st.Fields.List {
						for _, nm := range fld.Names {
							if nm.IsExported() {
								out = append(out, pkg+"."+s.Name.Name+"."+nm.Name)
							}
						}
					}
				case *ast.ValueSpec:
					if gd.Tok != token.CONST {
						continue
					}
					if id, ok := s.Type.(*ast.Ident); ok {
						constType = id.Name
					} else if len(s.Values) > 0 {
						constType = ""
					}
					for _, nm := range s.Names {
						if want[constType] && nm.IsExported() {
							out = append(out, pkg+"."+constType+"."+nm.Name)
						}
					}
				}
			}
		}
	}
	return out
}

// identifiers returns every identifier the non-test Go files of dir use.
func identifiers(t *testing.T, dir string) map[string]bool {
	ids := make(map[string]bool)
	for _, f := range parseDir(t, dir, false) {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				ids[id.Name] = true
			}
			return true
		})
	}
	return ids
}

// TestOptionsInventory holds the option surface and api/options.baseline to
// each other: every exported field of the option structs and every mode
// constant has a line, every line names a member that exists, and every
// name on a line resolves — a figure id through experiments.Find, a Test*
// to a test function in the tree, benchmark/ and cmd/<name> to a directory
// whose sources mention the field. A new option therefore arrives with the
// figure or test that needs it, or fails here. With -v it logs the count of
// settable values, the figure the simplicity ledger tracks.
func TestOptionsInventory(t *testing.T) {
	ids := make(map[string]bool)
	for _, r := range experiments.Registry() {
		if ids[r.ID] {
			t.Errorf("experiments.Registry: duplicate id %q", r.ID)
		}
		ids[r.ID] = true
		if got, ok := experiments.Find(r.ID); !ok || got.Title != r.Title {
			t.Errorf("experiments.Find(%q) does not resolve to its Registry entry", r.ID)
		}
	}

	tests := make(map[string]bool)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "benchmark") {
			return filepath.SkipDir
		}
		for _, f := range parseDir(t, path, true) {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Test") {
					tests[fd.Name.Name] = true
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	surface := make(map[string]bool)
	for _, ot := range optionTypes {
		for _, m := range optionSurface(parseDir(t, ot.dir, false), ot.pkg, ot.types) {
			surface[m] = true
		}
	}

	raw, err := os.ReadFile(optionsBaselinePath)
	if err != nil {
		t.Fatal(err)
	}
	listed := make(map[string]bool)
	readers := make(map[string]map[string]bool) // benchmark/ or cmd/<name> -> identifiers
	for i, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		at := fmt.Sprintf("%s:%d", optionsBaselinePath, i+1)
		words := strings.Fields(line)
		member, names := words[0], words[1:]
		if listed[member] {
			t.Errorf("%s: %s listed twice", at, member)
		}
		listed[member] = true
		if !surface[member] {
			t.Errorf("%s: %s is not an exported field or mode of the option types", at, member)
		}
		if len(names) == 0 {
			t.Errorf("%s: %s names no figure or test", at, member)
		}
		field := member[strings.LastIndex(member, ".")+1:]
		for _, name := range names {
			switch {
			case strings.HasPrefix(name, "Test"):
				if !tests[name] {
					t.Errorf("%s: %s names %s, which is not a test function in the tree", at, member, name)
				}
			case name == "benchmark/" || strings.HasPrefix(name, "cmd/"):
				if readers[name] == nil {
					readers[name] = identifiers(t, name)
				}
				if !readers[name][field] {
					t.Errorf("%s: %s names %s, whose sources do not mention %s", at, member, name, field)
				}
			default:
				if !ids[name] {
					t.Errorf("%s: %s names %q, which is not a figure id in experiments.Registry", at, member, name)
				}
			}
		}
	}
	for m := range surface {
		if !listed[m] {
			t.Errorf("%s has no line in %s: name the figure or test that needs it, or make it a constant", m, optionsBaselinePath)
		}
	}
	t.Logf("settable values: %d", len(surface))
}
