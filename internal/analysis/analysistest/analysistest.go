// Package analysistest runs an analyzer over fixture packages and checks
// its diagnostics against expectations embedded in the fixtures, in the
// style of golang.org/x/tools/go/analysis/analysistest (which this build
// environment does not vendor).
//
// Fixtures live under <package dir>/testdata/src/<name>/ and are plain Go
// files. A line expecting a diagnostic carries a trailing comment:
//
//	m[k] = v // want `regexp matching the message`
//
// Multiple `want` strings on one line expect multiple diagnostics.
// Fixture imports resolve first against sibling fixture packages in
// testdata/src, then against the real build (standard library and module
// packages) via `go list -export` compiler export data, so fixtures can
// import "time" or stub a "packet" package as needed. Ignore directives
// (//lint:ignore) are honoured, so fixtures can also assert suppression.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"cebinae/internal/analysis"
)

// Run analyses each named fixture package under dir/testdata/src with a
// and reports mismatches between produced and expected diagnostics on t.
func Run(t *testing.T, a *analysis.Analyzer, fixtures ...string) {
	t.Helper()
	for _, name := range fixtures {
		runOne(t, a, name)
	}
}

func runOne(t *testing.T, a *analysis.Analyzer, fixture string) {
	t.Helper()
	ld := &loader{
		root: filepath.Join("testdata", "src"),
		fset: token.NewFileSet(),
		pkgs: make(map[string]*loaded),
	}
	pkg, err := ld.load(fixture)
	if err != nil {
		t.Fatalf("fixture %s: %v", fixture, err)
	}

	diags, err := analysis.Run([]*analysis.Package{{
		Path:  fixture,
		Dir:   filepath.Join(ld.root, fixture),
		Fset:  ld.fset,
		Files: pkg.files,
		Types: pkg.types,
		Info:  pkg.info,
	}}, []analysis.Policy{{Analyzer: a, Polices: func(string) bool { return true }}})
	if err != nil {
		t.Fatalf("fixture %s: running %s: %v", fixture, a.Name, err)
	}

	wants := collectWants(t, ld.fset, pkg.files)
	for _, d := range diags {
		key := posKey{filepath.Base(d.Pos.Filename), d.Pos.Line}
		matched := false
		for i, w := range wants[key] {
			if w != nil && w.MatchString(d.Message) {
				wants[key][i] = nil
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("fixture %s: unexpected diagnostic at %s:%d: %s", fixture, key.file, key.line, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if w != nil {
				t.Errorf("fixture %s: missing diagnostic at %s:%d matching %q", fixture, key.file, key.line, w)
			}
		}
	}
}

type posKey struct {
	file string
	line int
}

var wantRE = regexp.MustCompile("`([^`]+)`|\"([^\"]+)\"")

// collectWants parses `// want ...` comments into per-line expectations.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[posKey][]*regexp.Regexp {
	t.Helper()
	wants := make(map[posKey][]*regexp.Regexp)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, m := range wantRE.FindAllStringSubmatch(text, -1) {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					key := posKey{filepath.Base(pos.Filename), pos.Line}
					wants[key] = append(wants[key], rx)
				}
			}
		}
	}
	return wants
}

// loader type-checks fixture packages, resolving imports against sibling
// fixtures first and the real build second.
type loader struct {
	root string
	fset *token.FileSet
	pkgs map[string]*loaded
}

type loaded struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

func (l *loader) load(path string) (*loaded, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := analysis.NewInfo()
	conf := types.Config{Importer: &fixtureImporter{l}}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	p := &loaded{files: files, types: tpkg, info: info}
	l.pkgs[path] = p
	return p, nil
}

type fixtureImporter struct{ l *loader }

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	if _, err := os.Stat(filepath.Join(fi.l.root, path)); err == nil {
		p, err := fi.l.load(path)
		if err != nil {
			return nil, err
		}
		return p.types, nil
	}
	return realImporter().Import(path)
}

// realImporter resolves standard-library (and module) imports from
// compiler export data, shelling out to `go list -export` once per
// distinct path and caching across all tests in the process.
var (
	realOnce sync.Once
	realImp  types.Importer
)

func realImporter() types.Importer {
	realOnce.Do(func() {
		var mu sync.Mutex
		exports := make(map[string]string)
		realImp = importer.ForCompiler(token.NewFileSet(), "gc", func(path string) (io.ReadCloser, error) {
			mu.Lock()
			file, ok := exports[path]
			mu.Unlock()
			if !ok {
				out, err := exec.Command("go", "list", "-export", "-f", "{{.Export}}", path).Output()
				if err != nil {
					return nil, fmt.Errorf("go list -export %s: %v", path, err)
				}
				file = strings.TrimSpace(string(out))
				if file == "" {
					return nil, fmt.Errorf("no export data for %s", path)
				}
				mu.Lock()
				exports[path] = file
				mu.Unlock()
			}
			return os.Open(file)
		})
	})
	return realImp
}
