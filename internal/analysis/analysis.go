// Package analysis is a self-contained static-analysis framework for the
// cebinae repository, mirroring the golang.org/x/tools/go/analysis API
// surface (Analyzer, Pass, Diagnostic) on the standard library alone — the
// build environment vendors no third-party modules, so the framework loads
// packages via `go list -export` and type-checks them with go/types.
//
// The analyzers under internal/analysis/... encode this codebase's
// determinism invariants (see STATIC_ANALYSIS.md):
//
//   - detsource: no wall-clock or global randomness in simulation code
//   - simtime:   no lossy float64 round-trips on sim.Time arithmetic
//
// Violations that are deliberate carry a justification directive:
//
//	//lint:ignore <analyzer> <reason>
//
// placed on the flagged line or the line directly above it. A directive
// without a reason is itself a diagnostic: every exemption must say why it
// is safe. `//lint:file-ignore <analyzer> <reason>` exempts a whole file.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one static check. Run inspects a single package
// through the Pass and reports findings via Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	// It must be a valid identifier.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run performs the check. It is called once per package.
	Run func(*Pass) error
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.TypesInfo.TypeOf(e)
}

// ObjectOf returns the object denoted by identifier id, consulting both
// definitions and uses, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	return p.TypesInfo.ObjectOf(id)
}

// A Diagnostic is one finding, located by file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// ignoreDirective is a parsed //lint:ignore or //lint:file-ignore comment.
type ignoreDirective struct {
	analyzers []string // analyzer names, or ["all"]
	reason    string
	line      int
	fname     string
	file      bool // file-ignore: applies to the whole file
	pos       token.Pos
	used      bool // suppressed at least one diagnostic this Run
}

// coversAny reports whether the directive names any analyzer in ran.
func (d *ignoreDirective) coversAny(ran map[string]bool) bool {
	for name := range ran {
		if d.covers(name) {
			return true
		}
	}
	return false
}

func (d *ignoreDirective) covers(analyzer string) bool {
	for _, a := range d.analyzers {
		if a == analyzer || a == "all" {
			return true
		}
	}
	return false
}

// parseDirectives extracts lint directives from a file's comments. A
// malformed directive (no analyzer list or no reason) is reported through
// report so that unjustified exemptions cannot land silently.
func parseDirectives(fset *token.FileSet, f *ast.File, report func(pos token.Pos, msg string)) []*ignoreDirective {
	var out []*ignoreDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, fileWide := directiveText(c.Text)
			if text == "" {
				continue
			}
			fields := strings.Fields(text)
			if len(fields) < 2 {
				report(c.Pos(), "malformed lint directive: need `//lint:ignore <analyzer> <reason>` (the reason is mandatory)")
				continue
			}
			out = append(out, &ignoreDirective{
				analyzers: strings.Split(fields[0], ","),
				reason:    strings.Join(fields[1:], " "),
				line:      fset.Position(c.Pos()).Line,
				fname:     fset.Position(c.Pos()).Filename,
				file:      fileWide,
				pos:       c.Pos(),
			})
		}
	}
	return out
}

// directiveText returns the payload after the directive marker and whether
// it is file-wide; both empty/false for ordinary comments.
func directiveText(comment string) (string, bool) {
	if rest, ok := strings.CutPrefix(comment, "//lint:ignore "); ok {
		return strings.TrimSpace(rest), false
	}
	if rest, ok := strings.CutPrefix(comment, "//lint:file-ignore "); ok {
		return strings.TrimSpace(rest), true
	}
	return "", false
}

// suppressed reports whether diagnostic d is covered by a directive: a
// file-ignore for its analyzer, or a line directive on the same line or
// the line immediately above. A directive that fires is marked used, so
// Run can flag the ones that suppress nothing (unused-directive).
func suppressed(d Diagnostic, directives []*ignoreDirective) bool {
	for _, dir := range directives {
		if !dir.covers(d.Analyzer) || dir.fname != d.Pos.Filename {
			continue
		}
		if dir.file || dir.line == d.Pos.Line || dir.line == d.Pos.Line-1 {
			dir.used = true
			return true
		}
	}
	return false
}
