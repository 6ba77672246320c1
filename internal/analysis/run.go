package analysis

import (
	"go/token"
	"sort"
)

// Run applies each analyzer to each package it polices (per the selector
// in its Policy) and returns the surviving diagnostics, sorted by file
// position. Ignore directives are honoured here — malformed directives
// (missing reason) come back as diagnostics of the "lintdirective"
// pseudo-analyzer, and a directive that suppresses nothing for any
// analyzer that ran on its package comes back as "unused-directive", so
// stale exemptions fail the gate exactly like missing ones.
func Run(pkgs []*Package, policies []Policy) ([]Diagnostic, error) {
	var all []Diagnostic
	for _, pkg := range pkgs {
		// Directive scan happens once per package, shared by analyzers.
		var directives []*ignoreDirective
		for _, f := range pkg.Files {
			directives = append(directives, parseDirectives(pkg.Fset, f, func(pos token.Pos, msg string) {
				all = append(all, Diagnostic{
					Pos:      pkg.Fset.Position(pos),
					Analyzer: "lintdirective",
					Message:  msg,
				})
			})...)
		}
		ran := make(map[string]bool, len(policies))
		for _, pol := range policies {
			if !pol.Polices(pkg.Path) {
				continue
			}
			ran[pol.Analyzer.Name] = true
			var raw []Diagnostic
			pass := &Pass{
				Analyzer:  pol.Analyzer,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				diags:     &raw,
			}
			if err := pol.Analyzer.Run(pass); err != nil {
				return nil, err
			}
			for _, d := range raw {
				if !suppressed(d, directives) {
					all = append(all, d)
				}
			}
		}
		// A directive that suppressed nothing is stale — unless it names
		// only analyzers that did not run on this package (their policies
		// decide scope; a fixture run with a single analyzer must not
		// flag directives for the others).
		for _, dir := range directives {
			if dir.used || !dir.coversAny(ran) {
				continue
			}
			all = append(all, Diagnostic{
				Pos:      pkg.Fset.Position(dir.pos),
				Analyzer: "unused-directive",
				Message:  "directive suppresses no diagnostic; delete it (a stale exemption must not outlive the code it excused)",
			})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return all, nil
}
