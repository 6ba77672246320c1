// Command cebinae-vet is the repository's determinism multichecker. It
// loads the packages matching the given patterns (default ./...) and
// applies the invariant analyzers from internal/analysis — detsource and
// simtime — using the policy table that decides which packages each one
// polices (the simulation core for detsource, with internal/fleet's
// wall-clock exemption documented in the policy; the whole module for
// simtime).
//
// Exit status is 1 if any diagnostic survives the //lint:ignore
// directives — including the runner's own findings: a directive that
// suppresses nothing is reported as unused-directive, so stale
// exemptions cannot outlive the code they excused. `make lint` and the
// CI vet job fail closed. See STATIC_ANALYSIS.md for the invariants and
// the //lint:ignore grammar; packet ownership is checked at run time, by
// the packetdebug build's poisoned pool.
package main

import (
	"flag"
	"fmt"
	"os"

	"cebinae/internal/analysis"
	"cebinae/internal/analysis/detsource"
	"cebinae/internal/analysis/simtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("cebinae-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	dir := fs.String("dir", ".", "directory to resolve package patterns from")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: cebinae-vet [-list] [-dir d] [packages]\n\n"+
			"Runs the cebinae determinism analyzers over the given\n"+
			"package patterns (default ./...). Exits 1 on findings.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	policies := analysis.Policies(detsource.Analyzer, simtime.Analyzer)
	if *list {
		for _, p := range policies {
			fmt.Fprintf(stdout, "%-10s %s\n", p.Analyzer.Name, p.Analyzer.Doc)
		}
		return 0
	}

	pkgs, err := analysis.Load(*dir, fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	diags, err := analysis.Run(pkgs, policies)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "cebinae-vet: %d finding(s); fix them or annotate with `//lint:ignore <analyzer> <reason>` (see STATIC_ANALYSIS.md)\n", len(diags))
		return 1
	}
	return 0
}
