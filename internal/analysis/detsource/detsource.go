// Package detsource forbids wall-clock time and ambient randomness inside
// the simulation core.
//
// Simulated time advances only through the engine clock (sim.Engine.Now);
// randomness enters only through an explicitly seeded generator (sim.Rand,
// or math/rand.New over a fixed source). A single time.Now() or global
// rand.Intn() buried in a hot path silently breaks the reproducibility
// that the differential shard tests and the fleet's byte-identical
// reports depend on — this analyzer makes that class uncompilable at the
// `make lint` gate rather than detectable after the fact.
package detsource

import (
	"go/ast"
	"go/types"

	"cebinae/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "detsource",
	Doc: "forbid wall-clock time and global/unseeded randomness in simulation code; " +
		"virtual time comes from sim.Engine.Now and randomness from a seeded generator",
	Run: run,
}

// forbiddenTime lists package time functions that read the host clock or
// arm host-runtime timers. Pure conversions and constants (time.Duration,
// time.Millisecond, time.Unix construction from explicit numbers) are fine.
var forbiddenTime = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// allowedRand lists the constructors of math/rand{,/v2} that take an
// explicit source or seed; every other package-level function uses the
// process-global generator and is forbidden.
var allowedRand = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// Only package-qualified references: x must name a package,
			// so method calls on a *rand.Rand value never match.
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if _, isPkg := pass.ObjectOf(id).(*types.PkgName); !isPkg {
				return true
			}
			fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if forbiddenTime[fn.Name()] {
					pass.Reportf(sel.Pos(),
						"wall-clock time.%s in simulation code; use the engine clock (sim.Engine.Now / ScheduleCall)",
						fn.Name())
				}
			case "math/rand", "math/rand/v2":
				if !allowedRand[fn.Name()] {
					pass.Reportf(sel.Pos(),
						"global randomness rand.%s in simulation code; use sim.Rand or rand.New with an explicit seed",
						fn.Name())
				}
			}
			return true
		})
	}
	return nil
}
