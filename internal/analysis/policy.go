package analysis

import "strings"

// A Policy binds an analyzer to the set of packages it polices. The
// selector sees full import paths ("cebinae/internal/sim").
type Policy struct {
	Analyzer *Analyzer
	// Polices reports whether the package at path is checked.
	Polices func(path string) bool
}

// The simulation core: every package whose code runs inside the simulated
// world, where wall-clock time and ambient randomness must never leak.
// internal/fleet is deliberately absent — it is the wall-clock side of the
// system (progress/ETA display, per-job watchdog timeouts, worker
// scheduling) and owns the real clock by design; determinism there is
// guaranteed by sorting job results. internal/analysis (this tooling) is
// likewise host-side.
var simulationPackages = []string{
	"cebinae/internal/sim",
	"cebinae/internal/netem",
	"cebinae/internal/tcp",
	"cebinae/internal/qdisc",
	"cebinae/internal/shard",
	"cebinae/internal/app",
	"cebinae/internal/cmsketch",
	"cebinae/internal/maxmin",
	"cebinae/internal/packet",
	"cebinae/internal/core",
	"cebinae/internal/hhcache",
	"cebinae/internal/trace",
	"cebinae/internal/replay",
	"cebinae/internal/metrics",
	"cebinae/internal/scenario",
}

func inSimulationCore(path string) bool {
	for _, p := range simulationPackages {
		if path == p {
			return true
		}
	}
	return false
}

// moduleWide polices every package of this module, including cmd/ and
// experiments/, where durations are built from configuration floats.
func moduleWide(path string) bool {
	return path == "cebinae" || strings.HasPrefix(path, "cebinae/")
}

// Policies returns the analyzer→package bindings cebinae-vet and the
// repo-gate test enforce. The analyzers are passed in by the caller
// (cmd/cebinae-vet) to keep this package free of import cycles with its
// sub-packages.
func Policies(detsource, simtime *Analyzer) []Policy {
	return []Policy{
		// Wall-clock and ambient randomness are forbidden only inside the
		// simulated world; cmd/ and experiments/ legitimately measure real
		// elapsed time around whole runs.
		{Analyzer: detsource, Polices: inSimulationCore},
		// sim.Time hygiene applies module-wide too; conversions at the
		// experiment boundary (building a duration from a float rate) are
		// allowed by the analyzer itself.
		{Analyzer: simtime, Polices: moduleWide},
	}
}
