package main

import (
	"fmt"
	"io"
)

// printRun prints every metric by name with its unit, direction and —
// for the end-to-end metrics — regression bound.
func printRun(w io.Writer, spec benchSpec, run savedRun) {
	m := run.Manifest
	fmt.Fprintf(w, "benchmark: commit %s, %s, GOMAXPROCS %d of %d cores (%s), seed %d, %d repeats, %.0f s",
		m.Commit, m.GoVersion, m.GOMAXPROCS, m.NProc, m.CPUModel, m.Seed, m.Repeats, m.WallS)
	if m.Degraded {
		fmt.Fprint(w, ", DEGRADED: fewer than 2 cores")
	}
	fmt.Fprintln(w)
	for _, wr := range run.Workloads {
		fmt.Fprintf(w, "\n%s  digest %.16s\n", wr.Workload, wr.Digest)
		fmt.Fprintf(w, "  %-28s %14s %-6s %-7s %-16s %s\n", "end to end", "value", "unit", "better", "bound", "median, min .. max (n)")
		for _, d := range e2eDefs {
			s, ok := wr.E2E[d.name]
			if !ok {
				continue // not defined on this workload
			}
			fmt.Fprintf(w, "  %-28s %14.6g %-6s %-7s %-16s %.6g, %.6g .. %.6g (%d)\n",
				d.name, s.Value, d.unit, d.better, spec.boundText(d), s.Median, s.Min, s.Max, s.N)
		}
		fmt.Fprintf(w, "  %-28s %14.6g %-6s %-7s %-16s %d of %d runs failed\n", "failed_frac", failedFrac(wr), "ratio", "lower", "0 absolute", wr.Failed, wr.Attempted)
		for _, f := range wr.Faults {
			fmt.Fprintf(w, "  FAULT %s\n", f)
		}
		fmt.Fprintf(w, "  %-28s %14s %-6s %s\n", "per layer", "value", "unit", "better")
		layer := fillLayer(wr.Layer)
		for _, d := range concat(runDefs, cpuDefs) {
			fmt.Fprintf(w, "  %-28s %14.6g %-6s %s\n", d.name, layer[d.name], d.unit, d.better)
		}
	}
	fmt.Fprintf(w, "\nlayer drivers (workload-independent)\n")
	for _, d := range driverDefs {
		fmt.Fprintf(w, "  %-28s %14.6g %-6s %s\n", d.name, run.Drivers[d.name], d.unit, d.better)
	}
}
