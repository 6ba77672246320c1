// Package cli holds what the command-line tools under cmd/ share. Every
// simulation a CLI starts is a report section's cell run on the fleet by
// the one runner here (Run, RunCell); each CLI keeps its own rendering,
// headers, CSVs, store rule and failure policy. Every CLI's body runs
// under Main (profiles, fatal exit); DumbbellSpec reads the
// -bw/-buffer/-flows/-rtt flags.
package cli

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"cebinae/experiments"
	"cebinae/internal/fleet"
	"cebinae/internal/scenario"
)

// prog is the running program's name, the prefix of its stderr lines.
func prog() string { return filepath.Base(os.Args[0]) }

// Main runs a CLI's body under a CPU profile and a heap snapshot written
// to cpuPath and memPath (either may be empty). It returns when run
// succeeds; otherwise, once the profiles are flushed, it prints the first
// error of run or of the profiles prefixed with the program's name and
// exits 1.
func Main(cpuPath, memPath string, run func() error) {
	stop, err := StartProfiles(cpuPath, memPath)
	if err == nil {
		err = run()
		if perr := stop(); err == nil {
			err = perr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prog(), err)
		os.Exit(1)
	}
}

// Run runs every job of sections on the fleet under opts (its worker
// count, watchdog, an opened store, a progress writer), prints the run's
// one timing line to log, and returns a Getter over the run with its
// summary. The timing line names the worker count; it carries the run's
// Timing only when opts has no progress writer, since otherwise the
// fleet's closing line has just printed it. A failed job is recorded in
// the summary, not returned: each section's Render reports it, and the
// caller decides what that costs.
func Run(sections []experiments.BenchSection, opts fleet.Options, log io.Writer) (experiments.Getter, *fleet.Summary, error) {
	sum, err := fleet.Run(experiments.SectionJobs(sections), opts)
	if err != nil {
		return nil, nil, err
	}
	timing := sum.Timing()
	if opts.Progress != nil {
		timing = fmt.Sprintf("%v elapsed", sum.Elapsed.Round(time.Millisecond))
	}
	fmt.Fprintf(log, "%s: %s (p=%d)\n", prog(), timing, sum.Workers)
	return experiments.SummaryGetter(sum), sum, nil
}

// RunCell runs one simulation as the one cell of a section through Run on
// one worker and returns its record, decoded from the run as every
// section's is, and the wall time its job took.
func RunCell[T any](run func() T, log io.Writer) (T, time.Duration, error) {
	var rec T
	sec := experiments.NewSection("", "cell", "", []experiments.Cell[T]{{Run: run}},
		experiments.Only(func(v T) string { rec = v; return "" }))
	get, sum, err := Run([]experiments.BenchSection{sec}, fleet.Options{Parallelism: 1}, log)
	if err != nil {
		return rec, 0, err
	}
	_, err = sec.Render(get)
	return rec, sum.Results[0].Wall, err
}

// DumbbellSpec reads the -bw, -buffer (in 1500-byte MTUs), -flows and -rtt
// flags into the dumbbell spec they describe under qdisc, named name,
// seeded by seed and run for duration. It checks only the flags' syntax:
// compiling the spec judges everything else.
func DumbbellSpec(name string, seed uint64, bw string, buffer int, flows, rtts, qdisc string, duration time.Duration) (*scenario.Spec, error) {
	rate, err := scenario.ParseRate(bw)
	if err != nil {
		return nil, fmt.Errorf("-bw: %w", err)
	}
	groups, err := ParseGroups(flows, rtts)
	if err != nil {
		return nil, err
	}
	return &scenario.Spec{Version: scenario.Version, Name: name, Kind: "dumbbell", Seed: seed, Dumbbell: &scenario.DumbbellSpec{
		Rate: rate, BufferBytes: buffer * 1500, Groups: groups, Duration: scenario.Dur(duration), Qdisc: qdisc}}, nil
}

// ParseGroups reads a -flows / -rtt flag pair: a comma list of cca[:count]
// groups (a bare name is one flow) and a comma list of Go durations, at
// most one per group; a short RTT list applies its first value to the
// groups it does not reach. It checks only the syntax: the scenario
// validator judges each CC, count and RTT.
func ParseGroups(flows, rtts string) ([]scenario.GroupSpec, error) {
	var groups []scenario.GroupSpec
	for _, part := range strings.Split(flows, ",") {
		cc, cnt, ok := strings.Cut(strings.TrimSpace(part), ":")
		n := 1
		if ok {
			v, err := strconv.Atoi(cnt)
			if err != nil {
				return nil, fmt.Errorf("bad flow group %q", part)
			}
			n = v
		}
		groups = append(groups, scenario.GroupSpec{CC: cc, Count: n})
	}
	rttParts := strings.Split(rtts, ",")
	if len(rttParts) > len(groups) {
		return nil, fmt.Errorf("-rtt %q: %d RTTs for %d flow groups", rtts, len(rttParts), len(groups))
	}
	for i := range groups {
		sel := rttParts[0]
		if i < len(rttParts) {
			sel = rttParts[i]
		}
		d, err := time.ParseDuration(strings.TrimSpace(sel))
		if err != nil {
			return nil, fmt.Errorf("bad rtt %q", sel)
		}
		groups[i].RTT = scenario.Dur(d)
	}
	return groups, nil
}

// StartProfiles begins CPU profiling and arranges a heap snapshot at stop
// (either path may be empty); the returned function flushes both and must
// run before any os.Exit.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		if cpuFile, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC() // materialise final live-set statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}
