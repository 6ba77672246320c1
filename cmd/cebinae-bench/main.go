// cebinae-bench regenerates every table and figure of the Cebinae paper's
// evaluation (§5) and prints them in the paper's layout. Each independent
// simulation (every Table-2 row, figure, and extension cell) runs as a job
// on a parallel worker pool; the report is assembled in a fixed order from
// the per-job results, so its bytes are identical at any -p. The -scale
// flag trades run length for fidelity: "full" reproduces the paper's
// 100-second horizons; "quick" preserves the comparative shape in a
// fraction of the time.
//
//	cebinae-bench -scale quick                 # everything, short runs
//	cebinae-bench -scale full -only table2     # one experiment, paper length
//	cebinae-bench -only fig7,fig12,table3
//	cebinae-bench -scale medium -p 8 -resume bench.jsonl   # checkpoint + resume
//	cebinae-bench -scenario 'scenarios/*.json' -only scenario/multihop   # spec-file sections
//	cebinae-bench -scale medium -cpuprofile cpu.pprof      # profile the fleet
//
// Live progress, per-job wall times, and the parallel-speedup summary go
// to stderr; only the deterministic report goes to stdout / -o.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"cebinae/experiments"
	"cebinae/internal/cli"
	"cebinae/internal/fleet"
	"cebinae/internal/scenario"
)

func main() {
	var (
		scaleFlag  = flag.String("scale", "quick", "quick | medium | full, or a fraction of the paper's horizon (e.g. 0.5)")
		only       = flag.String("only", "", "comma list of experiment ids to run (default: all)")
		outPath    = flag.String("o", "", "also write the report to this file")
		parallel   = flag.Int("p", 0, "worker pool size (0 = GOMAXPROCS)")
		timeout    = flag.Duration("timeout", 0, "per-job wall-clock watchdog (0 = none), e.g. 10m")
		resume     = flag.String("resume", "", "JSONL checkpoint store path; already-completed jobs in it are skipped")
		scenFiles  = flag.String("scenario", "", "comma list of declarative scenario files or globs appended to the report as extra sections (ids: scenario/<name>)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	stopProfiles, err := cli.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		cli.Fatal(err)
	}

	err = runReport(*scaleFlag, *only, *outPath, *parallel, *timeout, *resume, *scenFiles)
	// cli.Fatal calls os.Exit, which would skip deferred profile writers —
	// stop them explicitly before deciding the exit path.
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		cli.Fatal(err)
	}
}

// scenarioSections loads each matched scenario file and packages it as a
// bench-report section (id scenario/<name>), so declarative workloads ride
// the same fleet, checkpoint store, and -only filter as the paper sections.
func scenarioSections(patterns string) ([]experiments.BenchSection, error) {
	var sections []experiments.BenchSection
	for _, pat := range strings.Split(patterns, ",") {
		pat = strings.TrimSpace(pat)
		matches, err := filepath.Glob(pat)
		if err != nil || len(matches) == 0 {
			return nil, fmt.Errorf("-scenario pattern %q matches no files", pat)
		}
		sort.Strings(matches)
		for _, path := range matches {
			spec, err := scenario.Load(path)
			if err != nil {
				return nil, err
			}
			c, err := scenario.Compile(spec)
			if err != nil {
				return nil, err
			}
			sections = append(sections, c.Section(""))
		}
	}
	return sections, nil
}

func runReport(scaleFlag, only, outPath string, parallel int, timeout time.Duration, resume, scenFiles string) error {
	scale, err := experiments.ParseScale(scaleFlag)
	if err != nil {
		return err
	}

	sections := experiments.BenchSections(scale)
	if scenFiles != "" {
		extra, err := scenarioSections(scenFiles)
		if err != nil {
			return err
		}
		sections = append(sections, extra...)
	}
	if only != "" {
		want := map[string]bool{}
		for _, id := range strings.Split(only, ",") {
			want[strings.TrimSpace(id)] = true
		}
		var selected []experiments.BenchSection
		for _, s := range sections {
			if want[s.ID] {
				selected = append(selected, s)
			}
		}
		if len(selected) == 0 {
			return fmt.Errorf("no experiments match %q", only)
		}
		sections = selected
	}

	opts := fleet.Options{
		Parallelism: parallel,
		Timeout:     timeout,
		Progress:    os.Stderr,
	}
	if resume != "" {
		store, err := fleet.OpenStore(resume)
		if err != nil {
			return err
		}
		defer store.Close()
		opts.Store = store
	}

	start := time.Now()
	sum, err := fleet.Run(experiments.SectionJobs(sections), opts)
	if err != nil {
		return err
	}

	var w io.Writer = os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	get := experiments.SummaryGetter(sum)
	fmt.Fprintf(w, "Cebinae evaluation reproduction — scale %.2f of the paper's horizons\n", float64(scale))
	fmt.Fprintf(w, "generated by cebinae-bench\n\n")
	failedSections := 0
	for _, s := range sections {
		fmt.Fprintf(w, "==== %s — %s ====\n", s.ID, s.Desc)
		text, err := s.Render(get)
		if err != nil {
			failedSections++
			fmt.Fprintf(w, "!! %v\n\n", err)
			continue
		}
		fmt.Fprintf(w, "%s\n", text)
	}

	fmt.Fprintf(os.Stderr, "cebinae-bench: %v elapsed for %v of simulation work — %.2fx vs sequential (p=%d)\n",
		time.Since(start).Round(time.Millisecond), sum.Work.Round(time.Millisecond), sum.Speedup(), workerCount(parallel))
	if failedSections > 0 {
		return fmt.Errorf("%d section(s) incomplete — see report", failedSections)
	}
	return nil
}

func workerCount(p int) int {
	if p <= 0 {
		return fleet.DefaultParallelism()
	}
	return p
}
