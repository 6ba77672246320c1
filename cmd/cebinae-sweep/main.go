// cebinae-sweep runs Cartesian parameter sweeps — qdisc × scale ×
// (δp=δf=τ) threshold — over a dumbbell scenario family through the
// parallel fleet orchestrator. Every grid cell is one checkpointed job:
// results stream into a JSONL store as they complete, a killed sweep is
// resumed with -resume (only the remaining cells run), and a CSV summary
// plus an aligned text table are emitted at the end.
//
//	cebinae-sweep                                  # Fig.12 family, quick scale
//	cebinae-sweep -scales quick,medium -p 8
//	cebinae-sweep -qdiscs fifo,cebinae -thresholds 1,5,25 -flows vegas:16,newreno:1
//	cebinae-sweep -resume -store sweep.jsonl       # finish an interrupted grid
//	cebinae-sweep -backbone 20000,100000           # replay scale tiers × {fifo,cebinae}
//	cebinae-sweep -scenario 'scenarios/*.json'     # declarative scenario files as the grid
//
// Progress and timing go to stderr; the text table goes to stdout; the
// JSONL store and CSV summary go to -store / -csv.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"cebinae/experiments"
	"cebinae/internal/cli"
	"cebinae/internal/fleet"
	"cebinae/internal/scenario"
)

func main() {
	def := experiments.DefaultSweepConfig()
	var (
		qdiscs     = flag.String("qdiscs", "fifo,fq,cebinae", "comma list of disciplines: fifo | fq | afq | pcq | strawman | cebinae")
		scales     = flag.String("scales", "quick", "comma list of horizons: quick | medium | full or fractions (e.g. 0.1,0.5)")
		thresholds = flag.String("thresholds", "1,2,5,10,25,50,75,100", "comma list of Cebinae δp=δf=τ values in percent")
		bw         = flag.String("bw", "100M", "bottleneck bandwidth (e.g. 100M, 1G)")
		buffer     = flag.Int("buffer", 850, "bottleneck buffer in MTUs (1500 B)")
		flows      = flag.String("flows", "newreno:16,cubic:1", "comma list of cca:count groups")
		rtt        = flag.String("rtt", "50ms", "comma list of per-group base RTTs (one value applies to all)")
		seed       = flag.Uint64("seed", def.Seed, "simulation seed")
		parallel   = flag.Int("p", 0, "worker pool size (0 = GOMAXPROCS)")
		timeout    = flag.Duration("timeout", 0, "per-job wall-clock watchdog (0 = none), e.g. 10m")
		backbone   = flag.String("backbone", "", "comma list of standing-flow tiers (e.g. 20000,100000): sweep the backbone replay grid (tiers × qdiscs) instead of the dumbbell family")
		specFiles  = flag.String("scenario", "", "comma list of declarative scenario files or globs (e.g. 'scenarios/*.json'): the sweep grid is the scenarios' jobs instead of a hardcoded family")
		storePath  = flag.String("store", "sweep.jsonl", "JSONL result store (one line per completed grid cell)")
		resume     = flag.Bool("resume", false, "reuse an existing store, skipping its completed cells")
		csvPath    = flag.String("csv", "sweep.csv", "CSV summary path (empty = skip)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	stopProfiles, err := cli.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		cli.Fatal(err)
	}
	sweep := func() error {
		switch {
		case *specFiles != "":
			return runScenarioSweep(*specFiles, *parallel, *timeout, *storePath, *resume)
		case *backbone != "":
			return runBackboneSweep(*backbone, *qdiscs, *scales, *parallel, *timeout, *storePath, *resume, *csvPath)
		}
		var err error
		cfg := def
		cfg.BufferBytes = *buffer * 1500
		cfg.Seed = *seed
		if cfg.BottleneckBps, err = cli.ParseBandwidth(*bw); err != nil {
			return err
		}
		if cfg.Groups, err = cli.ParseGroups(*flows, *rtt); err != nil {
			return err
		}
		if cfg.Qdiscs, err = parseQdiscs(*qdiscs); err != nil {
			return err
		}
		if cfg.Scales, err = parseScales(*scales); err != nil {
			return err
		}
		if cfg.ThresholdPcts, err = parseFloats(*thresholds); err != nil {
			return err
		}
		return runDumbbellSweep(cfg, *parallel, *timeout, *storePath, *resume, *csvPath)
	}
	err = sweep()
	// cli.Fatal calls os.Exit, which would skip deferred profile writers —
	// stop them explicitly before deciding the exit path.
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		cli.Fatal(err)
	}
}

// runDumbbellSweep is the default grid: qdisc × scale × threshold cells of
// one dumbbell family, checkpointed to the store, then rendered as a text
// table and a CSV summary.
func runDumbbellSweep(cfg experiments.SweepConfig, parallel int, timeout time.Duration, storePath string, resume bool, csvPath string) error {
	if !resume {
		if _, err := os.Stat(storePath); err == nil {
			return fmt.Errorf("store %s already exists; pass -resume to continue it or remove it for a fresh sweep", storePath)
		}
	}
	store, err := fleet.OpenStore(storePath)
	if err != nil {
		return err
	}
	defer store.Close()

	jobs := cfg.Jobs()
	fmt.Fprintf(os.Stderr, "cebinae-sweep: %d grid cells (%d already in %s)\n", len(jobs), store.Len(), storePath)
	start := time.Now()
	sum, err := fleet.Run(jobs, fleet.Options{
		Parallelism: parallel,
		Timeout:     timeout,
		Store:       store,
		Progress:    os.Stderr,
	})
	if err != nil {
		return err
	}

	rows, err := experiments.DecodeSweepResults(sum.Results)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderSweep(rows))
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		if err := experiments.WriteSweepCSV(f, rows); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	fmt.Fprintf(os.Stderr, "cebinae-sweep: %v elapsed for %v of simulation work — %.2fx vs sequential; JSONL %s",
		time.Since(start).Round(time.Millisecond), sum.Work.Round(time.Millisecond), sum.Speedup(), storePath)
	if csvPath != "" {
		fmt.Fprintf(os.Stderr, ", CSV %s", csvPath)
	}
	fmt.Fprintln(os.Stderr)
	if sum.Failed > 0 {
		return fmt.Errorf("%d grid cell(s) failed — inspect %s", sum.Failed, storePath)
	}
	return nil
}

// runScenarioSweep is the -scenario grid: every matched spec file loads,
// compiles, and contributes its fleet jobs (one per grid cell for
// tournament/buffer-sweep specs, one job otherwise) to a single
// checkpointed run, then each scenario's canonical report is reassembled
// from the store — same resume semantics as the hardcoded grids.
func runScenarioSweep(patterns string, parallel int, timeout time.Duration, storePath string, resume bool) error {
	var paths []string
	for _, pat := range strings.Split(patterns, ",") {
		pat = strings.TrimSpace(pat)
		matches, err := filepath.Glob(pat)
		if err != nil || len(matches) == 0 {
			return fmt.Errorf("-scenario pattern %q matches no files", pat)
		}
		paths = append(paths, matches...)
	}
	sort.Strings(paths)

	var compiled []*scenario.Compiled
	var jobs []fleet.Job
	for _, path := range paths {
		spec, err := scenario.Load(path)
		if err != nil {
			return err
		}
		c, err := scenario.Compile(spec)
		if err != nil {
			return err
		}
		compiled = append(compiled, c)
		jobs = append(jobs, c.Jobs("")...)
	}

	if !resume {
		if _, err := os.Stat(storePath); err == nil {
			return fmt.Errorf("store %s already exists; pass -resume to continue it or remove it for a fresh sweep", storePath)
		}
	}
	store, err := fleet.OpenStore(storePath)
	if err != nil {
		return err
	}
	defer store.Close()

	fmt.Fprintf(os.Stderr, "cebinae-sweep: %d scenario jobs from %d files (%d already in %s)\n",
		len(jobs), len(paths), store.Len(), storePath)
	start := time.Now()
	sum, err := fleet.Run(jobs, fleet.Options{
		Parallelism: parallel,
		Timeout:     timeout,
		Store:       store,
		Progress:    os.Stderr,
	})
	if err != nil {
		return err
	}

	get := experiments.SummaryGetter(sum)
	for i, c := range compiled {
		report, err := c.Render("", get)
		if err != nil {
			return err
		}
		fmt.Printf("== %s scenario %q (%s)\n%s", c.Spec.Kind, c.Spec.Name, paths[i], report)
	}

	fmt.Fprintf(os.Stderr, "cebinae-sweep: %v elapsed for %v of simulation work — %.2fx vs sequential; JSONL %s\n",
		time.Since(start).Round(time.Millisecond), sum.Work.Round(time.Millisecond), sum.Speedup(), storePath)
	if sum.Failed > 0 {
		return fmt.Errorf("%d scenario job(s) failed — inspect %s", sum.Failed, storePath)
	}
	return nil
}

// runBackboneSweep is the -backbone grid: standing-flow tiers × core
// disciplines through the replay scale tier, same checkpoint/resume and
// CSV plumbing as the dumbbell sweep. Only fifo and cebinae exist at the
// backbone core, so when -qdiscs is left at its dumbbell default the grid
// uses both rather than erroring on fq.
func runBackboneSweep(tiers, qdiscs, scales string, parallel int, timeout time.Duration, storePath string, resume bool, csvPath string) error {
	flows, err := parseTiers(tiers)
	if err != nil {
		return err
	}
	qdiscsSet := false
	flag.Visit(func(f *flag.Flag) { qdiscsSet = qdiscsSet || f.Name == "qdiscs" })
	if !qdiscsSet {
		qdiscs = "fifo,cebinae"
	}
	kinds, err := parseQdiscs(qdiscs)
	if err != nil {
		return err
	}
	for _, k := range kinds {
		if k != experiments.FIFO && k != experiments.Cebinae {
			return fmt.Errorf("backbone cores support fifo and cebinae only, not %q", k)
		}
	}
	scaleList, err := parseScales(scales)
	if err != nil {
		return err
	}
	if len(scaleList) != 1 {
		return fmt.Errorf("the backbone grid takes exactly one scale, got %d", len(scaleList))
	}

	if !resume {
		if _, err := os.Stat(storePath); err == nil {
			return fmt.Errorf("store %s already exists; pass -resume to continue it or remove it for a fresh sweep", storePath)
		}
	}
	store, err := fleet.OpenStore(storePath)
	if err != nil {
		return err
	}
	defer store.Close()

	jobs := experiments.BackboneSweepJobs(flows, kinds, scaleList[0])
	fmt.Fprintf(os.Stderr, "cebinae-sweep: %d backbone cells (%d already in %s)\n", len(jobs), store.Len(), storePath)
	start := time.Now()
	sum, err := fleet.Run(jobs, fleet.Options{
		Parallelism: parallel,
		Timeout:     timeout,
		Store:       store,
		Progress:    os.Stderr,
	})
	if err != nil {
		return err
	}

	rows, err := experiments.DecodeBackboneSweep(sum.Results)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderBackboneSweep(rows))
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		if err := experiments.WriteBackboneSweepCSV(f, rows); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	fmt.Fprintf(os.Stderr, "cebinae-sweep: %v elapsed for %v of simulation work — %.2fx vs sequential; JSONL %s\n",
		time.Since(start).Round(time.Millisecond), sum.Work.Round(time.Millisecond), sum.Speedup(), storePath)
	if sum.Failed > 0 {
		return fmt.Errorf("%d backbone cell(s) failed — inspect %s", sum.Failed, storePath)
	}
	return nil
}

// parseTiers reads the -backbone flag: a comma list of positive
// standing-flow populations.
func parseTiers(s string) ([]int, error) {
	var flows []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad -backbone tier %q (want positive flow counts)", part)
		}
		flows = append(flows, v)
	}
	return flows, nil
}

func parseQdiscs(s string) ([]experiments.QdiscKind, error) {
	known := map[experiments.QdiscKind]bool{
		experiments.FIFO: true, experiments.FQ: true, experiments.AFQ: true,
		experiments.PCQ: true, experiments.Strawman: true, experiments.Cebinae: true,
	}
	var out []experiments.QdiscKind
	for _, part := range strings.Split(s, ",") {
		k := experiments.QdiscKind(strings.TrimSpace(part))
		if !known[k] {
			return nil, fmt.Errorf("unknown qdisc %q", k)
		}
		out = append(out, k)
	}
	return out, nil
}

func parseScales(s string) ([]experiments.Scale, error) {
	var out []experiments.Scale
	for _, part := range strings.Split(s, ",") {
		switch part = strings.TrimSpace(part); part {
		case "quick":
			out = append(out, experiments.Quick)
		case "medium":
			out = append(out, experiments.Medium)
		case "full":
			out = append(out, experiments.Full)
		default:
			v, err := strconv.ParseFloat(part, 64)
			if err != nil || v <= 0 || v > 1 {
				return nil, fmt.Errorf("bad scale %q (want quick|medium|full or a fraction in (0,1])", part)
			}
			out = append(out, experiments.Scale(v))
		}
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || v < 0 || v > 100 {
			return nil, fmt.Errorf("bad -thresholds value %q (want a percentage in [0,100])", part)
		}
		out = append(out, v)
	}
	return out, nil
}
