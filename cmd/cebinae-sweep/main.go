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
	"io"
	"os"
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
		qdiscs     = flag.String("qdiscs", "", "comma list of disciplines: fifo | fq | afq | pcq | strawman | cebinae (default fifo,fq,cebinae; fifo,cebinae with -backbone, the two its core offers)")
		scales     = flag.String("scales", "quick", "comma list of horizons: quick | medium | full or fractions (e.g. 0.1,0.5)")
		thresholds = flag.String("thresholds", "1,2,5,10,25,50,75,100", "comma list of Cebinae δp=δf=τ values in percent, each in (0,100]")
		bw         = flag.String("bw", "100M", "bottleneck bandwidth (e.g. 100M, 1G)")
		buffer     = flag.Int("buffer", 850, "bottleneck buffer in MTUs (1500 B)")
		flows      = flag.String("flows", "newreno:16,cubic:1", "comma list of cca:count groups")
		rtt        = flag.String("rtt", "50ms", "comma list of per-group base RTTs (one value applies to all)")
		seed       = flag.Uint64("seed", def.Base.Seed, "simulation seed")
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

	if *qdiscs == "" {
		*qdiscs = "fifo,fq,cebinae"
		if *backbone != "" {
			*qdiscs = "fifo,cebinae"
		}
	}
	d := sweeper{parallel: *parallel, timeout: *timeout, storePath: *storePath, resume: *resume, out: os.Stdout, log: os.Stderr}
	cli.Main(*cpuprofile, *memprofile, func() error {
		switch {
		case *specFiles != "":
			return d.scenarios(*specFiles)
		case *backbone != "":
			return d.backbone(*backbone, *qdiscs, *scales, *csvPath)
		}
		var err error
		cfg := def
		cfg.Qdiscs = parseQdiscs(*qdiscs)
		if cfg.Base, err = family(*bw, *buffer, *flows, *rtt, *seed, cfg.Qdiscs); err != nil {
			return err
		}
		if cfg.Scales, err = parseScales(*scales); err != nil {
			return err
		}
		if cfg.ThresholdPcts, err = parseFloats(*thresholds); err != nil {
			return err
		}
		table, csv := cfg.Sections()
		return d.grid("grid cell", table, csv, *csvPath)
	})
}

// sweeper runs every mode's grid: the options they share and where their
// output goes.
type sweeper struct {
	parallel  int
	timeout   time.Duration
	storePath string
	resume    bool
	out       io.Writer // the deterministic report
	log       io.Writer // progress and timing
}

// run refuses to reuse an existing store without -resume, then runs the
// sections through the runner checkpointed to the store (cells already in
// it are not re-run) and returns a Getter over the run. A section renders
// only when all its cells succeeded, so a failed cell fails its render,
// naming its job. noun names one job in the progress line.
func (d sweeper) run(noun string, sections ...experiments.BenchSection) (experiments.Getter, error) {
	if !d.resume {
		if _, err := os.Stat(d.storePath); err == nil {
			return nil, fmt.Errorf("store %s already exists; pass -resume to continue it or remove it for a fresh sweep", d.storePath)
		}
	}
	store, err := fleet.OpenStore(d.storePath)
	if err != nil {
		return nil, err
	}
	defer store.Close()

	fmt.Fprintf(d.log, "cebinae-sweep: %d %ss (%d already in %s)\n", len(experiments.SectionJobs(sections)), noun, store.Len(), d.storePath)
	opts := fleet.Options{Parallelism: d.parallel, Timeout: d.timeout, Store: store, Progress: d.log}
	get, _, err := cli.Run(sections, opts, d.log)
	return get, err
}

// grid runs a dumbbell or backbone grid given as its table and its CSV,
// two renders of the same cells: the table goes to stdout and the CSV to
// csvPath (unless it is empty).
func (d sweeper) grid(noun string, table, csv experiments.BenchSection, csvPath string) error {
	get, err := d.run(noun, table)
	if err != nil {
		return err
	}
	text, err := table.Render(get)
	if err != nil {
		return err
	}
	fmt.Fprint(d.out, text)
	if csvPath == "" {
		return nil
	}
	rows, err := csv.Render(get)
	if err != nil {
		return err
	}
	return os.WriteFile(csvPath, []byte(rows), 0o666)
}

// scenarios is the -scenario grid: every matched spec file loads,
// compiles, and contributes its section (one job per grid cell for
// tournament/buffer-sweep specs, one job otherwise) to a single
// checkpointed run, then each section renders its scenario's canonical
// report from the run.
func (d sweeper) scenarios(patterns string) error {
	files, err := scenario.LoadFiles(patterns)
	if err != nil {
		return err
	}
	sections := make([]experiments.BenchSection, len(files))
	for i, f := range files {
		sections[i] = f.Section("")
	}
	get, err := d.run("scenario job", sections...)
	if err != nil {
		return err
	}
	for i, s := range sections {
		text, err := s.Render(get)
		if err != nil {
			return err
		}
		fmt.Fprintf(d.out, "== %s scenario %q (%s)\n%s", files[i].Spec.Kind, files[i].Spec.Name, files[i].Path, text)
	}
	return nil
}

// backbone is the -backbone grid: standing-flow tiers × core disciplines
// through the replay scale tier. The scenario validator judges every tier
// under every discipline as a backbone spec (a spec names no fractional
// scale, so it says full; the cells run at -scales).
func (d sweeper) backbone(tiers, qdiscs, scales, csvPath string) error {
	flows, err := parseTiers(tiers)
	if err != nil {
		return err
	}
	kinds := parseQdiscs(qdiscs)
	spec := &scenario.Spec{Version: scenario.Version, Name: "sweep", Kind: "backbone",
		Backbone: &scenario.BackboneSpec{Scale: "full"}}
	for _, n := range flows {
		for _, k := range kinds {
			spec.Backbone.Flows, spec.Backbone.Qdisc = n, string(k)
			if err := scenario.Validate(spec); err != nil {
				return err
			}
		}
	}
	scaleList, err := parseScales(scales)
	if err != nil {
		return err
	}
	if len(scaleList) != 1 {
		return fmt.Errorf("the backbone grid takes exactly one scale, got %d", len(scaleList))
	}
	table, csv := experiments.BackboneSweepSections(flows, kinds, scaleList[0])
	return d.grid("backbone cell", table, csv, csvPath)
}

// parseTiers reads the -backbone flag: a comma list of standing-flow
// populations. It checks only the integer syntax; the scenario validator
// judges each count.
func parseTiers(s string) ([]int, error) {
	var flows []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -backbone tier %q (want integer flow counts)", part)
		}
		flows = append(flows, v)
	}
	return flows, nil
}

// family compiles the dumbbell family the grid runs from its flags once
// under each discipline in qdiscs, so the scenario validator judges every
// one. Its horizon is the default family's full-scale one, which each cell
// scales.
func family(bw string, buffer int, flows, rtt string, seed uint64, qdiscs []experiments.QdiscKind) (experiments.Scenario, error) {
	spec, err := cli.DumbbellSpec("sweep", seed, bw, buffer, flows, rtt, "", time.Duration(experiments.DefaultSweepConfig().Base.Duration))
	if err != nil {
		return experiments.Scenario{}, err
	}
	var c *scenario.Compiled
	for _, q := range qdiscs {
		spec.Dumbbell.Qdisc = string(q)
		if c, err = scenario.Compile(spec); err != nil {
			return experiments.Scenario{}, err
		}
	}
	return *c.Dumbbell, nil
}

// parseQdiscs splits the -qdiscs flag; the scenario validator judges each
// name in the spec it compiles.
func parseQdiscs(s string) []experiments.QdiscKind {
	var out []experiments.QdiscKind
	for _, part := range strings.Split(s, ",") {
		out = append(out, experiments.QdiscKind(strings.TrimSpace(part)))
	}
	return out
}

func parseScales(s string) ([]experiments.Scale, error) {
	var out []experiments.Scale
	for _, part := range strings.Split(s, ",") {
		v, err := experiments.ParseScale(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || !(v > 0 && v <= 100) {
			return nil, fmt.Errorf("bad -thresholds value %q (want a percentage in (0,100])", part)
		}
		out = append(out, v)
	}
	return out, nil
}
