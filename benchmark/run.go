package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// childTimeout is the watchdog on one child; a child that exceeds it is
// killed and its run counts as failed.
const childTimeout = 150 * time.Second

// ffOracleSeed is the seed the fast-forward accuracy check runs at,
// whatever the run's own seed (see fastForwardOracle).
const ffOracleSeed = defaultSeed

// minReps is the fewest repeats a run takes a median over, unless the
// measured time has already reached twice the run length.
const minReps = 3

// procs is the load every child is sized to: min(nproc, 2).
func procs() int { return min(runtime.NumCPU(), 2) }

// subSeed derives repeat i's seed from the run's seed. The repeats of
// one run use different seeds so the run's value averages over inputs
// instead of reporting one draw; repeat 0 runs the seed itself. The
// stride keeps the repeats of neighbouring seeds apart.
func subSeed(seed uint64, i int) uint64 { return seed + uint64(i)*1_000_003 }

// harness spawns children of its own binary.
type harness struct {
	root     string
	exe      string
	scale    float64
	driverMs int
	log      io.Writer
	// inProcess runs children as function calls (the self-tests), with
	// no host-speed probe around them.
	inProcess bool
	// probeNs is the most recent host-speed probe and probedAt when it
	// was taken.
	probeNs  float64
	probedAt time.Time
}

// probe reads the host's speed from a probe child. A reading taken within
// the last 50 ms is reused: back-to-back children share the probe between
// them. A failed probe reads as nominal speed.
func (h *harness) probe() float64 {
	if h.probeNs != 0 && time.Since(h.probedAt) < 50*time.Millisecond {
		return h.probeNs
	}
	h.probeNs = probeNominalNs
	if r := h.spawn(childArgs{Probe: true}); r.Err == "" && r.ProbeNs > 0 {
		h.probeNs = r.ProbeNs
	}
	h.probedAt = time.Now()
	return h.probeNs
}

// timed runs a child that executes a timed region, with a host-speed
// probe on either side, and scales the child's host times to a
// nominal-speed host (see calib.go). Every host-time figure derived from a
// rep downstream uses the scaled time; the raw one stays beside it.
func (h *harness) timed(a childArgs) rep {
	if h.inProcess {
		r := h.spawn(a)
		r.RawWallS, r.HostFactor = r.WallS, 1
		return r
	}
	before := h.probe()
	r := h.spawn(a)
	after := h.probe()
	r.RawWallS, r.HostFactor = r.WallS, (before+after)/2/probeNominalNs
	r.WallS /= r.HostFactor
	r.SetupS /= r.HostFactor
	return r
}

func (h *harness) spawn(a childArgs) rep {
	a.Scale = h.scale
	a.SpawnedNs = time.Now().UnixNano()
	if h.inProcess {
		return runChild(h.root, a)
	}
	arg, err := json.Marshal(a)
	if err != nil {
		return rep{Err: err.Error()}
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, h.exe, "-child", string(arg))
	cmd.Dir = h.root
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs()))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			return rep{Seed: a.Seed, Err: fmt.Sprintf("watchdog: child exceeded %v", childTimeout)}
		}
		return rep{Seed: a.Seed, Err: fmt.Sprintf("child: %v: %s", err, strings.TrimSpace(stderr.String()))}
	}
	var r rep
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return rep{Seed: a.Seed, Err: "child output: " + err.Error()}
	}
	return r
}

// stat summarises one end-to-end metric over a run's repeats.
type stat struct {
	Value  float64   `json:"value"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// workloadRun is everything measured for one workload.
type workloadRun struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Faults    []string           `json:"faults,omitempty"`
	Digest    string             `json:"report_digest,omitempty"`
	E2E       map[string]stat    `json:"end_to_end,omitempty"`
	Layer     map[string]float64 `json:"per_layer,omitempty"`

	first *rep // repeat 0, the traced run's plain twin
	// unitNs holds the untraced repeats' host time per event, the
	// baseline tracing overhead is measured against.
	unitNs []float64
}

func (wr *workloadRun) count(what string, r rep) {
	wr.Attempted++
	if !r.failed() {
		return
	}
	wr.Failed++
	if r.Err != "" {
		wr.Faults = append(wr.Faults, what+": "+r.Err)
	}
	for _, f := range r.Faults {
		wr.Faults = append(wr.Faults, what+": "+f)
	}
}

// fail records a cross-run check that did not hold against the run it
// was made on.
func (wr *workloadRun) fail(faults []string) {
	if len(faults) == 0 {
		return
	}
	wr.Failed++
	wr.Faults = append(wr.Faults, faults...)
}

// untraced measures the end-to-end metrics: profiling off, repeats until
// `done` says so. Every repeat is a process start, so the repeats are also
// setup_s's samples.
func (h *harness) untraced(wr *workloadRun, done func(n int, measured float64) bool) {
	var reps []rep
	measured := 0.0
	for i := 0; !done(i, measured); i++ {
		r := h.timed(childArgs{Workload: wr.Workload, Seed: subSeed(wr.Seed, i)})
		wr.count(fmt.Sprintf("repeat %d", i), r)
		fmt.Fprintf(h.log, "  %s repeat %d: wall %.3fs (raw %.3fs, host ×%.3f) setup %.4fs events %d\n", wr.Workload, i, r.WallS, r.RawWallS, r.HostFactor, r.SetupS, r.Events)
		if r.Err != "" {
			break // a harness error repeats; do not burn the budget on it
		}
		measured += r.RawWallS
		reps = append(reps, r)
		wr.unitNs = append(wr.unitNs, r.unitNs())
	}
	if len(reps) == 0 {
		return
	}
	wr.first, wr.Digest = &reps[0], reps[0].Digest
	wr.E2E = map[string]stat{}
	for _, d := range e2eDefs {
		vals := make([]float64, len(reps))
		for i, r := range reps {
			vals[i] = d.of(r)
		}
		// events_per_mb and jfi read 0 on the workload whose result has
		// no such figure, and are absent there.
		if d.harnessOnly && vals[0] == 0 {
			continue
		}
		wr.E2E[d.name] = summarise(vals, d)
	}
}

// traced measures the per-layer metrics that belong to a workload: one
// profiled execution against its plain twin (same seed, so the digests
// must match), the tracing overhead as the profiled execution's host time
// per event over the untraced repeats' median, and the workload's oracle
// where it has one.
func (h *harness) traced(wr *workloadRun) {
	w, _ := findWorkload(wr.Workload)
	seed := subSeed(wr.Seed, 0)
	if wr.first == nil {
		r := h.timed(childArgs{Workload: wr.Workload, Seed: seed})
		wr.count("plain twin", r)
		wr.first, wr.Digest, wr.unitNs = &r, r.Digest, []float64{r.unitNs()}
	}
	plain := *wr.first
	prof := h.timed(childArgs{Workload: wr.Workload, Seed: seed, Profile: true})
	wr.count("profiled", prof)
	fmt.Fprintf(h.log, "  %s profiled: wall %.3fs (plain %.3fs)\n", wr.Workload, prof.WallS, plain.WallS)

	layer := map[string]float64{}
	for k, v := range plain.Counts {
		layer[k] = v
	}
	layer["trace.host_slowdown_pct"] = 100 * (plain.HostFactor - 1)
	layer["experiments.wall_raw_s"] = plain.RawWallS
	layer["experiments.events"] = float64(plain.Events)
	layer["experiments.jfi"] = plain.JFI
	if plain.Events > 0 {
		layer["experiments.ns_per_event"] = plain.unitNs()
	}
	layer["experiments.events_per_mb"] = plain.eventsPerMB()
	if !plain.failed() && !prof.failed() {
		wr.fail(checkDigest("profiled run", prof.Digest, plain.Digest))
		for k, v := range prof.CPU {
			layer[k] = v
		}
		layer["trace.overhead_pct"] = 100 * (prof.unitNs()/median(wr.unitNs) - 1)
	}

	if w.shards > 0 {
		ref := h.spawn(childArgs{Workload: wr.Workload, Seed: seed, Reference: true}) // only its digest is used
		wr.count("serial twin", ref)
		fmt.Fprintf(h.log, "  %s serial twin: wall %.3fs events %d\n", wr.Workload, ref.WallS, ref.Events)
		if !plain.failed() && !ref.failed() {
			wr.fail(checkDigest("serial twin", plain.Digest, ref.Digest))
		}
	}
	if w.fastForward {
		h.fastForwardOracle(wr, plain, layer)
	}
	wr.Layer = layer
}

// fastForwardOracle scores the accelerated run against the exact
// packet-level run of the same cell — at ffOracleSeed, not at the run's
// seed. The ≤ 1 % bound is a property the repository pins at that seed
// (benchkit's scoring cell); other seeds land between 0.66 % and 1.03 %
// (README), where the check would fail runs of unmodified code. So a run
// at another seed checks the accelerator's accuracy on the pinned cell and
// only the range checks and ForcedOff on its own repeats, and that is the
// failed_frac the README defines.
func (h *harness) fastForwardOracle(wr *workloadRun, plain rep, layer map[string]float64) {
	ff := plain
	if plain.Seed != ffOracleSeed {
		ff = h.timed(childArgs{Workload: wr.Workload, Seed: ffOracleSeed})
		wr.count("fast-forward at the oracle seed", ff)
	}
	exact := h.timed(childArgs{Workload: wr.Workload, Seed: ffOracleSeed, Reference: true})
	wr.count("exact twin", exact)
	fmt.Fprintf(h.log, "  %s exact twin: wall %.3fs events %d\n", wr.Workload, exact.WallS, exact.Events)
	if ff.failed() || exact.failed() {
		return
	}
	wr.fail(checkFFError(exact.Flows, ff.Flows))
	layer["fluid.err_pct"] = 100 * ffWorstErr(exact.Flows, ff.Flows)
	layer["fluid.events_x"] = float64(exact.Events) / float64(ff.Events)
	layer["fluid.speedup"] = exact.WallS / ff.WallS
}

// drivers runs the layer drivers in a child of their own. Their time
// readings are scaled by the host factor measured around that child, like
// every other host time, so that count × unit cost can be set against a
// workload's scaled wall time.
func (h *harness) drivers() (map[string]float64, error) {
	r := h.timed(childArgs{DriverMs: h.driverMs})
	if r.Err != "" {
		return nil, fmt.Errorf("layer drivers: %s", r.Err)
	}
	for _, d := range driverDefs {
		if d.unit == "ns" || d.unit == "us" || d.unit == "ms" {
			r.Drivers[d.name] /= r.HostFactor
		}
	}
	return r.Drivers, nil
}

// fillLayer gives every per-layer metric a value: a layer the workload
// never enters reads 0, which is what it did there.
func fillLayer(layer map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(layerDefs))
	for _, d := range layerDefs {
		out[d.name] = layer[d.name]
	}
	return out
}
