package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"syscall"
	"time"
)

// Every measured execution happens in a fresh child process of this same
// binary, one at a time, so peak RSS and heap state belong to one
// execution and the host never runs more than the workload's own threads.

// childArgs is what the parent tells a child, as one JSON argument.
type childArgs struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// SpawnedNs is the parent's wall clock just before it started the
	// child: set-up time runs from there, so it includes process start,
	// runtime and package initialisation.
	SpawnedNs int64   `json:"spawned_ns"`
	Profile   bool    `json:"profile,omitempty"`
	Reference bool    `json:"reference,omitempty"`
	Scale     float64 `json:"scale"`
	// DriverMs selects the layer drivers instead of a workload.
	DriverMs int `json:"driver_ms,omitempty"`
	// Probe selects the host-speed probe (calib.go) instead of a workload.
	Probe bool `json:"probe,omitempty"`
}

// rep is one child's result.
type rep struct {
	Seed   uint64  `json:"seed"`
	SetupS float64 `json:"setup_s"`
	// WallS is the timed region's wall time. The parent scales it, and
	// SetupS, to a nominal-speed host (RawWallS ÷ HostFactor, see calib.go).
	WallS      float64 `json:"wall_s"`
	RawWallS   float64 `json:"wall_raw_s"`
	HostFactor float64 `json:"host_factor"`
	AllocMB    float64 `json:"alloc_mb"`
	AllocsK    float64 `json:"allocs_k"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`
	outcome
	// CPU is the profile attribution in percent (profiled children only).
	CPU map[string]float64 `json:"cpu,omitempty"`
	// Drivers are the layer drivers' readings (driver children only).
	Drivers map[string]float64 `json:"drivers,omitempty"`
	// ProbeNs is the host-speed probe's reading (probe children only).
	ProbeNs float64 `json:"probe_ns,omitempty"`
	// Err is a panic or a harness error; the run then counts as failed.
	Err string `json:"err,omitempty"`
}

func (r rep) failed() bool { return r.Err != "" || len(r.Faults) > 0 }

// unitNs is host time per unit of simulated work: per event where the
// result counts events, per run otherwise (the report). Comparing unit
// costs cancels the event-count difference between two seeds.
func (r rep) unitNs() float64 {
	if r.Events > 0 {
		return r.WallS * 1e9 / float64(r.Events)
	}
	return r.WallS * 1e9
}

// eventsPerMB is engine events dispatched per MB the network carried; 0
// where the result exposes no byte count (the report).
func (r rep) eventsPerMB() float64 {
	if r.MB == 0 {
		return 0
	}
	return float64(r.Events) / r.MB
}

// peakRSSMB is the process's ru_maxrss. Linux folds the parent's peak at
// exec time into it; the harness parent holds nothing (the host-speed
// probe's arena lives in a child of its own) and stays far below any
// workload.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kB on Linux
}

// childMain runs one execution and prints its rep as one JSON line.
func childMain(root, arg string) int {
	var a childArgs
	if err := json.Unmarshal([]byte(arg), &a); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child: bad arguments:", err)
		return 2
	}
	r := runChild(root, a)
	if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 2
	}
	return 0
}

func runChild(root string, a childArgs) (r rep) {
	r.Seed = a.Seed
	defer func() {
		if p := recover(); p != nil {
			r.Err = fmt.Sprintf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	if a.Probe {
		r.ProbeNs = hostProbe()
		return r
	}
	if a.DriverMs > 0 {
		r.Drivers = runDrivers(root, time.Duration(a.DriverMs)*time.Millisecond)
		return r
	}
	w, ok := findWorkload(a.Workload)
	if !ok {
		r.Err = "unknown workload " + a.Workload
		return r
	}
	timed, err := w.prepare(root, a.Seed, variant{reference: a.Reference, scale: a.Scale})
	if err != nil {
		r.Err = err.Error()
		return r
	}
	var prof bytes.Buffer
	if a.Profile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			r.Err = err.Error()
			return r
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	r.SetupS = float64(t0.UnixNano()-a.SpawnedNs) / 1e9

	out, err := timed()

	r.WallS = time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	if a.Profile {
		pprof.StopCPUProfile()
	}
	if err != nil {
		r.Err = err.Error()
		return r
	}
	r.outcome = out
	r.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	r.AllocsK = float64(m1.Mallocs-m0.Mallocs) / 1e3
	r.PeakRSSMB = peakRSSMB()
	if a.Profile {
		if r.CPU, err = attributeProfile(prof.Bytes()); err != nil {
			r.Err = "profile: " + err.Error()
		}
	}
	return r
}
