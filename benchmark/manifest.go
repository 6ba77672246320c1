package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// manifest stamps a saved run with what actually ran it.
type manifest struct {
	Commit string `json:"commit"`
	// GoVersion is the toolchain that built the harness, which can differ
	// from the go line of go.mod.
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Seed       uint64 `json:"seed"`
	Repeats    int    `json:"repeats"`
	// Degraded marks a host with fewer than two cores: the sharded and
	// fleet workloads then measure time-slicing, not parallelism.
	Degraded bool    `json:"degraded"`
	Started  string  `json:"started"`
	WallS    float64 `json:"wall_s"`
	// Claim is always null: this benchmark defines the instrument and
	// claims no gain.
	Claim *string `json:"claim"`
}

func newManifest(root string, seed uint64, repeats int) manifest {
	return manifest{
		Commit:     commitOf(root),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: procs(),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Seed:       seed,
		Repeats:    repeats,
		Degraded:   runtime.NumCPU() < 2,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

// commitOf asks the build info first (set when built inside a git work
// tree), then git; a checkout without history reports "unknown".
func commitOf(root string) string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
