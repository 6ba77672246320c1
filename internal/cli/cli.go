// Package cli holds what the command-line tools under cmd/ share: the flag
// vocabulary of a dumbbell scenario (bandwidth, flow groups, RTTs), pprof
// start/stop, and the fatal exit.
package cli

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"cebinae/experiments"
	"cebinae/internal/scenario"
	"cebinae/internal/tcp"
)

// Fatal prints err prefixed with the program's name and exits 1. os.Exit
// skips deferred calls: stop profiles (StartProfiles) before calling it.
func Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", filepath.Base(os.Args[0]), err)
	os.Exit(1)
}

// ParseBandwidth reads a -bw flag: a positive bit rate in the scenario
// files' rate syntax ("100M", "2.5G", "250K", or plain bits per second).
func ParseBandwidth(s string) (float64, error) {
	v, err := scenario.ParseRate(s)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("bad bandwidth %q", s)
	}
	return float64(v), nil
}

// ParseGroups reads a -flows / -rtt flag pair: a comma list of cca[:count]
// groups (a bare name is one flow) of known CCAs and a comma list of base
// RTTs no shorter than experiments.MinRTT, at most one per group; a short
// RTT list applies its first value to the groups it does not reach.
func ParseGroups(flows, rtts string) ([]experiments.FlowGroup, error) {
	var groups []experiments.FlowGroup
	for _, part := range strings.Split(flows, ",") {
		cc, cnt, ok := strings.Cut(strings.TrimSpace(part), ":")
		n := 1
		if ok {
			v, err := strconv.Atoi(cnt)
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("bad flow group %q", part)
			}
			n = v
		}
		if _, ok := tcp.NewCC(cc); !ok {
			return nil, fmt.Errorf("unknown CCA %q in flow group %q (known: %s)", cc, part, strings.Join(tcp.CCNames(), ", "))
		}
		groups = append(groups, experiments.FlowGroup{CC: cc, Count: n})
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
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("bad rtt %q", sel)
		}
		groups[i].RTT = experiments.SimTime(d.Nanoseconds())
		if groups[i].RTT < experiments.MinRTT {
			return nil, fmt.Errorf("-rtt %v: below the dumbbell's %v floor (twice its bottleneck delay)", d, time.Duration(experiments.MinRTT))
		}
	}
	return groups, nil
}

// StartProfiles begins CPU profiling and arranges a heap snapshot at stop
// (either path may be empty); the returned function flushes both and must
// run before any os.Exit.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
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
		if memPath != "" {
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
		}
		return nil
	}, nil
}
