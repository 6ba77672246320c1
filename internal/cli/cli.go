// Package cli holds what the command-line tools under cmd/ share: the
// syntax of the -flows / -rtt flags, pprof start/stop, and the fatal exit.
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

	"cebinae/internal/scenario"
)

// Fatal prints err prefixed with the program's name and exits 1. os.Exit
// skips deferred calls: stop profiles (StartProfiles) before calling it.
func Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", filepath.Base(os.Args[0]), err)
	os.Exit(1)
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
