package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// The traced run's spans are CPU-profile samples: the harness may not add
// spans inside the program, so it profiles the timed region from outside
// and attributes each sample, flat, to the package of its leaf function.
// runtime/pprof writes a gzipped profile.proto; the few fields needed are
// decoded here with the standard library alone.

// attributeProfile returns the share of CPU samples per layer, in
// percent, under the per-layer metric names. The shares sum to 100.
func attributeProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	weights := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		stack := p.stack(s.locs)
		if len(stack) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1]) // cpu/nanoseconds
		weights[classify(stack)] += v
		total += v
	}
	if total == 0 {
		return nil, fmt.Errorf("profile holds no samples")
	}
	out := map[string]float64{}
	for _, d := range cpuDefs {
		if !strings.HasPrefix(d.name, "trace.") {
			out[d.name] = 100 * weights[d.name] / total
		}
	}
	return out, nil
}

// classify maps a stack (leaf first) to the per-layer metric it counts
// under. Repo packages map to their layer; the runtime is split by what
// it was doing, read off the frames above the leaf.
func classify(stack []string) string {
	pkg := packageOf(stack[0])
	switch {
	case pkg == "cebinae/experiments":
		return "experiments.cpu_pct"
	case strings.HasPrefix(pkg, "cebinae/internal/"):
		layer := strings.TrimPrefix(pkg, "cebinae/internal/")
		for _, l := range cpuLayers {
			if l == layer {
				return l + ".cpu_pct"
			}
		}
		return "other.cpu_pct"
	case isRuntime(pkg):
		switch {
		case anyFrame(stack, gcFrames):
			return "runtime.gc_pct"
		case anyFrame(stack, mallocFrames):
			return "runtime.malloc_pct"
		case anyFrame(stack, schedFrames):
			return "runtime.sched_pct"
		}
		return "runtime.other_pct"
	}
	return "other.cpu_pct"
}

// isRuntime also takes the runtime's assembly bodies (aeshashbody,
// memeqbody, gcWriteBarrier…), whose symbol names carry no package.
func isRuntime(pkg string) bool {
	return !strings.Contains(pkg, ".") && !strings.Contains(pkg, "/") && pkg != "main" ||
		pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/") ||
		pkg == "internal/bytealg" || pkg == "internal/abi" || pkg == "internal/cpu"
}

// Frame-name prefixes that say what the runtime was doing. Collection is
// tested first: an allocation that is drafted into a mark assist is
// collector time.
var (
	gcFrames = []string{
		"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
		"runtime.(*sweepLocked)", "runtime.scanobject", "runtime.markroot",
		"runtime.wbBufFlush", "runtime.(*gcWork)", "runtime.(*mheap).reclaim",
	}
	mallocFrames = []string{"runtime.mallocgc", "runtime.growslice", "runtime.makeslice", "runtime.newobject"}
	// Parking, waking and lock hand-off: where a shard waiting at a
	// barrier or an idle fleet worker shows up.
	schedFrames = []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.gopark",
		"runtime.goready", "runtime.ready", "runtime.mcall", "runtime.futex",
		"runtime.notesleep", "runtime.notewakeup", "runtime.notetsleep", "runtime.sema",
		"runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.usleep",
		"runtime.osyield", "runtime.lock2", "runtime.unlock2", "runtime.chansend",
		"runtime.chanrecv", "runtime.selectgo", "runtime.sysmon", "runtime.goschedImpl",
	}
)

func anyFrame(stack, prefixes []string) bool {
	for _, f := range stack {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) {
				return true
			}
		}
	}
	return false
}

// packageOf returns the import path of a Go symbol name such as
// "cebinae/internal/sim.(*Engine).Run": everything before the first dot
// after the last slash.
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// profile is the decoded subset of profile.proto.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → name's string-table index
	strings   []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// stack resolves location ids (leaf first) to function names, expanding
// inlined frames.
func (p *profile) stack(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, fid := range p.locations[l] {
			if idx := p.functions[fid]; idx >= 0 && int(idx) < len(p.strings) {
				out = append(out, p.strings[idx])
			}
		}
	}
	return out
}

// Field numbers of profile.proto.
const (
	profSample, profLocation, profFunction, profStringTable = 2, 4, 5, 6
	sampleLocationID, sampleValue                           = 1, 2
	locationID, locationLine                                = 1, 4
	lineFunctionID                                          = 1
	functionID, functionName                                = 1, 2
)

func parseProfile(raw []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(raw, func(field int, varint uint64, body []byte) error {
		switch field {
		case profSample:
			var s sample
			err := eachField(body, func(f int, v uint64, b []byte) error {
				switch f {
				case sampleLocationID:
					s.locs = appendVarints(s.locs, v, b)
				case sampleValue:
					for _, u := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(body, func(f int, v uint64, b []byte) error {
				switch f {
				case locationID:
					id = v
				case locationLine:
					return eachField(b, func(lf int, lv uint64, _ []byte) error {
						if lf == lineFunctionID {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(body, func(f int, v uint64, _ []byte) error {
				switch f {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case profStringTable:
			p.strings = append(p.strings, string(body))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated integer field's payload: one value
// when it arrived unpacked (body nil), all of them when packed.
func appendVarints(dst []uint64, varint uint64, body []byte) []uint64 {
	if body == nil {
		return append(dst, varint)
	}
	for len(body) > 0 {
		v, n := binary.Uvarint(body)
		if n <= 0 {
			break
		}
		dst = append(dst, v)
		body = body[n:]
	}
	return dst
}

// eachField walks one protobuf message, handing each field to fn as a
// varint (body nil) or a length-delimited body. Fixed-width fields are
// skipped; profile.proto has none we read.
func eachField(msg []byte, fn func(field int, varint uint64, body []byte) error) error {
	for len(msg) > 0 {
		tag, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("profile: bad field tag")
		}
		msg = msg[n:]
		field, wire := int(tag>>3), tag&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint in field %d", field)
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("profile: short fixed64 in field %d", field)
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("profile: bad length in field %d", field)
			}
			body := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, body); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("profile: short fixed32 in field %d", field)
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}
