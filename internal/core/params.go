// Package core implements Cebinae — the paper's contribution: a per-router
// mechanism that continuously pushes each saturated link's allocation
// towards max-min fairness by (1) detecting port saturation from egress byte
// counters, (2) classifying the locally-bottlenecked (maximal-rate) flows
// with a heavy-hitter cache, and (3) taxing those flows a fraction τ of
// their bandwidth through an approximated two-queue leaky-bucket filter,
// releasing headroom that unbottlenecked flows can claim.
//
// The implementation mirrors the paper's NS-3 traffic-control module: the
// data plane (LBF + counters) lives in a queue discipline attached to a
// simulated device, and the control-plane agent runs as periodic simulation
// events respecting the dT/vdT/L real-time schedule of Fig. 6.
package core

import (
	"fmt"

	"cebinae/internal/sim"
)

// Params are Cebinae's configurable parameters (paper Table 1).
type Params struct {
	// DeltaPort (δp) is the port-saturation threshold: a port is saturated
	// when its utilisation over the last recomputation period is at least
	// (1 − δp) of capacity.
	DeltaPort float64
	// DeltaFlow (δf) is the bottleneck-flow threshold: flows within δf of
	// the maximum flow's byte count are classified ⊤ (bottlenecked).
	DeltaFlow float64
	// Tau (τ) is the tax rate applied to the aggregate bottlenecked-flow
	// bandwidth each recomputation.
	Tau float64
	// P is the number of dT rounds between utilisation/rate
	// recomputations.
	P int
	// L is the control-plane reconfiguration deadline after each rotation.
	L sim.Time
	// DT is the physical-bucket (queue round) duration; must be a power of
	// two in nanoseconds and satisfy the buffer constraint of Eq. 2.
	DT sim.Time
	// VDT is the virtual-bucket duration (power of two, VDT < DT); it
	// bounds catch-up bursts within a round.
	VDT sim.Time
	// MarkECN makes the LBF set CE on ECN-capable packets that it delays
	// into the lower-priority queue (the paper's pre-loss congestion
	// signal for delay/ECN-based CCAs).
	MarkECN bool
	// PerFlowTop enables the §7 extension: each bottlenecked flow gets its
	// own taxed allowance instead of sharing one aggregate ⊤ allowance —
	// stronger isolation between ⊤ flows at the cost of the aggregate's
	// statistical multiplexing headroom.
	PerFlowTop bool

	// CacheStages and CacheSlots size the heavy-hitter flow cache.
	CacheStages int
	CacheSlots  int
}

// DefaultParams returns the paper's robust defaults (δp = δf = τ = 1%) with
// dT derived from the port's buffer and capacity per Eq. 2
// (dT ≥ buffer/BW + vdT + L) and P sized to cover maxRTT.
func DefaultParams(capacityBps float64, bufferBytes int, maxRTT sim.Time) Params {
	p := Params{
		DeltaPort:   0.01,
		DeltaFlow:   0.01,
		Tau:         0.01,
		L:           sim.Duration(20e3), // 20 µs
		VDT:         1 << 16,            // ~65.5 µs
		MarkECN:     true,
		CacheStages: 2,
		CacheSlots:  2048,
	}
	minDT := sim.Time(float64(bufferBytes*8)/capacityBps*1e9) + p.VDT + p.L
	p.DT = nextPow2(minDT)
	if p.DT < 1<<21 { // ≥ ~2 ms keeps rotation overhead sane
		p.DT = 1 << 21
	}
	p.P = int((maxRTT + p.DT - 1) / p.DT)
	if p.P < 1 {
		p.P = 1
	}
	return p
}

// Validate checks structural constraints (power-of-two buckets, Eq. 2 and
// the L ≤ dT − vdT scheduling bound).
func (p Params) Validate(capacityBps float64, bufferBytes int) error {
	if p.DT <= 0 || p.DT&(p.DT-1) != 0 {
		return fmt.Errorf("core: dT (%v) must be a positive power of two", p.DT)
	}
	if p.VDT <= 0 || p.VDT&(p.VDT-1) != 0 || p.VDT >= p.DT {
		return fmt.Errorf("core: vdT (%v) must be a positive power of two below dT (%v)", p.VDT, p.DT)
	}
	if p.L < 0 || p.L > p.DT-p.VDT {
		return fmt.Errorf("core: L (%v) must lie in [0, dT−vdT] = [0, %v]", p.L, p.DT-p.VDT)
	}
	if p.DeltaPort <= 0 || p.DeltaPort > 1 || p.DeltaFlow < 0 || p.DeltaFlow > 1 || p.Tau < 0 || p.Tau > 1 {
		return fmt.Errorf("core: δp must lie in (0,1], δf and τ in [0,1]: δp=%v δf=%v τ=%v", p.DeltaPort, p.DeltaFlow, p.Tau)
	}
	if p.P < 1 {
		return fmt.Errorf("core: P (%d) must be ≥ 1", p.P)
	}
	// Eq. 2: (dT − (vdT + L)) · BW ≥ buffer.
	if got := (p.DT - p.VDT - p.L).Seconds() * capacityBps / 8; got < float64(bufferBytes) {
		return fmt.Errorf("core: Eq.2 violated: (dT−vdT−L)·BW = %.0f bytes < buffer %d bytes", got, bufferBytes)
	}
	if p.CacheStages < 1 || p.CacheSlots < 1 || p.CacheSlots&(p.CacheSlots-1) != 0 {
		return fmt.Errorf("core: cache must have ≥1 stages and power-of-two slots")
	}
	return nil
}

func nextPow2(v sim.Time) sim.Time {
	p := sim.Time(1)
	for p < v {
		p <<= 1
	}
	return p
}
