// Package monitor provides periodic samplers for simulation observability:
// queue depths, device throughput, and Cebinae control-plane state over
// time. Experiments use it for the time-series figures; it is also the
// debugging lens for new scenarios.
package monitor

import (
	"fmt"
	"strings"

	"cebinae/internal/core"
	"cebinae/internal/netem"
	"cebinae/internal/sim"
)

// Sample is one observation row.
type Sample struct {
	At sim.Time
	// QueueBytes / QueuePackets snapshot the watched qdisc.
	QueueBytes   int
	QueuePackets int
	// TxBps is the device's throughput since the previous sample.
	TxBps float64
	// DropPerSec is the device+qdisc drop rate since the previous sample.
	DropPerSec float64
	// Cebinae state (zero for other disciplines).
	Saturated bool
	TopFlows  int
	LBFDrops  uint64
	Delayed   uint64
}

// Monitor samples one device (and its qdisc) at a fixed interval.
type Monitor struct {
	eng      *sim.Engine
	dev      *netem.Device
	ceb      *core.Qdisc // nil unless the device runs Cebinae
	interval sim.Time

	lastTxBytes uint64
	lastDrops   uint64
	Samples     []Sample
	stopped     bool
	timer       sim.Timer
}

// monitorTick is the sampling-timer handler (named pointer type over
// Monitor: re-arming each period allocates nothing).
type monitorTick Monitor

func (h *monitorTick) OnEvent(any) { (*Monitor)(h).sample() }

// Watch starts sampling dev every interval. If the device's qdisc is a
// Cebinae instance its control-plane state is captured too.
func Watch(eng *sim.Engine, dev *netem.Device, interval sim.Time) *Monitor {
	m := &Monitor{eng: eng, dev: dev, interval: interval}
	if cq, ok := dev.Qdisc().(*core.Qdisc); ok {
		m.ceb = cq
	}
	// Pinned: sample instants are measurement epochs the fluid
	// fast-forward layer must stop at, so every sample reads counters
	// advanced exactly to its own instant.
	eng.ArmPinnedTimer(&m.timer, interval, (*monitorTick)(m), nil)
	return m
}

func (m *Monitor) sample() {
	if m.stopped {
		return
	}
	st := m.dev.Stats()
	tx, drops := st.TxBytes, st.DropPackets
	s := Sample{
		At:           m.eng.Now(),
		QueueBytes:   m.dev.Qdisc().BytesQueued(),
		QueuePackets: m.dev.Qdisc().Len(),
		TxBps:        float64(tx-m.lastTxBytes) * 8 / m.interval.Seconds(),
		DropPerSec:   float64(drops-m.lastDrops) / m.interval.Seconds(),
	}
	m.lastTxBytes = tx
	m.lastDrops = drops
	if m.ceb != nil {
		s.Saturated = m.ceb.Saturated()
		s.TopFlows = len(m.ceb.TopFlows())
		s.LBFDrops = m.ceb.Stats.LBFDrops
		s.Delayed = m.ceb.Stats.Delayed
	}
	m.Samples = append(m.Samples, s)
	m.eng.ArmPinnedTimer(&m.timer, m.interval, (*monitorTick)(m), nil)
}

// Stop ends sampling.
func (m *Monitor) Stop() { m.stopped = true }

// PeakQueueBytes returns the maximum observed backlog.
func (m *Monitor) PeakQueueBytes() int {
	peak := 0
	for _, s := range m.Samples {
		if s.QueueBytes > peak {
			peak = s.QueueBytes
		}
	}
	return peak
}

// MeanUtilisation returns average TxBps divided by the link rate.
func (m *Monitor) MeanUtilisation() float64 {
	if len(m.Samples) == 0 {
		return 0
	}
	var sum float64
	for _, s := range m.Samples {
		sum += s.TxBps
	}
	return sum / float64(len(m.Samples)) / m.dev.Rate()
}

// SaturatedFraction returns the fraction of samples in the saturated phase.
func (m *Monitor) SaturatedFraction() float64 {
	if len(m.Samples) == 0 {
		return 0
	}
	n := 0
	for _, s := range m.Samples {
		if s.Saturated {
			n++
		}
	}
	return float64(n) / float64(len(m.Samples))
}

// Render prints the sample table.
func (m *Monitor) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s | %10s | %8s | %9s | %4s | %4s\n", "t", "tx[Mbps]", "queue[B]", "drops/s", "sat", "⊤")
	for _, s := range m.Samples {
		sat := " "
		if s.Saturated {
			sat = "*"
		}
		fmt.Fprintf(&b, "%10v | %10.2f | %8d | %9.1f | %4s | %4d\n",
			s.At, s.TxBps/1e6, s.QueueBytes, s.DropPerSec, sat, s.TopFlows)
	}
	return b.String()
}
