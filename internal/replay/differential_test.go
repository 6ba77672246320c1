package replay

// The differential test validates the replay abstraction against the exact
// substrate it substitutes for: full TCP senders over the same topology and
// the same flow mix must see statistically matched switch-side arrivals.
// This is the DiffServ experimental-vs-simulated methodology in miniature —
// the lightweight model earns its place by agreeing with the heavyweight
// one where they overlap, so the backbone tiers (where TCP is unaffordable)
// inherit credibility from the small scale (where it is not).

import (
	"testing"

	"cebinae/internal/packet"
	"cebinae/internal/sim"
	"cebinae/internal/tcp"
	"cebinae/internal/trace"
)

// diffFlows is the shared flow mix: two elephants among a crowd of mice,
// staggered starts, all sized to finish within the window at fair share.
var diffFlows = []struct {
	port  uint32
	bytes int64
	start sim.Time
}{
	{1, 6e6, 0},
	{2, 6e6, sim.Time(10e6)},
	{3, 400e3, sim.Time(20e6)},
	{4, 400e3, sim.Time(120e6)},
	{5, 400e3, sim.Time(320e6)},
	{6, 400e3, sim.Time(520e6)},
}

const (
	diffBottleneckBps = 100e6
	diffBufBytes      = 64 * 1500
	diffHorizon       = sim.Time(2e9)
)

// coreMix tallies per-flow bytes observed leaving the bottleneck — the
// switch-side arrival statistic both senders are compared on.
type coreMix struct {
	bytes map[uint16]uint64 // by source port
	total uint64
}

func (m *coreMix) observe(p *packet.Packet) {
	if p.PayloadSize > 0 && p.Flow.SrcPort != 0 {
		m.bytes[p.Flow.SrcPort] += uint64(p.Size)
		m.total += uint64(p.Size)
	}
}

func (m *coreMix) elephantShare() float64 {
	if m.total == 0 {
		return 0
	}
	return float64(m.bytes[1]+m.bytes[2]) / float64(m.total)
}

func runDiffTCP(t *testing.T) (*coreMix, uint64) {
	t.Helper()
	c := buildChain(diffBottleneckBps, diffBufBytes)
	mix := &coreMix{bytes: map[uint16]uint64{}}
	c.bottleneck.OnTransmit = mix.observe
	for i, f := range diffFlows {
		key := packet.FlowKey{Src: c.src.ID, Dst: c.dst.ID, SrcPort: uint16(f.port), DstPort: 9000 + uint16(f.port), Proto: packet.ProtoTCP}
		cc, ok := tcp.NewCC("newreno")
		if !ok {
			t.Fatal("newreno not registered")
		}
		tcp.NewConn(c.eng, c.src, tcp.Config{Key: key, CC: cc, DataLimit: f.bytes, StartAt: f.start, Seed: uint64(i + 1)})
		tcp.NewReceiver(c.eng, c.dst, tcp.ReceiverConfig{Key: key})
	}
	c.eng.RunUntil(diffHorizon)
	return mix, c.bottleneck.Stats().DropPackets
}

func runDiffReplay(t *testing.T) (*coreMix, uint64) {
	t.Helper()
	c := buildChain(diffBottleneckBps, diffBufBytes)
	mix := &coreMix{bytes: map[uint16]uint64{}}
	c.bottleneck.OnTransmit = mix.observe
	// Schedule each flow above its fair share — TCP probes past capacity
	// and the replay schedule must too, or the bottleneck never fills.
	// The closed loop, not the schedule, is what keeps the mix honest
	// under the resulting contention.
	fairBps := diffBottleneckBps / 2
	var schedule []trace.FlowSpec
	for _, f := range diffFlows {
		schedule = append(schedule, trace.FlowSpec{
			At:       f.start,
			Bytes:    f.bytes,
			Lifetime: sim.Time(float64(f.bytes*8) / fairBps * 1e9),
			Key:      packet.FlowKey{SrcPort: uint16(f.port), DstPort: 9000 + uint16(f.port), Proto: packet.ProtoTCP},
		})
	}
	NewSource(c.src, schedule, Config{To: c.dst.ID, ClosedLoop: true, PacketBytes: 1500})
	NewSink(c.dst, SinkConfig{ClosedLoop: true})
	c.eng.RunUntil(diffHorizon)
	return mix, c.bottleneck.Stats().DropPackets
}

func TestReplayMatchesTCPAtTheSwitch(t *testing.T) {
	tcpMix, tcpDrops := runDiffTCP(t)
	repMix, repDrops := runDiffReplay(t)

	if tcpMix.total == 0 || repMix.total == 0 {
		t.Fatalf("empty runs: tcp=%d replay=%d", tcpMix.total, repMix.total)
	}
	// Both senders must actually stress the bottleneck (drops observed).
	if tcpDrops == 0 {
		t.Fatal("TCP run saw no drops; the comparison needs contention")
	}
	if repDrops == 0 {
		t.Fatal("replay run saw no drops; the comparison needs contention")
	}
	// Aggregate bytes through the switch agree within 25%.
	ratio := float64(repMix.total) / float64(tcpMix.total)
	if ratio < 0.75 || ratio > 1.25 {
		t.Fatalf("switch-side volume mismatch: replay/TCP = %.3f (tcp=%d replay=%d)", ratio, tcpMix.total, repMix.total)
	}
	// The elephant/mice byte mix agrees within 15 points.
	ts, rs := tcpMix.elephantShare(), repMix.elephantShare()
	if d := ts - rs; d < -0.15 || d > 0.15 {
		t.Fatalf("elephant byte share diverges: tcp %.3f vs replay %.3f", ts, rs)
	}
	// Every flow the TCP run carried shows up in the replay run too.
	for port := range tcpMix.bytes {
		if repMix.bytes[port] == 0 {
			t.Fatalf("flow on port %d missing from replay run", port)
		}
	}
}
