package core_test

import (
	"testing"
	"testing/quick"

	"cebinae/internal/core"
	"cebinae/internal/netem"
	"cebinae/internal/packet"
	"cebinae/internal/qdisc"
	"cebinae/internal/sim"
)

// TestConservationInvariant: under arbitrary offered loads, every packet
// offered to the Cebinae qdisc is either transmitted, still queued, or
// counted in exactly one drop counter — and byte/length gauges end
// consistent. This is the data plane's bookkeeping safety net.
func TestConservationInvariant(t *testing.T) {
	f := func(seed uint64, ratePct8 uint8, nFlows8 uint8) bool {
		offeredPct := 20 + int(ratePct8)%200 // 20%–220% of capacity
		nFlows := 1 + int(nFlows8)%8

		eng := sim.NewEngine()
		w := netem.NewNetwork(eng)
		src, dst := w.NewNode("src"), w.NewNode("dst")
		const capacity = 100e6
		buf := 96 * 1500
		dev, rev := w.Connect(src, dst, netem.LinkConfig{RateBps: capacity, Delay: sim.Duration(1e6)})
		params := core.Params{
			DeltaPort: 0.01, DeltaFlow: 0.05, Tau: 0.02,
			P: 2, L: 1 << 14, DT: 1 << 24, VDT: 1 << 16,
			MarkECN: true, CacheStages: 2, CacheSlots: 128,
		}
		cq := core.New(eng, capacity, buf, params)
		cq.OnDrain = dev.Kick
		dev.SetQdisc(cq)
		rev.SetQdisc(qdisc.NewFIFO(1 << 20))
		src.AddRoute(dst.ID, dev)

		rng := sim.NewRand(seed)
		var offered uint64
		perFlow := float64(offeredPct) / 100 * capacity / float64(nFlows)
		for i := 0; i < nFlows; i++ {
			key := packet.FlowKey{Src: src.ID, Dst: dst.ID, SrcPort: uint16(i), DstPort: 80, Proto: packet.ProtoTCP}
			// Jittered CBR: break synchronisation between flows.
			var tick func()
			gap := sim.Time(1500 * 8 / perFlow * 1e9)
			tick = func() {
				src.Inject(&packet.Packet{Flow: key, Size: 1500, PayloadSize: 1448})
				offered++
				j := sim.Time(rng.Float64() * float64(gap) * 0.2)
				eng.ScheduleCall(gap+j-gap/10, sim.Func(tick), nil)
			}
			eng.AtCall(sim.Time(rng.Intn(1000))*1000, sim.Func(tick), nil)
		}
		eng.Run(sim.Duration(1e9))

		st := cq.Stats
		accounted := st.TxPackets + uint64(cq.Len()) + st.BufferDrops + st.LBFDrops
		if accounted != offered {
			t.Logf("seed=%d offered=%d accounted=%d (tx=%d len=%d bufD=%d lbfD=%d)",
				seed, offered, accounted, st.TxPackets, cq.Len(), st.BufferDrops, st.LBFDrops)
			return false
		}
		if cq.Len() < 0 || cq.BytesQueued() < 0 {
			return false
		}
		if cq.Len() == 0 && cq.BytesQueued() != 0 {
			return false
		}
		// Transmitted bytes can never exceed line rate × time (+1 MTU
		// serialisation slop).
		if float64(st.TxBytes) > capacity/8*1.0+1500 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestConservationInvariantPerFlowMode: the same bookkeeping holds with
// the §7 per-flow-⊤ extension enabled.
func TestConservationInvariantPerFlowMode(t *testing.T) {
	eng := sim.NewEngine()
	w := netem.NewNetwork(eng)
	src, dst := w.NewNode("src"), w.NewNode("dst")
	const capacity = 100e6
	buf := 96 * 1500
	dev, rev := w.Connect(src, dst, netem.LinkConfig{RateBps: capacity, Delay: sim.Duration(1e6)})
	params := core.Params{
		DeltaPort: 0.01, DeltaFlow: 0.5, Tau: 0.05,
		P: 2, L: 1 << 14, DT: 1 << 24, VDT: 1 << 16,
		MarkECN: true, PerFlowTop: true, CacheStages: 2, CacheSlots: 128,
	}
	cq := core.New(eng, capacity, buf, params)
	cq.OnDrain = dev.Kick
	dev.SetQdisc(cq)
	rev.SetQdisc(qdisc.NewFIFO(1 << 20))
	src.AddRoute(dst.ID, dev)

	var offered uint64
	for i := 0; i < 3; i++ {
		key := packet.FlowKey{Src: src.ID, Dst: dst.ID, SrcPort: uint16(i), DstPort: 80, Proto: packet.ProtoTCP}
		rate := 45e6
		var tick func()
		gap := sim.Time(1500 * 8 / rate * 1e9)
		tick = func() {
			src.Inject(&packet.Packet{Flow: key, Size: 1500, PayloadSize: 1448})
			offered++
			eng.ScheduleCall(gap, sim.Func(tick), nil)
		}
		eng.AtCall(sim.Time(i)*777, sim.Func(tick), nil)
	}
	eng.Run(sim.Duration(2e9))

	st := cq.Stats
	accounted := st.TxPackets + uint64(cq.Len()) + st.BufferDrops + st.LBFDrops
	if accounted != offered {
		t.Fatalf("per-flow mode leaks packets: offered=%d accounted=%d (%+v len=%d)",
			offered, accounted, st, cq.Len())
	}
}
