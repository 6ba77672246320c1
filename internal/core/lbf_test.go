package core_test

import (
	"testing"

	"cebinae/internal/core"
	"cebinae/internal/netem"
	"cebinae/internal/packet"
	"cebinae/internal/qdisc"
	"cebinae/internal/sim"
)

// cbr injects fixed-size packets for one flow at a constant bit rate.
type cbr struct {
	eng   *sim.Engine
	node  *netem.Node
	key   packet.FlowKey
	bps   float64
	size  int32
	ecn   bool
	Sent  uint64
	timer sim.Timer
}

func startCBR(eng *sim.Engine, node *netem.Node, key packet.FlowKey, bps float64, ecn bool) *cbr {
	c := &cbr{eng: eng, node: node, key: key, bps: bps, size: 1500, ecn: ecn}
	c.tick()
	return c
}

func (c *cbr) tick() {
	p := &packet.Packet{Flow: c.key, Size: c.size, PayloadSize: c.size - packet.HeaderBytes}
	if c.ecn {
		p.ECN = packet.ECNECT
	}
	c.node.Inject(p)
	c.Sent++
	gap := sim.Time(float64(c.size*8) / c.bps * 1e9)
	c.eng.ArmTimer(&c.timer, gap, sim.Func(c.tick), nil)
}

func (c *cbr) stop() { c.eng.StopTimer(&c.timer) }

// rig is a one-link testbed: src --[capacity, Cebinae]--> dst with counting
// sinks per flow.
type rig struct {
	eng   *sim.Engine
	src   *netem.Node
	dst   *netem.Node
	dev   *netem.Device
	ceb   *core.Qdisc
	rx    map[packet.FlowKey]*uint64
	rxAll uint64
}

type countSink struct {
	n   *uint64
	all *uint64
}

func (s countSink) Deliver(p *packet.Packet) { *s.n++; *s.all++ }

func buildRig(t *testing.T, capacityBps float64, buffer int, params core.Params) *rig {
	t.Helper()
	eng := sim.NewEngine()
	w := netem.NewNetwork(eng)
	src, dst := w.NewNode("src"), w.NewNode("dst")
	dev, rev := w.Connect(src, dst, netem.LinkConfig{RateBps: capacityBps, Delay: sim.Duration(100e3)})
	ceb := core.New(eng, capacityBps, buffer, params)
	dev.SetQdisc(ceb)
	ceb.OnDrain = dev.Kick
	rev.SetQdisc(qdisc.NewFIFO(1 << 20))
	src.AddRoute(dst.ID, dev)
	return &rig{eng: eng, src: src, dst: dst, dev: dev, ceb: ceb, rx: map[packet.FlowKey]*uint64{}}
}

func (r *rig) flowKey(i int) packet.FlowKey {
	key := packet.FlowKey{Src: r.src.ID, Dst: r.dst.ID, SrcPort: uint16(i), DstPort: 80, Proto: packet.ProtoTCP}
	if _, ok := r.rx[key]; !ok {
		var n uint64
		r.rx[key] = &n
		r.dst.Register(key, countSink{&n, &r.rxAll})
	}
	return key
}

// testParams builds small-round parameters for a fast 200 Mbps rig.
func testParams() core.Params {
	return core.Params{
		DeltaPort:   0.01,
		DeltaFlow:   0.01,
		Tau:         0.05,
		P:           2,
		L:           1 << 14, // ~16 µs
		DT:          1 << 22, // ~4.2 ms
		VDT:         1 << 16,
		MarkECN:     true,
		CacheStages: 2,
		CacheSlots:  256,
	}
}

const rigBps = 200e6
const rigBuffer = 64 * 1500 // well within Eq.2 for dT ≈ 4.2 ms at 200 Mbps

func TestUnsaturatedPassThrough(t *testing.T) {
	r := buildRig(t, rigBps, rigBuffer, testParams())
	// 40 Mbps on a 200 Mbps link: far below saturation.
	g := startCBR(r.eng, r.src, r.flowKey(1), 40e6, false)
	r.eng.Run(sim.Duration(1e9))
	g.stop()
	if r.ceb.Saturated() {
		t.Fatal("port must stay unsaturated at 20% load")
	}
	if got := len(r.ceb.TopFlows()); got != 0 {
		t.Fatalf("no flow may be classified ⊤ on an unsaturated port: %d", got)
	}
	if r.ceb.Stats.LBFDrops != 0 || r.ceb.Stats.BufferDrops != 0 {
		t.Fatalf("no drops expected: %+v", r.ceb.Stats)
	}
	if lost := g.Sent - r.rxAll; lost > 2 {
		t.Fatalf("pass-through lost %d packets", lost)
	}
}

func TestSaturationDetectionAndTopClassification(t *testing.T) {
	r := buildRig(t, rigBps, rigBuffer, testParams())
	big := r.flowKey(1)
	small := r.flowKey(2)
	startCBR(r.eng, r.src, big, 150e6, false)
	startCBR(r.eng, r.src, small, 60e6, false)
	// Blind CBR flows never "reclaim" released capacity the way TCP does,
	// so the saturated phase flaps as taxes bite and release; sample the ⊤
	// classification across rounds rather than at one instant.
	bigTop, smallTop, satSamples := 0, 0, 0
	for i := 1; i <= 100; i++ {
		r.eng.AtCall(sim.Time(i)*sim.Duration(10e6), sim.Func(func() {
			if r.ceb.Saturated() {
				satSamples++
			}
			for _, f := range r.ceb.TopFlows() {
				if f == big {
					bigTop++
				}
				if f == small {
					smallTop++
				}
			}
		}), nil)
	}
	r.eng.Run(sim.Duration(1e9))
	if satSamples < 20 {
		t.Fatalf("210 Mbps offered on 200 Mbps must spend substantial time saturated: %d/100", satSamples)
	}
	if bigTop < 20 {
		t.Fatalf("the 150 Mbps flow must be classified ⊤ while saturated: %d/100", bigTop)
	}
	if smallTop > bigTop/4 {
		t.Fatalf("the 60 Mbps flow must (almost) never be ⊤: big=%d small=%d", bigTop, smallTop)
	}
}

func TestTieredFlowsBothTop(t *testing.T) {
	p := testParams()
	p.DeltaFlow = 0.1 // flows within 10% of max are ⊤
	r := buildRig(t, rigBps, rigBuffer, p)
	startCBR(r.eng, r.src, r.flowKey(1), 105e6, false)
	startCBR(r.eng, r.src, r.flowKey(2), 100e6, false)
	both, one := 0, 0
	for i := 1; i <= 100; i++ {
		r.eng.AtCall(sim.Time(i)*sim.Duration(10e6), sim.Func(func() {
			switch len(r.ceb.TopFlows()) {
			case 2:
				both++
			case 1:
				one++
			}
		}), nil)
	}
	r.eng.Run(sim.Duration(1e9))
	if both < 10 || both < one {
		t.Fatalf("with δf=10%% the two near-equal flows should usually be ⊤ together: both=%d one=%d", both, one)
	}
}

// TestBlindOverloadIsPenalised: a single blind (non-congestion-controlled)
// CBR flow exceeding capacity is classified ⊤ and pays: LBF drops appear,
// the forwarded rate is held at or below capacity, and tax episodes pull
// the forwarded average visibly below the offered load (the paper notes
// blind UDP flows "waste bandwidth before being delayed and dropped").
func TestBlindOverloadIsPenalised(t *testing.T) {
	p := testParams()
	p.Tau = 0.10
	r := buildRig(t, rigBps, rigBuffer, p)
	g := startCBR(r.eng, r.src, r.flowKey(1), 220e6, false)
	dur := sim.Duration(1e9)
	r.eng.Run(dur)
	if r.ceb.Stats.LBFDrops+r.ceb.Stats.BufferDrops == 0 {
		t.Fatal("a blind overloading flow must suffer drops")
	}
	forwarded := float64(r.ceb.Stats.TxBytes) * 8 / dur.Seconds()
	if forwarded > rigBps*1.001 {
		t.Fatalf("forwarded %.1f Mbps exceeds capacity", forwarded/1e6)
	}
	offered := float64(g.Sent) * 1500 * 8 / dur.Seconds()
	if forwarded > 0.97*offered {
		t.Fatalf("taxes must visibly cut a blind flow: forwarded %.1f of offered %.1f Mbps", forwarded/1e6, offered/1e6)
	}
	if r.ceb.Stats.SaturatedTime == 0 {
		t.Fatal("the port must have entered the saturated phase")
	}
}

// TestBottomFlowsProtected: while a ⊤ flow is being taxed, the LBF itself
// must never drop a compliant ⊥ flow's packets (the "never make unfairness
// worse" goal). Shared-buffer tail drops caused by a blind ⊤ hog are a
// physical artifact the paper defers to admission control, so they are
// bounded but not required to be zero here.
func TestBottomFlowsProtected(t *testing.T) {
	r := buildRig(t, rigBps, rigBuffer, testParams())
	lbfDrops := map[uint16]int{}
	r.dev.SetQdisc(lbfDropCounter{r.ceb, lbfDrops})
	startCBR(r.eng, r.src, r.flowKey(1), 190e6, false) // will be ⊤
	small := startCBR(r.eng, r.src, r.flowKey(2), 20e6, false)
	r.eng.Run(sim.Duration(2e9))
	if r.ceb.Stats.SaturatedTime == 0 {
		t.Fatal("the port must have spent time saturated")
	}
	if lbfDrops[1] == 0 {
		t.Fatal("the LBF never taxed the ⊤ flow")
	}
	if lbfDrops[2] != 0 {
		t.Fatalf("the LBF dropped %d packets of the compliant ⊥ flow", lbfDrops[2])
	}
	got := *r.rx[r.flowKey(2)]
	if frac := float64(got) / float64(small.Sent); frac < 0.75 {
		t.Fatalf("⊥ flow delivered only %.0f%% of its packets", frac*100)
	}
}

// lbfDropCounter passes every call through to the Cebinae port it wraps and
// counts, per source port, the packets its LBF refuses.
type lbfDropCounter struct {
	*core.Qdisc
	drops map[uint16]int
}

func (c lbfDropCounter) Enqueue(p *packet.Packet) bool {
	before := c.Stats.LBFDrops
	ok := c.Qdisc.Enqueue(p)
	if c.Stats.LBFDrops > before {
		c.drops[p.Flow.SrcPort]++
	}
	return ok
}

func TestECNMarkingOnDelayedPackets(t *testing.T) {
	r := buildRig(t, rigBps, rigBuffer, testParams())
	startCBR(r.eng, r.src, r.flowKey(1), 215e6, true) // ECT overload
	r.eng.Run(sim.Duration(1e9))
	if r.ceb.Stats.ECNMarked == 0 {
		t.Fatal("delayed ECT packets must be CE-marked")
	}
}

func TestECNMarkingDisabled(t *testing.T) {
	p := testParams()
	p.MarkECN = false
	r := buildRig(t, rigBps, rigBuffer, p)
	startCBR(r.eng, r.src, r.flowKey(1), 215e6, true)
	r.eng.Run(sim.Duration(1e9))
	if r.ceb.Stats.ECNMarked != 0 {
		t.Fatal("MarkECN=false must not mark")
	}
}

func TestBufferDropsAccounted(t *testing.T) {
	p := testParams()
	r := buildRig(t, rigBps, 8*1500, p) // tiny buffer
	startCBR(r.eng, r.src, r.flowKey(1), 400e6, false)
	r.eng.Run(sim.Duration(200e6))
	if r.ceb.Stats.BufferDrops == 0 {
		t.Fatal("2× overload into a tiny buffer must tail-drop")
	}
}

func TestRotationCadence(t *testing.T) {
	p := testParams()
	r := buildRig(t, rigBps, rigBuffer, p)
	startCBR(r.eng, r.src, r.flowKey(1), 100e6, false)
	dur := sim.Duration(1e9)
	r.eng.Run(dur)
	want := uint64(dur / p.DT)
	got := r.ceb.Stats.Rotations
	if got < want-2 || got > want+2 {
		t.Fatalf("rotations = %d, want ≈%d (one per dT)", got, want)
	}
	wantRe := want / uint64(p.P)
	if re := r.ceb.Stats.Recomputes; re < wantRe-2 || re > wantRe+2 {
		t.Fatalf("recomputes = %d, want ≈%d (every P rounds)", re, wantRe)
	}
}

func TestPhaseChangeOnLoadDrop(t *testing.T) {
	r := buildRig(t, rigBps, rigBuffer, testParams())
	g := startCBR(r.eng, r.src, r.flowKey(1), 210e6, false)
	r.eng.AtCall(sim.Duration(500e6), sim.Func(func() { g.stop() }), nil)
	r.eng.Run(sim.Duration(1e9))
	if r.ceb.Saturated() {
		t.Fatal("port must return to unsaturated after load stops")
	}
	if r.ceb.Stats.PhaseChanges < 2 {
		t.Fatalf("expected ≥2 phase changes, got %d", r.ceb.Stats.PhaseChanges)
	}
	if got := len(r.ceb.TopFlows()); got != 0 {
		t.Fatalf("⊤ set must clear on desaturation: %d", got)
	}
}

// TestWorkConservingWhenUnsaturated: a bursty on/off flow below average
// saturation must not be throttled by the round structure.
func TestWorkConservingWhenUnsaturated(t *testing.T) {
	r := buildRig(t, rigBps, rigBuffer, testParams())
	key := r.flowKey(1)
	// 50 packets back-to-back every 50 ms ⇒ ~12 Mbps average, bursty.
	var burst func()
	burst = func() {
		for i := 0; i < 50; i++ {
			r.src.Inject(&packet.Packet{Flow: key, Size: 1500, PayloadSize: 1448})
		}
		r.eng.ScheduleCall(sim.Duration(50e6), sim.Func(burst), nil)
	}
	r.eng.ScheduleCall(0, sim.Func(burst), nil)
	r.eng.Run(sim.Duration(1e9))
	sent := uint64(20 * 50)
	if lost := sent - r.rxAll; lost > 2 {
		t.Fatalf("bursty unsaturated traffic lost %d of %d", lost, sent)
	}
}
