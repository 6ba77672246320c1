// Package benchkit is the perf measurement harness shared by the go-test
// benchmarks and `cebinae-bench -benchjson`: microbenchmarks of the event
// engine's dispatch and timer re-arm cycles, the netem forwarding hot path,
// and an end-to-end dumbbell TCP run. Keeping the bodies here (rather than
// in _test files) lets the CLI emit a machine-readable perf snapshot
// (BENCH_baseline.json) with exactly the numbers the benchmarks report, so
// every PR leaves a comparable point on the perf trajectory.
package benchkit

import (
	"testing"

	"cebinae/internal/netem"
	"cebinae/internal/packet"
	"cebinae/internal/qdisc"
	"cebinae/internal/sim"
	"cebinae/internal/tcp"
)

// Sink defeats dead-code elimination in benchmark bodies.
var Sink int

// EngineDispatch measures the pooled typed-event schedule+dispatch cycle —
// the simulator's innermost loop. Steady state is allocation-free: the
// self-rescheduling handler reuses one recycled event for the whole run.
func EngineDispatch(b *testing.B) {
	eng := sim.NewEngine()
	l := &dispatchLoop{eng: eng, remaining: b.N}
	b.ReportAllocs()
	b.ResetTimer()
	eng.ScheduleCall(1, l, nil)
	eng.RunAll()
	Sink = int(eng.Processed)
}

type dispatchLoop struct {
	eng       *sim.Engine
	remaining int
}

func (l *dispatchLoop) OnEvent(any) {
	l.remaining--
	if l.remaining > 0 {
		l.eng.ScheduleCall(1, l, nil)
	}
}

// TimerChurn measures embedded-timer re-arm churn against a standing
// population of 256 armed timers — the pattern of retransmission, pacing
// and delayed-ACK timers — through the wheel-backed Timer surface (ArmTimer
// re-arms in place): wheel-resident timers re-arm via an O(1) bucket unlink
// and the cycle allocates nothing.
func TimerChurn(b *testing.B) {
	eng := sim.NewEngine()
	h := timerNopHandler{}
	const depth = 256
	var tms [depth]sim.Timer
	for i := range tms {
		eng.ArmTimer(&tms[i], sim.Time(i+1)*sim.Time(1e6), h, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i % depth
		eng.ArmTimer(&tms[slot], sim.Time(slot+1)*sim.Time(1e6), h, nil)
	}
}

type timerNopHandler struct{}

func (timerNopHandler) OnEvent(any) {}

type nullEndpoint struct{}

func (nullEndpoint) Deliver(p *packet.Packet) {}

// NetemForward measures one packet per op through a two-node
// store-and-forward hop: pool alloc, qdisc enqueue/dequeue, persistent
// transmit event, wire-stream propagation entry, delivery, pool release.
// Steady state is allocation-free.
func NetemForward(b *testing.B) {
	eng := sim.NewEngine()
	w := netem.NewNetwork(eng)
	a, c := w.NewNode("a"), w.NewNode("b")
	da, db := w.Connect(a, c, netem.LinkConfig{RateBps: 1e9, Delay: 1000})
	da.SetQdisc(qdisc.NewFIFO(1 << 20))
	db.SetQdisc(qdisc.NewFIFO(1 << 20))
	key := packet.FlowKey{Src: a.ID, Dst: c.ID, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
	c.Register(key, nullEndpoint{})
	a.AddRoute(c.ID, da)
	forward := func() {
		p := a.AllocPacket()
		p.Flow = key
		p.Size = 1500
		p.PayloadSize = 1448
		a.Inject(p)
		eng.RunAll()
	}
	forward() // warm the packet pool and event free list
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forward()
	}
	Sink = int(eng.Processed)
}

// inFlightRig is one saturated FIFO hop whose propagation delay is
// `standing` serialisation times: a fixed population of packets circulates
// (each delivery injects the next), so the wire always carries about
// `standing` of them.
type inFlightRig struct {
	eng  *sim.Engine
	src  *netem.Node
	key  packet.FlowKey
	left int
}

func newInFlightRig(standing int) *inFlightRig {
	eng := sim.NewEngine()
	w := netem.NewNetwork(eng)
	a, c := w.NewNode("a"), w.NewNode("b")
	// 1500 B at 10 Gbps serialises in 1200 ns.
	da, db := w.Connect(a, c, netem.LinkConfig{RateBps: 10e9, Delay: sim.Time(1200 * standing)})
	da.SetQdisc(qdisc.NewFIFO(2 * standing * 1500))
	db.SetQdisc(qdisc.NewFIFO(1 << 20))
	r := &inFlightRig{eng: eng, src: a}
	r.key = packet.FlowKey{Src: a.ID, Dst: c.ID, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
	c.Register(r.key, r)
	a.AddRoute(c.ID, da)
	for i := 0; i < standing; i++ {
		r.send()
	}
	return r
}

func (r *inFlightRig) send() {
	p := r.src.AllocPacket()
	p.Flow = r.key
	p.Size = 1500
	p.PayloadSize = 1448
	r.src.Inject(p)
}

// Deliver replaces every delivered packet with a fresh one at the source.
func (r *inFlightRig) Deliver(*packet.Packet) {
	if r.left--; r.left == 0 {
		r.eng.Stop()
	}
	r.send()
}

// forward runs the hop until n more packets have been delivered.
func (r *inFlightRig) forward(n int) {
	r.left = n
	r.eng.RunAll()
}

// inFlightStanding is NetemForwardInFlight's wire population: the
// bandwidth-delay product of a 10 Gbps path with a ≈ 20 ms one-way delay.
const inFlightStanding = 16384

// NetemForwardInFlight measures one packet per op across one FIFO hop with
// 16 384 packets standing in propagation — the bandwidth-delay-product
// regime of the 10 Gbps cells, which NetemForward (one packet in the
// network at a time) cannot see. Steady state is allocation-free.
func NetemForwardInFlight(b *testing.B) {
	r := newInFlightRig(inFlightStanding)
	r.forward(2 * inFlightStanding) // fill the wire, warm the pool and entry blocks
	b.ReportAllocs()
	b.ResetTimer()
	r.forward(b.N)
	Sink = int(r.eng.Processed)
}

// DumbbellE2E measures full-stack simulated packet throughput: one NewReno
// flow over a 100 Mbps dumbbell, 2 simulated seconds per op (the same
// scenario as the root package's BenchmarkTCPEndToEnd, kept in lockstep so
// BENCH_baseline.json entries compare across PRs).
func DumbbellE2E(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		w := netem.NewNetwork(eng)
		d := netem.BuildDumbbell(w, netem.DumbbellConfig{
			FlowCount:       1,
			BottleneckBps:   100e6,
			BottleneckDelay: sim.Time(0.1e6),
			RTTs:            []sim.Time{sim.Time(20e6)},
			BottleneckQdisc: func(dev *netem.Device) netem.Qdisc { return qdisc.NewFIFO(450 * 1500) },
			DefaultQdisc:    func() netem.Qdisc { return qdisc.NewFIFO(16 << 20) },
		})
		key := packet.FlowKey{Src: d.Senders[0].ID, Dst: d.Receivers[0].ID, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
		tcp.NewConn(eng, d.Senders[0], tcp.Config{Key: key})
		tcp.NewReceiver(eng, d.Receivers[0], tcp.ReceiverConfig{Key: key})
		eng.Run(sim.Time(2e9))
		Sink = int(eng.Processed)
	}
}

// Result is one measured benchmark, in the shape BENCH_baseline.json
// records.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Metrics carries the benchmark's custom b.ReportMetric values (e.g.
	// the backbone tier's flows/s and B/flow); absent when a benchmark
	// reports none. JSON renders map keys sorted, so the snapshot stays
	// byte-stable.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Spec is one named benchmark in the harness.
type Spec struct {
	Name string
	Fn   func(*testing.B)
}

// Specs enumerates the harness's benchmarks in reporting order: the
// serial microbenchmarks and end-to-end runs, then the multi-core
// scaling grid (one row per (shards, GOMAXPROCS) cell).
func Specs() []Spec {
	out := []Spec{
		{"EngineDispatch", EngineDispatch},
		{"TimerChurn", TimerChurn},
		{"NetemForward", NetemForward},
		{"NetemForwardInFlight", NetemForwardInFlight},
		{"DumbbellE2E", DumbbellE2E},
		{"FastForward", FastForward},
		{ChainSpecName(1), ChainE2EShards(1)},
		{"Backbone", Backbone},
	}
	return append(out, GridSpecs()...)
}

// HeavySpecs enumerates the benchmarks behind cebinae-bench's
// -bench-heavy flag: the million-flow backbone tier, too expensive for
// the default snapshot but scored with the same machinery when asked.
func HeavySpecs() []Spec {
	return []Spec{{"BackboneHeavy", BackboneHeavy}}
}

// RunAll executes the default benchmark suite via testing.Benchmark and
// returns the measured results.
func RunAll() []Result { return RunSuite(false) }

// RunSuite executes the benchmark suite — plus the heavy tier when asked
// — and attaches the grid's derived speedup metrics.
func RunSuite(heavy bool) []Result {
	specs := Specs()
	if heavy {
		specs = append(specs, HeavySpecs()...)
	}
	var out []Result
	for _, s := range specs {
		out = append(out, resultOf(s.Name, testing.Benchmark(s.Fn)))
	}
	attachSpeedups(out)
	return out
}

// resultOf flattens one testing.BenchmarkResult into the snapshot shape,
// carrying any b.ReportMetric extras along.
func resultOf(name string, r testing.BenchmarkResult) Result {
	res := Result{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
	if len(r.Extra) > 0 {
		res.Metrics = make(map[string]float64, len(r.Extra))
		for unit, v := range r.Extra {
			res.Metrics[unit] = v
		}
	}
	return res
}
