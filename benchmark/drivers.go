package main

import (
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"cebinae/internal/cmsketch"
	"cebinae/internal/core"
	"cebinae/internal/fleet"
	"cebinae/internal/hhcache"
	"cebinae/internal/maxmin"
	"cebinae/internal/metrics"
	"cebinae/internal/netem"
	"cebinae/internal/packet"
	"cebinae/internal/qdisc"
	"cebinae/internal/replay"
	"cebinae/internal/scenario"
	"cebinae/internal/shard"
	"cebinae/internal/sim"
	"cebinae/internal/tcp"
	"cebinae/internal/trace"
)

// Layer drivers: workload-independent unit costs, each timing calls into
// one layer's public functions — only functions production code also
// calls, so the closure Schedule/Cancel surface is absent on purpose.
// Multiplied by the run-derived counts they predict the layer's share of
// a workload's wall time, which the README sets against the profiled
// share.

// A batch executes about n operations and returns the time they took and
// how many there were; set-up inside a batch is not timed.
type batchFn func(n int) (elapsed time.Duration, ops float64)

type driver struct {
	metricDef
	// scale converts nanoseconds per operation into the metric's unit.
	scale float64
	batch batchFn
}

// multiDriver measures several metrics in one pass.
type multiDriver struct {
	defs []metricDef
	run  func(root string) map[string]float64
}

var driverDefs = func() []metricDef {
	var defs []metricDef
	for _, d := range unitDrivers {
		defs = append(defs, d.metricDef)
	}
	for _, m := range multiDrivers {
		defs = append(defs, m.defs...)
	}
	return defs
}()

func ns(name string, b batchFn) driver {
	return driver{metricDef: metricDef{name: name, unit: "ns", better: "lower"}, scale: 1, batch: b}
}

func us(name string, b batchFn) driver {
	return driver{metricDef: metricDef{name: name, unit: "us", better: "lower"}, scale: 1e-3, batch: b}
}

func ms(name string, b batchFn) driver {
	return driver{metricDef: metricDef{name: name, unit: "ms", better: "lower"}, scale: 1e-6, batch: b}
}

var unitDrivers = []driver{
	ns("sim.dispatch_ns", dispatchBatch(0)),
	ns("sim.dispatch_deep_ns", dispatchBatch(4096)),
	ns("sim.timer_rearm_ns", timerBatch(256)),
	ns("sim.timer_rearm_100k_ns", timerBatch(100_000)),
	ns("packet.pool_cycle_ns", poolBatch),
	ns("netem.hop_ns", hopBatch(1)),
	ns("netem.hop3_ns", hopBatch(3)),
	ns("qdisc.fifo_ns", qdiscBatch(func(*sim.Engine) netem.Qdisc { return qdisc.NewFIFO(1 << 20) }, 1)),
	ns("qdisc.fqcodel_ns", qdiscBatch(func(e *sim.Engine) netem.Qdisc {
		return qdisc.NewFQCoDel(e, 1<<20, 0, qdisc.DefaultCoDelParams())
	}, 256)),
	ns("qdisc.afq_ns", qdiscBatch(func(*sim.Engine) netem.Qdisc { return qdisc.NewAFQ(32, 12800, 1<<20, 8192) }, 256)),
	ns("core.lbf_ns_40f", lbfBatch(40, false)),
	ns("core.lbf_ns_256f", lbfBatch(256, false)),
	us("core.round_us_256f", lbfBatch(256, true)),
	ns("hhcache.observe_ns", observeBatch),
	us("hhcache.poll_us", pollBatch),
	ns("cmsketch.add_ns", sketchBatch),
	ms("maxmin.allocate_50k_ms", maxminBatch),
	ns("tcp.seg_ns_newreno", tcpBatch("newreno", 0)),
	ns("tcp.seg_ns_cubic", tcpBatch("cubic", 0)),
	ns("tcp.seg_ns_bbr", tcpBatch("bbr", 0)),
	ns("tcp.seg_ns_lossy", tcpBatch("newreno", 0.01)),
	ns("trace.flows_ns_per_flow", traceBatch),
	ns("metrics.record_ns", recordBatch),
	us("fleet.job_overhead_us", fleetBatch),
}

var multiDrivers = []multiDriver{
	{defs: []metricDef{
		{name: "replay.pkt_ns", unit: "ns", better: "lower"},
		{name: "replay.admit_ns_per_flow", unit: "ns", better: "lower"},
		{name: "replay.bytes_per_flow", unit: "B", better: "lower"},
	}, run: replayDriver},
	{defs: []metricDef{
		{name: "metrics.meter_bytes_per_pkt", unit: "B", better: "lower"},
	}, run: meterBytesDriver},
	{defs: []metricDef{
		{name: "scenario.load_compile_us", unit: "us", better: "lower"},
	}, run: scenarioDriver},
	{defs: []metricDef{
		{name: "shard.windows", unit: "count", better: "lower"},
		{name: "shard.widened_frac", unit: "ratio", better: "higher"},
		{name: "shard.stall_ns_per_window", unit: "ns", better: "lower"},
		{name: "shard.stall_share", unit: "ratio", better: "lower"},
		{name: "shard.speedup", unit: "ratio", better: "higher"},
	}, run: shardDriver},
}

// driverRounds is how many timed batches a driver takes its median over.
const driverRounds = 3

// runDrivers executes every driver; each timed batch lasts about budget.
func runDrivers(root string, budget time.Duration) map[string]float64 {
	out := map[string]float64{}
	for _, d := range unitDrivers {
		out[d.name] = timeBatch(d.batch, budget) * d.scale
	}
	for _, m := range multiDrivers {
		for k, v := range m.run(root) {
			out[k] = v
		}
	}
	return out
}

// timeBatch grows n until a batch fills the budget, then reports the
// median nanoseconds per operation of driverRounds batches.
func timeBatch(b batchFn, budget time.Duration) float64 {
	n := 1
	for {
		el, _ := b(n)
		if el >= budget/2 || n >= 1<<28 {
			break
		}
		grow := 2.0
		if el > 0 {
			grow = min(100, max(2, 1.2*float64(budget)/float64(el)))
		}
		n = int(float64(n) * grow)
	}
	per := make([]float64, driverRounds)
	for i := range per {
		el, ops := b(n)
		per[i] = float64(el.Nanoseconds()) / ops
	}
	return median(per)
}

type nopHandler struct{}

func (nopHandler) OnEvent(any) {}

// dispatchLoop reschedules itself n times: one ScheduleCall plus one
// dispatch per operation.
type dispatchLoop struct {
	eng  *sim.Engine
	left int
}

func (l *dispatchLoop) OnEvent(any) {
	if l.left--; l.left > 0 {
		l.eng.ScheduleCall(1, l, nil)
	}
}

// dispatchBatch times the engine's innermost cycle over a heap holding
// `standing` far-future events.
func dispatchBatch(standing int) batchFn {
	return func(n int) (time.Duration, float64) {
		eng := sim.NewEngine()
		far := sim.Time(1) << 60
		for i := 0; i < standing; i++ {
			eng.AtCall(far+sim.Time(i), nopHandler{}, nil)
		}
		l := &dispatchLoop{eng: eng, left: n}
		eng.ScheduleCall(1, l, nil)
		t0 := time.Now()
		eng.Run(far - 1)
		return time.Since(t0), float64(n)
	}
}

// timerBatch times ArmTimer re-arming in place against `depth` armed
// wheel timers — the RTO / pacing / replay-flow pattern.
func timerBatch(depth int) batchFn {
	return func(n int) (time.Duration, float64) {
		eng := sim.NewEngine()
		tms := make([]sim.Timer, depth)
		for i := range tms {
			eng.ArmTimer(&tms[i], sim.Time(i+1)*1000, nopHandler{}, nil)
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			slot := i % depth
			eng.ArmTimer(&tms[slot], sim.Time(slot+1)*1000, nopHandler{}, nil)
		}
		return time.Since(t0), float64(n)
	}
}

func poolBatch(n int) (time.Duration, float64) {
	var pool packet.Pool
	pool.Put(pool.Get())
	t0 := time.Now()
	for i := 0; i < n; i++ {
		pool.Put(pool.Get())
	}
	return time.Since(t0), float64(n)
}

type nullEndpoint struct{}

func (nullEndpoint) Deliver(*packet.Packet) {}

// hopBatch forwards one 1500 B packet at a time across a routed chain of
// `hops` FIFO links: pool, qdisc, transmit and propagation events,
// delivery, release. Operations are packet-hops.
func hopBatch(hops int) batchFn {
	return func(n int) (time.Duration, float64) {
		eng := sim.NewEngine()
		w := netem.NewNetwork(eng)
		nodes := make([]*netem.Node, hops+1)
		for i := range nodes {
			nodes[i] = w.NewNode("n")
		}
		dst := nodes[hops]
		fifo := func() netem.Qdisc { return qdisc.NewFIFO(1 << 20) }
		for i := 0; i < hops; i++ {
			fwd, _ := w.Connect(nodes[i], nodes[i+1], netem.LinkConfig{RateBps: 1e9, Delay: 1000, QdiscFactory: fifo})
			nodes[i].AddRoute(dst.ID, fwd)
		}
		key := packet.FlowKey{Src: nodes[0].ID, Dst: dst.ID, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
		dst.Register(key, nullEndpoint{})
		forward := func() {
			p := nodes[0].AllocPacket()
			p.Flow, p.Size, p.PayloadSize = key, 1500, packet.MSS
			nodes[0].Inject(p)
			eng.RunAll()
		}
		forward()
		packets := max(1, n/hops)
		t0 := time.Now()
		for i := 0; i < packets; i++ {
			forward()
		}
		return time.Since(t0), float64(packets * hops)
	}
}

func flowKeys(n int) []packet.FlowKey {
	keys := make([]packet.FlowKey, n)
	for i := range keys {
		keys[i] = packet.FlowKey{Src: 1, Dst: 2, SrcPort: uint16(1000 + i), DstPort: uint16(5000 + i), Proto: packet.ProtoTCP}
	}
	return keys
}

// qdiscBatch times Enqueue+Dequeue of 1500 B packets round-robin over
// `flows` keys, the clock advancing one packet-time at 1 Gbps per
// operation so time-based disciplines see a live queue.
func qdiscBatch(build func(*sim.Engine) netem.Qdisc, flows int) batchFn {
	return func(n int) (time.Duration, float64) {
		eng := sim.NewEngine()
		q := build(eng)
		keys := flowKeys(flows)
		var pool packet.Pool
		t0 := time.Now()
		for i := 0; i < n; i++ {
			cycle(q, &pool, keys[i%flows])
			if i%8 == 7 {
				eng.Run(eng.Now() + 8*12_000)
			}
		}
		return time.Since(t0), float64(n)
	}
}

// cycle offers one packet and serves one, releasing whatever comes back.
func cycle(q netem.Qdisc, pool *packet.Pool, key packet.FlowKey) {
	p := pool.Get()
	p.Flow, p.Size, p.PayloadSize = key, 1500, packet.MSS
	if !q.Enqueue(p) {
		pool.Put(p)
	}
	if d := q.Dequeue(); d != nil {
		pool.Put(d)
	}
}

// lbfBatch drives a 1 Gbps Cebinae port at line rate from `flows` equal
// senders, so the control loop classes the port saturated after its
// first recomputation. With rounds false it times the whole loop per
// packet (Enqueue+Dequeue, the control plane amortised in); with rounds
// true it times only the clock advances that run control-plane events
// and reports per rotation: the cost of a rotate + poll + recompute
// round with nothing else on the engine.
func lbfBatch(flows int, rounds bool) batchFn {
	return func(n int) (time.Duration, float64) {
		const buffer = 420 * 1500
		eng := sim.NewEngine()
		q := core.New(eng, 1e9, buffer, core.DefaultParams(1e9, buffer, sim.Time(5e6)))
		keys := flowKeys(flows)
		var pool packet.Pool
		packets := n
		if rounds {
			packets = n * 175 // packet-times per 2.1 ms round at 1 Gbps
		}
		var inControl time.Duration
		t0 := time.Now()
		for i := 0; i < packets; i++ {
			cycle(q, &pool, keys[i%flows])
			if i%8 != 7 {
				continue
			}
			until := eng.Now() + 8*12_000
			if rounds && eng.NextEventTime() <= until {
				c0 := time.Now()
				eng.Run(until)
				inControl += time.Since(c0)
			} else {
				eng.Run(until)
			}
		}
		if rounds {
			return inControl, float64(max(1, q.Stats.Rotations))
		}
		return time.Since(t0), float64(packets)
	}
}

// zipfKeys draws `draws` flow keys from `flows` flows with rank-1/x
// popularity, the skew a backbone heavy-hitter cache sees.
func zipfKeys(flows, draws int) []packet.FlowKey {
	rng := sim.NewRand(7)
	cdf := make([]float64, flows)
	sum := 0.0
	for i := range cdf {
		sum += 1 / float64(i+1)
		cdf[i] = sum
	}
	keys := make([]packet.FlowKey, draws)
	for i := range keys {
		rank := sort.SearchFloat64s(cdf, rng.Float64()*sum)
		keys[i] = packet.FlowKey{Src: 1, Dst: 2, SrcPort: uint16(rank), DstPort: uint16(rank >> 16), Proto: packet.ProtoTCP}
	}
	return keys
}

// zipf100k is built on first use: children that run a workload must not
// pay for it in their set-up time.
var zipf100k = sync.OnceValue(func() []packet.FlowKey { return zipfKeys(100_000, 1<<16) })

func observeBatch(n int) (time.Duration, float64) {
	c, keys := hhcache.New(2, 2048), zipf100k()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		c.Observe(keys[i&(1<<16-1)], 700)
	}
	return time.Since(t0), float64(n)
}

// pollBatch times Poll alone; the 4096 observations that refill the
// cache before each poll are not timed.
func pollBatch(n int) (time.Duration, float64) {
	c, keys := hhcache.New(2, 2048), zipf100k()
	var polled time.Duration
	for i := 0; i < n; i++ {
		for j := 0; j < 4096; j++ {
			c.Observe(keys[(i*4096+j)&(1<<16-1)], 700)
		}
		t0 := time.Now()
		c.Poll()
		polled += time.Since(t0)
	}
	return polled, float64(n)
}

func sketchBatch(n int) (time.Duration, float64) {
	s, keys := cmsketch.New(4, 1<<16), zipf100k()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		s.Add(keys[i&(1<<16-1)], 700)
	}
	return time.Since(t0), float64(n)
}

// maxminBatch water-fills 50 000 flows over one 10 Gbps link the way the
// backbone scores itself: demands are whole 700 B packets over the run,
// so they fall on a few hundred distinct levels, and they oversubscribe
// the link four times, so the water level binds.
func maxminBatch(n int) (time.Duration, float64) {
	const flows = 50_000
	net := &maxmin.Network{Capacity: []float64{10e9}, Routes: make([][]int, flows), Demand: make([]float64, flows)}
	for i := range net.Routes {
		net.Routes[i] = []int{0}
		net.Demand[i] = float64(1+(i*i)%300) * 700 * 8
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := maxmin.Allocate(net); err != nil {
			panic(err)
		}
	}
	return time.Since(t0), float64(n)
}

// tcpBatch runs one bulk flow over a two-node 1 Gbps, 2 ms-RTT rig and
// reports wall time per ACKed segment: sender, receiver, and the two
// packet-hops (data out, ACK back) each segment costs. dropProb > 0 puts
// qdisc.Lossy on the data direction, which moves the flow onto the SACK
// scoreboard and retransmit path.
func tcpBatch(ccName string, dropProb float64) batchFn {
	return func(n int) (time.Duration, float64) {
		eng := sim.NewEngine()
		w := netem.NewNetwork(eng)
		a, b := w.NewNode("a"), w.NewNode("b")
		fifo := func() netem.Qdisc { return qdisc.NewFIFO(64 << 20) }
		ab, ba := w.Connect(a, b, netem.LinkConfig{RateBps: 1e9, Delay: sim.Time(1e6), QdiscFactory: fifo})
		if dropProb > 0 {
			lossy := qdisc.NewLossy(qdisc.NewFIFO(64<<20), 11)
			lossy.DropProb = dropProb
			ab.SetQdisc(lossy)
		}
		a.AddRoute(b.ID, ab)
		b.AddRoute(a.ID, ba)
		cc, ok := tcp.NewCC(ccName)
		if !ok {
			panic("unknown congestion control " + ccName)
		}
		key := packet.FlowKey{Src: a.ID, Dst: b.ID, SrcPort: 1000, DstPort: 5000, Proto: packet.ProtoTCP}
		// The window cap (two bandwidth-delay products) keeps the lossless
		// flow in a steady state instead of an ever-growing slow start.
		conn := tcp.NewConn(eng, a, tcp.Config{Key: key, CC: cc, MaxCwndBytes: 500_000})
		tcp.NewReceiver(eng, b, tcp.ReceiverConfig{Key: key})
		// n is in segments: at line rate one segment takes 12 µs.
		horizon := sim.Time(20e6) + sim.Time(n)*12_000
		t0 := time.Now()
		eng.Run(horizon)
		el := time.Since(t0)
		return el, max(1, float64(conn.Stats.AckedBytes)/packet.MSS)
	}
}

func backboneTrace(flows int, horizon sim.Time) trace.Config {
	tc := trace.DefaultConfig()
	tc.Duration = horizon
	tc.StandingFlows = flows
	tc.LifetimeScale = float64(flows) / 2000
	tc.LinkBps = 0
	return tc
}

func traceBatch(n int) (time.Duration, float64) {
	flows := max(1000, n)
	tc := backboneTrace(flows, sim.Time(40e6))
	t0 := time.Now()
	sched := trace.Flows(tc)
	return time.Since(t0), float64(len(sched))
}

func recordBatch(n int) (time.Duration, float64) {
	var m metrics.FlowMeter
	t0 := time.Now()
	for i := 0; i < n; i++ {
		m.Record(sim.Time(i)*12_000, packet.MSS)
	}
	return time.Since(t0), float64(n)
}

// meterBytesDriver is what one delivered segment costs in FlowMeter
// memory, growth included: bytes allocated over a million records.
func meterBytesDriver(string) map[string]float64 {
	const records = 1_000_000
	var m0, m1 runtime.MemStats
	var m metrics.FlowMeter
	runtime.ReadMemStats(&m0)
	for i := 0; i < records; i++ {
		m.Record(sim.Time(i)*12_000, packet.MSS)
	}
	runtime.ReadMemStats(&m1)
	return map[string]float64{"metrics.meter_bytes_per_pkt": float64(m1.TotalAlloc-m0.TotalAlloc) / records}
}

func fleetBatch(n int) (time.Duration, float64) {
	jobs := make([]fleet.Job, max(n, 100))
	for i := range jobs {
		jobs[i] = fleet.Job{ID: "noop/" + strconv.Itoa(i), Run: func() (any, error) { return 0, nil }}
	}
	t0 := time.Now()
	if _, err := fleet.Run(jobs, fleet.Options{Parallelism: procs()}); err != nil {
		panic(err)
	}
	return time.Since(t0), float64(len(jobs))
}

// replayDriver builds the backbone's data path without the experiment's
// scoring instrumentation — src, 10 G Cebinae core, dst, closed loop —
// and admits 10⁵ standing flows: admission cost and resident bytes per
// flow. It then runs 400 simulated ms and reports wall time per packet
// sent over the last 300, past the start-up transient in which every flow
// sends its first packet at once and the core drops a whole population's
// worth.
func replayDriver(string) map[string]float64 {
	const flows = 100_000
	warm, horizon := sim.Time(100e6), sim.Time(400e6)
	sched := trace.Flows(backboneTrace(flows, horizon))
	var admit, perPkt, resident []float64
	for i := 0; i < driverRounds; i++ {
		eng := sim.NewEngine()
		w := netem.NewNetwork(eng)
		src, sw1, sw2, dst := w.NewNode("src"), w.NewNode("sw1"), w.NewNode("sw2"), w.NewNode("dst")
		edge := func() netem.Qdisc { return qdisc.NewFIFO(64 << 20) }
		access := netem.LinkConfig{RateBps: 40e9, Delay: sim.Time(200e3), QdiscFactory: edge}
		sa, as := w.Connect(src, sw1, access)
		cf, cr := w.Connect(sw1, sw2, netem.LinkConfig{RateBps: 10e9, Delay: sim.Time(2e6), QdiscFactory: edge})
		sd, ds := w.Connect(sw2, dst, access)
		cq := core.New(eng, 10e9, 8<<20, core.DefaultParams(10e9, 8<<20, 2*sim.Time(2e6+2*200e3)))
		cq.OnDrain = cf.Kick
		cf.SetQdisc(cq)
		src.AddRoute(dst.ID, sa)
		sw1.AddRoute(dst.ID, cf)
		sw2.AddRoute(dst.ID, sd)
		dst.AddRoute(src.ID, ds)
		sw2.AddRoute(src.ID, cr)
		sw1.AddRoute(src.ID, as)

		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		source := replay.NewSource(src, sched, replay.Config{To: dst.ID, ClosedLoop: true, ECN: true, RTTSpread: 0.2})
		replay.NewSink(dst, replay.SinkConfig{ClosedLoop: true})
		eng.RunUntil(1) // the t=0 admission burst only
		admit = append(admit, float64(time.Since(t0).Nanoseconds())/float64(source.Stats.PeakActive))
		runtime.GC()
		runtime.ReadMemStats(&m1)
		resident = append(resident, (float64(m1.HeapAlloc)-float64(m0.HeapAlloc))/float64(source.Stats.PeakActive))
		eng.RunUntil(warm)
		sent := source.Stats.SentPackets
		t1 := time.Now()
		eng.RunUntil(horizon)
		perPkt = append(perPkt, float64(time.Since(t1).Nanoseconds())/float64(source.Stats.SentPackets-sent))
	}
	return map[string]float64{
		"replay.admit_ns_per_flow": median(admit),
		"replay.bytes_per_flow":    median(resident),
		"replay.pkt_ns":            median(perPkt),
	}
}

// scenarioDriver times Load + Compile of the largest workload spec.
func scenarioDriver(root string) map[string]float64 {
	dir := filepath.Join(root, "benchmark", "workloads")
	var largest string
	var size int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		panic(err)
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Size() > size {
			largest, size = filepath.Join(dir, e.Name()), info.Size()
		}
	}
	per := timeBatch(func(n int) (time.Duration, float64) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			spec, err := scenario.Load(largest)
			if err != nil {
				panic(err)
			}
			if _, err := scenario.Compile(spec); err != nil {
				panic(err)
			}
		}
		return time.Since(t0), float64(n)
	}, 20*time.Millisecond)
	return map[string]float64{"scenario.load_compile_us": per / 1e3}
}

// shardDriver runs a benchmark-built 3-hop chain (6 long + 24 cross
// NewReno flows, FIFO bottlenecks) for 2 simulated seconds on one engine
// and on two auto-planned shards with barrier-stall accounting on.
func shardDriver(string) map[string]float64 {
	build := func(f netem.Fabric) *netem.ParkingLot {
		return netem.BuildParkingLotOn(f, netem.ParkingLotConfig{
			Hops: 3, LongFlows: 6, CrossPerHop: []int{8, 8, 8},
			BottleneckBps: 100e6, LinkDelay: sim.Time(5e6), AccessDelay: sim.Time(5e6),
			BottleneckQdisc: func(*netem.Device) netem.Qdisc { return qdisc.NewFIFO(850 * 1500) },
			DefaultQdisc:    func() netem.Qdisc { return qdisc.NewFIFO(16 << 20) },
		})
	}
	run := func(shards int) (time.Duration, shard.RunStats) {
		cl := shard.NewCluster(1)
		if shards > 1 {
			cl = shard.NewClusterWithPlan(shard.AutoPlan(shards, func(f netem.Fabric) { build(f) }))
		}
		cl.Instrument(func() int64 { return time.Now().UnixNano() })
		pl := build(cl)
		senders, receivers := pl.LongSenders, pl.LongReceivers
		for h := range pl.CrossSenders {
			senders = append(senders, pl.CrossSenders[h]...)
			receivers = append(receivers, pl.CrossReceivers[h]...)
		}
		for i, s := range senders {
			r := receivers[i]
			key := packet.FlowKey{Src: s.ID, Dst: r.ID, SrcPort: uint16(1000 + i), DstPort: uint16(5000 + i), Proto: packet.ProtoTCP}
			tcp.NewConn(s.Engine(), s, tcp.Config{Key: key, Seed: uint64(i + 1)})
			tcp.NewReceiver(r.Engine(), r, tcp.ReceiverConfig{Key: key})
		}
		t0 := time.Now()
		cl.Run(sim.Time(2e9))
		return time.Since(t0), cl.Stats
	}
	var serial, sharded, stall []float64
	var st shard.RunStats
	for i := 0; i < driverRounds; i++ {
		el, _ := run(1)
		serial = append(serial, el.Seconds())
		el, st = run(2)
		sharded = append(sharded, el.Seconds())
		stall = append(stall, float64(st.BarrierStallNs))
	}
	windows := float64(max(1, st.Windows))
	return map[string]float64{
		"shard.windows":             float64(st.Windows),
		"shard.widened_frac":        float64(st.Widened) / windows,
		"shard.stall_ns_per_window": median(stall) / windows,
		"shard.stall_share":         median(stall) / (median(sharded) * 1e9),
		"shard.speedup":             median(serial) / median(sharded),
	}
}
