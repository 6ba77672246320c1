package experiments

import (
	"fmt"
	"strings"

	"cebinae/internal/metrics"
	"cebinae/internal/netem"
	"cebinae/internal/packet"
	"cebinae/internal/sim"
	"cebinae/internal/tcp"
)

// flowEnd is one TCP flow to attach: its endpoints, its congestion control,
// its sender's host group and when it starts.
type flowEnd struct {
	s, r      *netem.Node
	cc, group string
	startAt   sim.Time
}

// flowSet is the attached flows of one run, in index order — the one
// harness of the graph runner, and so of Run and RunChain.
type flowSet struct {
	ends   []flowEnd
	keys   []packet.FlowKey
	conns  []*tcp.Conn
	meters []*metrics.FlowMeter
}

// attach creates one TCP flow per sender host of each of cfg's flow groups,
// in flow-group order, on the hosts build returned: flow i on ports
// 1000+i → 5000+i with seed Seed+i — sender, then receiver, then the goodput
// meter the receiver feeds, marked at the ends of the flow's measurement
// window (measureFrom at warmup, and the horizon). Construction order is
// event order (each sender arms its start timer), so it is the same at
// every caller and every shard count.
func (cfg *GraphConfig) attach(hosts map[string][]*netem.Node, warmup sim.Time) *flowSet {
	fs := &flowSet{}
	for _, fg := range cfg.Flows {
		to := hosts[fg.To]
		for i, s := range hosts[fg.From] {
			fs.ends = append(fs.ends, flowEnd{s, to[i%len(to)], fg.CC, fg.From, fg.StartAt})
		}
	}
	n := len(fs.ends)
	fs.keys, fs.conns, fs.meters = make([]packet.FlowKey, n), make([]*tcp.Conn, n), make([]*metrics.FlowMeter, n)
	for i, e := range fs.ends {
		cc, ok := tcp.NewCC(e.cc)
		if !ok {
			panic(fmt.Sprintf("experiments: unknown CC %q (known: %s)", e.cc, strings.Join(tcp.CCNames(), ", ")))
		}
		key := packet.FlowKey{
			Src: e.s.ID, Dst: e.r.ID,
			SrcPort: uint16(1000 + i), DstPort: uint16(5000 + i), Proto: packet.ProtoTCP,
		}
		fs.keys[i] = key
		fs.conns[i] = tcp.NewConn(e.s.Engine(), e.s, tcp.Config{Key: key, CC: cc, StartAt: e.startAt, Seed: cfg.Seed + uint64(i), MinRTO: cfg.MinRTO})
		recv := tcp.NewReceiver(e.r.Engine(), e.r, tcp.ReceiverConfig{Key: key})
		m := &metrics.FlowMeter{}
		m.Mark(fs.measureFrom(i, warmup, cfg.Duration), cfg.Duration)
		recv.GoodputAt = m.Record
		fs.meters[i] = m
	}
	return fs
}

// measureFrom is the start of flow i's measurement window — the one
// statement of the rule: the run's warmup edge, or, for a flow that starts
// after it, a fifth of the way into the flow's own lifetime. The caller
// passes its warmup edge rather than a fraction: recomputing it here could
// move a window by a nanosecond.
func (fs *flowSet) measureFrom(i int, warmup, duration sim.Time) sim.Time {
	if st := fs.ends[i].startAt; st > warmup {
		return st + (duration-st)/5
	}
	return warmup
}

// rates returns every flow's goodput (bytes/sec) over its measurement
// window.
func (fs *flowSet) rates(warmup, duration sim.Time) []float64 {
	out := make([]float64, len(fs.ends))
	for i, m := range fs.meters {
		out[i] = m.RateOver(fs.measureFrom(i, warmup, duration), duration)
	}
	return out
}

// jfiSeries is the per-interval JFI over the flows active at each
// interval's start, read off flows' sampled Series (one entry per
// interval up to horizon).
func (fs *flowSet) jfiSeries(flows []FlowResult, interval, horizon sim.Time) []float64 {
	n := int((horizon + interval - 1) / interval)
	out := make([]float64, 0, n)
	active := make([]float64, 0, len(flows))
	for k := 0; k < n; k++ {
		active = active[:0]
		t0 := sim.Time(k) * interval
		for i, e := range fs.ends {
			if e.startAt <= t0 {
				active = append(active, flows[i].Series[k])
			}
		}
		out = append(out, metrics.JFI(active))
	}
	return out
}
