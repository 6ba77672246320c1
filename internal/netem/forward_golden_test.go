package netem

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cebinae/internal/packet"
	"cebinae/internal/qdisc"
	"cebinae/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/ from this tree's runs")

// traceRig is the five-node network behind TestForwardTraceGolden:
//
//	a ──D──┐
//	│S     c ──D── d ──D2── e      D = 100 µs on three links, D2 = 250 µs
//	b ──D──┘                       on one, S on the a—b shortcut
//
// a and b have identical access links, so equal-sized packets they send at
// one instant reach c in the same nanosecond; c→d is slower and drops (a
// short FIFO behind a seeded coin), so the order in which c sees those
// arrivals decides which packet the coin lands on and what d and e receive
// after it. Sinks at e and b answer each delivery with a bare reply, which
// loads the reverse direction of every link.
type traceRig struct {
	eng   *sim.Engine
	rng   *sim.Rand
	nodes []*Node // a b c d e
	flows []packet.FlowKey
	sent  []int64 // next Seq per flow
	steps int
	log   strings.Builder
}

func (r *traceRig) record(what string, n *Node, p *packet.Packet) {
	fmt.Fprintf(&r.log, "%d %s %s %v %d\n", r.eng.Now(), what, n.Name, p.Flow, p.Seq)
}

// traceSink records a delivery and, when echo is set, answers it.
type traceSink struct {
	rig  *traceRig
	node *Node
	echo bool
}

func (s *traceSink) Deliver(p *packet.Packet) {
	s.rig.record("rx", s.node, p)
	if s.echo && p.Flags&packet.FlagACK == 0 {
		ack := s.node.AllocPacket()
		ack.Flow, ack.Seq, ack.Flags, ack.Size = p.Flow.Reverse(), p.Seq, packet.FlagACK, packet.HeaderBytes
		s.node.Inject(ack)
	}
}

// coinQdisc drops one admission in sixteen on a seeded coin and whatever its
// short FIFO refuses, recording both.
type coinQdisc struct {
	*qdisc.FIFO
	rig  *traceRig
	node *Node
	coin *sim.Rand
}

func (q *coinQdisc) Enqueue(p *packet.Packet) bool {
	if q.coin.Intn(16) == 0 || !q.FIFO.Enqueue(p) {
		q.rig.record("drop", q.node, p)
		return false
	}
	return true
}

// OnEvent injects one burst — the same number of equal-sized packets on
// two or three flows at one instant — and schedules the next after a gap
// drawn from the serialisation times in play, zero included.
func (r *traceRig) OnEvent(any) {
	if r.steps == 0 {
		return
	}
	r.steps--
	size := []int32{packet.HeaderBytes, 100, 1500, 1500}[r.rng.Intn(4)]
	burst := 1 + r.rng.Intn(4)
	for n := 2 + r.rng.Intn(2); n > 0; n-- {
		f := r.rng.Intn(len(r.flows))
		src := r.nodes[r.flows[f].Src-1]
		for i := 0; i < burst; i++ {
			p := src.AllocPacket()
			p.Flow, p.Seq, p.Size, p.PayloadSize = r.flows[f], r.sent[f], size, size-packet.HeaderBytes
			r.sent[f]++
			src.Inject(p)
		}
	}
	gap := []sim.Time{0, 1000, 12000, 24000, sim.Time(r.rng.Intn(200000))}[r.rng.Intn(5)]
	r.eng.ScheduleCall(gap, r, nil)
}

// runForwardTrace runs the rig with an a—b shortcut of the given delay and
// returns the engine's event count and a digest of the records: how many,
// how many drops at c→d, and the hash of the whole trace.
func runForwardTrace(seed uint64, steps int, shortcut sim.Time) (events uint64, digest string) {
	eng := sim.NewEngine()
	w := NewNetwork(eng)
	r := &traceRig{eng: eng, rng: sim.NewRand(seed), steps: steps}
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		r.nodes = append(r.nodes, w.NewNode(name))
	}
	a, b, c, d, e := r.nodes[0], r.nodes[1], r.nodes[2], r.nodes[3], r.nodes[4]
	const D, D2 = sim.Time(100e3), sim.Time(250e3)
	link := func(x, y *Node, bps float64, delay sim.Time) (*Device, *Device) {
		return w.Connect(x, y, LinkConfig{RateBps: bps, Delay: delay, QdiscFactory: fifoFactory})
	}
	ac, ca := link(a, c, 1e9, D)
	bc, cb := link(b, c, 1e9, D)
	cd, dc := link(c, d, 500e6, D)
	de, ed := link(d, e, 1e9, D2)
	ab, ba := link(a, b, 1e9, shortcut)
	cd.SetQdisc(&coinQdisc{FIFO: qdisc.NewFIFO(20 * 1500), rig: r, node: c, coin: sim.NewRand(seed ^ 0xC01)})
	for _, rt := range []struct {
		at   *Node
		dev  *Device
		dsts []*Node
	}{
		{a, ac, []*Node{c, d, e}}, {a, ab, []*Node{b}},
		{b, bc, []*Node{c, d, e}}, {b, ba, []*Node{a}},
		{c, ca, []*Node{a}}, {c, cb, []*Node{b}}, {c, cd, []*Node{d, e}},
		{d, dc, []*Node{a, b, c}}, {d, de, []*Node{e}},
		{e, ed, []*Node{a, b, c, d}},
	} {
		for _, dst := range rt.dsts {
			rt.at.AddRoute(dst.ID, rt.dev)
		}
	}
	for i, f := range []struct {
		src, dst *Node
		echo     bool
	}{
		{a, e, true}, {b, e, true}, {a, d, false}, {b, d, false},
		{a, b, true}, {b, a, false}, {e, a, false}, {d, b, false},
	} {
		key := packet.FlowKey{Src: f.src.ID, Dst: f.dst.ID, SrcPort: uint16(100 + i), DstPort: 9, Proto: packet.ProtoUDP}
		r.flows = append(r.flows, key)
		f.dst.Register(key, &traceSink{rig: r, node: f.dst, echo: f.echo})
		if f.echo {
			f.src.Register(key.Reverse(), &traceSink{rig: r, node: f.src})
		}
	}
	r.sent = make([]int64, len(r.flows))
	eng.ScheduleCall(0, r, nil)
	eng.RunAll()
	trace := r.log.String()
	return eng.Processed, fmt.Sprintf("records=%d drops=%d trace=%x",
		strings.Count(trace, "\n"), cd.Stats().DropPackets, sha256.Sum256([]byte(trace)))
}

// checkTraceGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkTraceGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update at the parent commit): %v", err)
	}
	if got != string(want) {
		t.Errorf("forwarding trace drifted from %s:\n got:\n%swant:\n%s", path, got, want)
	}
}

// TestForwardTraceGolden is the byte gate for dispatch order inside netem:
// the time, node, flow and sequence number of every delivery and drop on
// the rig above with a zero-delay a—b shortcut, and the engine's event
// count, digested per seed against testdata/forward_trace_golden.txt. A
// same-instant tie between two links resolved differently, an arrival
// handed to the wrong peer or a sequence number drawn elsewhere moves these
// bytes.
//
// The shortcut's zero delay is where one tie is declared rather than
// inherited: an arrival is pushed, seq and all, when its serialisation
// starts, so a zero-delay arrival dispatches ahead of zero-delay events
// scheduled at its completion instant. The file was recorded when that rule
// came in; TestForwardTraceGoldenDelayed pins every tie on a link with
// delay to the order it had before.
func TestForwardTraceGolden(t *testing.T) {
	var got strings.Builder
	for seed := uint64(1); seed <= 4; seed++ {
		events, digest := runForwardTrace(seed, 3000, 0)
		fmt.Fprintf(&got, "seed=%d events=%d %s\n", seed, events, digest)
	}
	checkTraceGolden(t, "forward_trace_golden.txt", got.String())
}

// TestForwardTraceGoldenDelayed is the same rig with 1 ns on the a—b
// shortcut, so every link has propagation delay, against
// testdata/forward_trace_delayed_golden.txt, recorded at the commit before
// one event per packet-hop. It holds no event count, which that change
// moved on purpose.
func TestForwardTraceGoldenDelayed(t *testing.T) {
	var got strings.Builder
	for seed := uint64(1); seed <= 4; seed++ {
		_, digest := runForwardTrace(seed, 3000, 1)
		fmt.Fprintf(&got, "seed=%d %s\n", seed, digest)
	}
	checkTraceGolden(t, "forward_trace_delayed_golden.txt", got.String())
}
