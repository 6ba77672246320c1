package netem_test

import (
	"testing"

	"cebinae/internal/netem"
	"cebinae/internal/packet"
	"cebinae/internal/qdisc"
	"cebinae/internal/sim"
)

// refusals is an FQ-CoDel that counts the packets it refuses at enqueue;
// its SetSink, Dequeue, Len and BytesQueued are FQ-CoDel's.
type refusals struct {
	*qdisc.FQCoDel
	n uint64
}

func (r *refusals) Enqueue(p *packet.Packet) bool {
	if r.FQCoDel.Enqueue(p) {
		return true
	}
	r.n++
	return false
}

// TestPoolCustodyFQCoDel drives an FQ-CoDel port into overflow victims
// and CoDel drops, lets the run drain, and checks the device's ledger and
// the pool: the port counts as dropped exactly the packets offered to it
// and not transmitted, and the pool got back every packet it handed out.
// The packets the discipline discarded after admitting them come back
// through the device's release sink, which counts them, not only those it
// refused at enqueue.
func TestPoolCustodyFQCoDel(t *testing.T) {
	for _, tc := range []struct {
		name  string
		limit int // FQ-CoDel byte limit; 0 = the large default
		ecn   packet.ECN
	}{
		// ECT packets are CE-marked instead of CoDel-dropped, so every
		// discard is an overflow victim.
		{"overflow", 64 << 10, packet.ECNECT},
		// The default limit never overflows here, so every discard is a
		// CoDel drop at dequeue.
		{"codel", 0, packet.ECNNotECT},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			w := netem.NewNetwork(eng)
			a, s, b := w.NewNode("a"), w.NewNode("s"), w.NewNode("b")
			as, sa := w.Connect(a, s, netem.LinkConfig{RateBps: 1e9, Delay: 1000})
			sb, bs := w.Connect(s, b, netem.LinkConfig{RateBps: 10e6, Delay: 1000})
			for _, d := range []*netem.Device{as, sa, bs} {
				d.SetQdisc(qdisc.NewFIFO(1 << 20))
			}
			fq := &refusals{FQCoDel: qdisc.NewFQCoDel(eng, tc.limit, 0, qdisc.DefaultCoDelParams())}
			sb.SetQdisc(fq)
			a.AddRoute(b.ID, as)
			s.AddRoute(b.ID, sb)

			// Two flows offer 20 and 10 Mbps of 1500 B packets to the
			// 10 Mbps port for one second: the backlog grows by about
			// 2.5 MB and its sojourn stays far above CoDel's target for
			// far longer than its interval.
			const stop = sim.Time(1e9)
			for i, gap := range []sim.Time{600e3, 1200e3} {
				key := packet.FlowKey{Src: a.ID, Dst: b.ID, SrcPort: uint16(i + 1), DstPort: 80, Proto: packet.ProtoTCP}
				b.Register(key, nullEndpoint{})
				var send sim.Func
				send = func() {
					p := a.AllocPacket()
					p.Flow, p.Size, p.PayloadSize, p.ECN = key, 1500, 1448, tc.ecn
					a.Inject(p)
					if eng.Now()+gap < stop {
						eng.ScheduleCall(gap, send, nil)
					}
				}
				eng.ScheduleCall(0, send, nil)
			}
			eng.RunAll()

			st, refused := sb.Stats(), fq.n
			if st.DropPackets <= refused {
				t.Fatalf("no discard after admission: port drops %d, refused at enqueue %d", st.DropPackets, refused)
			}
			if tc.limit == 0 && refused != 0 {
				t.Fatalf("the default limit refused %d packets", refused)
			}
			if fq.Len() != 0 || sb.Busy() {
				t.Fatalf("%d packets still queued after the run drained", fq.Len())
			}
			if offered := sa.Stats().RxPackets; st.DropPackets != offered-st.TxPackets {
				t.Fatalf("port dropped %d packets, offered %d and transmitted %d", st.DropPackets, offered, st.TxPackets)
			}
			pool := w.Pool()
			if got, want := uint64(pool.FreeLen()), pool.Gets-pool.Reuses; got != want {
				t.Fatalf("pool holds %d packets, handed out %d fresh (port drops %d, refused %d)", got, want, st.DropPackets, refused)
			}
		})
	}
}
