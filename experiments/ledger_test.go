package experiments

import (
	"testing"

	"cebinae/internal/packet"
)

// TestDropLedger pins the switch-level conservation law on a congested
// dumbbell under every port discipline: at the horizon, the packets a
// switch received equal those its devices transmitted, dropped, still
// queue or are serialising, plus those it could not route. A discipline
// whose discards bypass its device's drop count (FQ-CoDel's overflow
// victims and CoDel drops, released after admission) breaks the law.
//
// The same law holds in bytes: the bytes a switch received equal those it
// transmitted, dropped and still queues, plus at most one full packet for
// each device still serialising. Byte counts are read off the packets, so
// a count taken after the packet was handed off (a read after release
// sees the packetdebug build's negative sentinel size) breaks it.
func TestDropLedger(t *testing.T) {
	for _, kind := range []QdiscKind{FIFO, FQ, AFQ, PCQ, Strawman, Cebinae} {
		t.Run(string(kind), func(t *testing.T) {
			s := Scenario{
				BottleneckBps: 100e6,
				BufferBytes:   150e3,
				Groups: []FlowGroup{
					{CC: "cubic", Count: 6, RTT: ms(20)},
					{CC: "newreno", Count: 4, RTT: ms(60)},
				},
				Duration: Seconds(3),
				Qdisc:    kind,
			}
			cfg := s.graph()
			g := cfg.start(1)
			g.measure()
			switches := map[string]bool{}
			for _, sw := range cfg.Switches {
				switches[sw.Name] = true
			}
			for _, n := range g.cl.Shard(0).Net.Nodes() {
				if !switches[n.Name] {
					continue
				}
				var rx, tx, drop, queued, busy uint64
				var rxB, txB, dropB, queuedB uint64
				for _, d := range n.Devices() {
					st := d.Stats()
					rx += st.RxPackets
					tx += st.TxPackets
					drop += st.DropPackets
					queued += uint64(d.Qdisc().Len())
					if d.Busy() {
						busy++
					}
					rxB += st.RxBytes
					txB += st.TxBytes
					dropB += st.DropBytes
					queuedB += uint64(d.Qdisc().BytesQueued())
				}
				if out := tx + drop + queued + busy + n.Unroutable; rx != out {
					t.Errorf("%s: received %d packets, accounted for %d (transmitted %d + dropped %d + queued %d + serialising %d + unroutable %d)",
						n.Name, rx, out, tx, drop, queued, busy, n.Unroutable)
				}
				if out := txB + dropB + queuedB; out > rxB || rxB-out > busy*(packet.MSS+packet.HeaderBytes) {
					t.Errorf("%s: received %d bytes, accounted for %d (transmitted %d + dropped %d + queued %d) with %d devices serialising",
						n.Name, rxB, out, txB, dropB, queuedB, busy)
				}
				t.Logf("%s: received %d packets (%d B), transmitted %d, dropped %d, queued %d, serialising %d", n.Name, rx, rxB, tx, drop, queued, busy)
			}
			if g.fwd[0].Stats().DropPackets == 0 {
				t.Error("the bottleneck dropped nothing: the dumbbell is not congested")
			}
		})
	}
}
