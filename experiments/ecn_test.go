package experiments

import (
	"testing"

	"cebinae/internal/packet"
	"cebinae/internal/qdisc"
	"cebinae/internal/tcp"
)

// TestTCPIgnoresCEMarks pins that the transport is not ECN-capable: for
// every registered CCA, two flows through a bottleneck that CE-marks every
// packet it admits take exactly the events, and report exactly the bytes,
// of the same run through a plain FIFO, and the marker never sees an ECT
// packet. Cebinae's CE marks reach an end host only through the backbone
// replay's closed loop (internal/replay's TestClosedLoopECNVersusDrop).
func TestTCPIgnoresCEMarks(t *testing.T) {
	for _, cc := range tcp.CCNames() {
		s := Scenario{
			BottleneckBps: 50e6,
			BufferBytes:   100 * 1500,
			Groups:        []FlowGroup{{CC: cc, Count: 2, RTT: ms(20)}},
			Duration:      Seconds(3),
			Qdisc:         FIFO,
			Seed:          3,
		}
		plain := s.graph().start(1).measure()

		g := s.graph().start(1)
		marker := &ceMarker{FIFO: qdisc.NewFIFO(s.BufferBytes)}
		g.fwd[0].SetQdisc(marker)
		marked := g.measure()

		if marker.ect != 0 {
			t.Errorf("%s: %d of %d packets arrived ECT; want none", cc, marker.ect, marker.admitted)
		}
		for _, f := range plain.Flows {
			if f.GoodputBps == 0 {
				t.Fatalf("%s: flow %d delivered nothing; the run shows nothing", cc, f.Index)
			}
		}
		if marked.Events != plain.Events || marked.Report() != plain.Report() {
			t.Errorf("%s: CE marks changed the run\nFIFO:\n%smarking:\n%s", cc, plain.Report(), marked.Report())
		}
	}
}

// ceMarker is a FIFO that sets CE on every packet it admits, whatever its
// codepoint, and counts those that arrived ECT.
type ceMarker struct {
	*qdisc.FIFO
	admitted, ect int
}

func (m *ceMarker) Enqueue(p *packet.Packet) bool {
	if !m.FIFO.Enqueue(p) {
		return false
	}
	m.admitted++
	if p.ECN == packet.ECNECT {
		m.ect++
	}
	p.ECN = packet.ECNCE
	return true
}
