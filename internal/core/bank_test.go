package core

import (
	"testing"

	"cebinae/internal/packet"
	"cebinae/internal/sim"
)

const bankBps, bankBuffer = 8e6, 1 << 20 // 1 MB/s

var (
	bankFlow  = packet.FlowKey{Src: 1, Dst: 2, SrcPort: 10, DstPort: 80, Proto: packet.ProtoTCP}
	bankOther = packet.FlowKey{Src: 1, Dst: 2, SrcPort: 11, DstPort: 80, Proto: packet.ProtoTCP}
)

// bankQdisc is a port at t=0, where every no-banking floor is zero, with
// distinct rates per group and queue (⊥ 1/4 then 1/2 of capacity, ⊤ 1/8
// then 1/16) and a second ⊤ flow with per-flow state, so a packet charged
// to the wrong bank or against the wrong rate lands elsewhere.
func bankQdisc(saturated, perFlow, top, state, markECN bool) *Qdisc {
	p := DefaultParams(bankBps, bankBuffer, sim.Duration(20e6))
	p.PerFlowTop = perFlow
	p.MarkECN = markECN
	q := New(sim.NewEngine(), bankBps, bankBuffer, p)
	capBytes := bankBps / 8.0
	q.saturated = saturated
	q.qrate[q.headq] = [numGroups]float64{groupBottom: capBytes / 4, groupTop: capBytes / 8}
	q.qrate[1-q.headq] = [numGroups]float64{groupBottom: capBytes / 2, groupTop: capBytes / 16}
	q.topSet[bankOther] = true
	q.topState[bankOther] = &topFlowState{rate: capBytes / 32}
	if top {
		q.topSet[bankFlow] = true
	}
	if state {
		q.topState[bankFlow] = &topFlowState{rate: capBytes / 32}
	}
	return q
}

// banks lists every byte bank of q by name.
func banks(q *Qdisc) map[string]float64 {
	out := map[string]float64{
		"total":   q.totalBytes,
		"⊥":       q.groupBytes[groupBottom],
		"⊤":       q.groupBytes[groupTop],
		"other ⊤": q.topState[bankOther].bytes,
	}
	if st := q.topState[bankFlow]; st != nil {
		out["own ⊤"] = st.bytes
	}
	return out
}

// TestEnqueueEveryBank drives Fig. 5's one test against every bank a packet
// can be charged to — the unsaturated aggregate, the ⊥ and ⊤ groups, a ⊤
// flow's own bank and a ⊤ flow without per-flow state under PerFlowTop —
// into headq, ¬headq and a drop. It checks the queue chosen, the Stats
// deltas, CE marking (only saturated, with MarkECN, on an ECT packet) and
// that exactly the charged bank and the aggregate counter grew.
func TestEnqueueEveryBank(t *testing.T) {
	capBytes := bankBps / 8.0
	cases := []struct {
		name                    string
		saturated, perFlow, top bool
		state                   bool
		bank                    string // the bank the packet is charged to
		rHead, rTail            float64
	}{
		{name: "unsaturated aggregate", top: true, state: true, perFlow: true, bank: "total", rHead: capBytes, rTail: capBytes},
		{name: "⊥ group", saturated: true, bank: "⊥", rHead: capBytes / 4, rTail: capBytes / 2},
		{name: "⊤ group", saturated: true, top: true, bank: "⊤", rHead: capBytes / 8, rTail: capBytes / 16},
		{name: "⊤ per-flow bank", saturated: true, perFlow: true, top: true, state: true, bank: "own ⊤", rHead: capBytes / 32, rTail: capBytes / 32},
		{name: "stateless ⊤ flow", saturated: true, perFlow: true, top: true, bank: "⊥", rHead: capBytes / 4, rTail: capBytes / 2},
	}
	const size = 1500
	for _, c := range cases {
		for _, outcome := range []string{"headq", "¬headq", "drop"} {
			for _, e := range []struct{ mark, ect bool }{{true, true}, {true, false}, {false, true}} {
				q := bankQdisc(c.saturated, c.perFlow, c.top, c.state, e.mark)
				dt := q.params.DT.Seconds()
				var fill float64
				switch outcome {
				case "¬headq":
					fill = c.rHead * dt
				case "drop":
					fill = c.rHead*dt + c.rTail*dt
				}
				switch c.bank {
				case "total":
					q.totalBytes = fill
				case "⊥":
					q.groupBytes[groupBottom] = fill
				case "⊤":
					q.groupBytes[groupTop] = fill
				case "own ⊤":
					q.topState[bankFlow].bytes = fill
				}
				before := banks(q)
				p := &packet.Packet{Flow: bankFlow, Size: size}
				if e.ect {
					p.ECN = packet.ECNECT
				}
				admitted := q.Enqueue(p)

				name := c.name + "/" + outcome
				ce := c.saturated && outcome == "¬headq" && e.mark && e.ect
				want := Stats{}
				switch outcome {
				case "headq":
					want.Enqueued = 1
				case "¬headq":
					want.Enqueued, want.Delayed = 1, 1
				case "drop":
					want.LBFDrops = 1
				}
				if ce {
					want.ECNMarked = 1
				}
				if q.Stats != want {
					t.Errorf("%s (mark=%v ect=%v): stats %+v, want %+v", name, e.mark, e.ect, q.Stats, want)
				}
				if admitted != (outcome != "drop") {
					t.Errorf("%s: Enqueue returned %v", name, admitted)
				}
				head, tail := q.queues[q.headq].Len(), q.queues[1-q.headq].Len()
				if wantHead, wantTail := b2i(outcome == "headq"), b2i(outcome == "¬headq"); head != wantHead || tail != wantTail {
					t.Errorf("%s: headq holds %d, ¬headq %d; want %d, %d", name, head, tail, wantHead, wantTail)
				}
				if got := p.ECN == packet.ECNCE; got != ce {
					t.Errorf("%s (mark=%v ect=%v): CE=%v, want %v", name, e.mark, e.ect, got, ce)
				}
				for k, v := range banks(q) {
					grew := admitted && (k == c.bank || k == "total")
					if w := before[k] + float64(b2i(grew)*size); v != w {
						t.Errorf("%s: bank %s = %v, want %v", name, k, v, w)
					}
				}
			}
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestFluidAdvanceCreditsBank: under PerFlowTop a fluid-advanced stretch
// credits each flow's bytes to the bank Enqueue would charge — a ⊤ flow
// with per-flow state to its own bank only, a ⊤ flow without state and a
// ⊥ flow to ⊥, never the ⊤ group bank per-flow admission does not read —
// and every byte to the aggregate counter.
func TestFluidAdvanceCreditsBank(t *testing.T) {
	q := bankQdisc(true, true, true, false, false)
	rest := packet.FlowKey{Src: 3, Dst: 4, SrcPort: 12, DstPort: 80, Proto: packet.ProtoTCP}
	q.FluidAdvance([]FlowBytes{
		{Flow: bankOther, Bytes: 1000, Packets: 1},
		{Flow: bankFlow, Bytes: 2000, Packets: 2},
		{Flow: rest, Bytes: 4000, Packets: 3},
	})
	want := map[string]float64{"total": 7000, "⊥": 6000, "⊤": 0, "other ⊤": 1000}
	got := banks(q)
	for k, w := range want {
		if got[k] != w {
			t.Errorf("bank %s = %v, want %v (all: %v)", k, got[k], w, got)
		}
	}
}
