// Blind UDP blaster vs TCP (extension scenario): a non-congestion-
// controlled 80 Mbps CBR source shares a 100 Mbps Cebinae-guarded link with
// eight NewReno flows. The run stops twice per second to print the
// bottleneck's counters, the saturated-phase flag and the ⊤ classification
// latching onto the blaster. The paper notes blind flows ultimately need admission
// control; this example shows how far taxation alone goes.
//
//	go run ./examples/blind_udp [-seconds 20]
package main

import (
	"flag"
	"fmt"

	"cebinae"
)

func main() {
	seconds := flag.Int("seconds", 20, "simulated seconds")
	flag.Parse()

	eng := cebinae.NewEngine()
	net := cebinae.NewNetwork(eng)

	const (
		rate = 100e6
		buf  = 850 * 1500
		nTCP = 8
	)
	var q *cebinae.Qdisc
	d := cebinae.BuildDumbbell(net, cebinae.DumbbellConfig{
		FlowCount:       nTCP + 1,
		BottleneckBps:   rate,
		BottleneckDelay: cebinae.Millis(0.1),
		RTTs:            []cebinae.Time{cebinae.Millis(40)},
		BottleneckQdisc: func(dev *cebinae.Device) cebinae.Queue {
			q = cebinae.NewQdisc(eng, rate, buf, cebinae.DefaultParams(rate, buf, cebinae.Millis(40)))
			q.OnDrain = dev.Kick
			return q
		},
		DefaultQdisc: func() cebinae.Queue { return cebinae.NewFIFO(16 << 20) },
	})

	// Blind 80 Mbps blaster on host pair 0.
	udpKey := cebinae.FlowKey{Src: d.Senders[0].ID, Dst: d.Receivers[0].ID, SrcPort: 9, DstPort: 9, Proto: 17}
	blaster := cebinae.NewCBRSource(eng, d.Senders[0], udpKey, 0.8*rate, 0)

	// Eight NewReno flows on pairs 1…8, each metered over the last four
	// fifths of the run.
	step, dur := cebinae.Millis(500), cebinae.Seconds(float64(*seconds))
	meters := make([]*cebinae.FlowMeter, nTCP)
	for i := 0; i < nTCP; i++ {
		key := cebinae.FlowKey{
			Src: d.Senders[i+1].ID, Dst: d.Receivers[i+1].ID,
			SrcPort: uint16(100 + i), DstPort: uint16(200 + i), Proto: 6,
		}
		cebinae.NewConn(eng, d.Senders[i+1], cebinae.ConnConfig{Key: key, Seed: uint64(i), MinRTO: cebinae.Seconds(1)})
		recv := cebinae.NewReceiver(eng, d.Receivers[i+1], cebinae.ReceiverConfig{Key: key})
		m := &cebinae.FlowMeter{}
		m.Mark(dur/5, dur)
		recv.GoodputAt = m.Record
		meters[i] = m
	}

	fmt.Println("Bottleneck every 500 ms ('*' = saturated phase, ⊤ = flows taxed):")
	fmt.Printf("%10s | %10s | %8s | %9s | %4s | %4s\n", "t", "tx[Mbps]", "queue[B]", "drops/s", "sat", "⊤")
	var lastTx, lastDrops uint64
	var saturated, samples, peak int
	for t := step; t <= dur; t += step {
		eng.Run(t)
		st := d.Bottleneck.Stats()
		sat := " "
		if q.Saturated() {
			sat = "*"
			saturated++
		}
		samples++
		peak = max(peak, q.BytesQueued())
		fmt.Printf("%10v | %10.2f | %8d | %9.1f | %4s | %4d\n", t, float64(st.TxBytes-lastTx)*8/step.Seconds()/1e6,
			q.BytesQueued(), float64(st.DropPackets-lastDrops)/step.Seconds(), sat, len(q.TopFlows()))
		lastTx, lastDrops = st.TxBytes, st.DropPackets
	}

	rates := make([]float64, nTCP)
	var tcpSum float64
	for i, m := range meters {
		rates[i] = m.RateOver(dur/5, dur)
		tcpSum += rates[i] * 8
	}
	fmt.Printf("\nblaster sent %d packets; TCP aggregate %.2f Mbps, TCP JFI %.3f\n",
		blaster.Sent, tcpSum/1e6, cebinae.JFI(rates))
	fmt.Printf("mean utilisation %.1f%%, saturated %.1f%% of samples, peak queue %d B\n",
		100*float64(lastTx)*8/dur.Seconds()/rate, 100*float64(saturated)/float64(samples), peak)
}
