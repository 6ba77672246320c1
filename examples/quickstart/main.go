// Quickstart: the paper's Figure-1 scenario in ~80 lines — two TCP NewReno
// flows with different base RTTs (20.4 ms and 40 ms) share a 100 Mbps
// bottleneck. Run once with a FIFO bottleneck and once with Cebinae, and
// print the per-second goodput of each flow side by side.
//
//	go run ./examples/quickstart [-seconds 30]
package main

import (
	"flag"
	"fmt"

	"cebinae"
)

func run(useCebinae bool, seconds int) ([][]float64, float64) {
	eng := cebinae.NewEngine()
	net := cebinae.NewNetwork(eng)

	const (
		rate   = 100e6      // bottleneck, bits/sec
		buffer = 450 * 1500 // bytes
	)
	rtts := []cebinae.Time{cebinae.Millis(20.4), cebinae.Millis(40)}

	d := cebinae.BuildDumbbell(net, cebinae.DumbbellConfig{
		FlowCount:       2,
		BottleneckBps:   rate,
		BottleneckDelay: cebinae.Millis(0.1),
		RTTs:            rtts,
		BottleneckQdisc: func(dev *cebinae.Device) cebinae.Queue {
			if useCebinae {
				q := cebinae.NewQdisc(eng, rate, buffer, cebinae.DefaultParams(rate, buffer, rtts[1]))
				q.OnDrain = dev.Kick
				return q
			}
			return cebinae.NewFIFO(buffer)
		},
		DefaultQdisc: func() cebinae.Queue { return cebinae.NewFIFO(16 << 20) },
	})

	dur := cebinae.Seconds(float64(seconds))
	meters := make([]*cebinae.FlowMeter, 2)
	for i := 0; i < 2; i++ {
		key := cebinae.FlowKey{
			Src: d.Senders[i].ID, Dst: d.Receivers[i].ID,
			SrcPort: uint16(1000 + i), DstPort: uint16(5000 + i), Proto: 6,
		}
		cc, _ := cebinae.NewCC("newreno")
		cebinae.NewConn(eng, d.Senders[i], cebinae.ConnConfig{Key: key, CC: cc})
		recv := cebinae.NewReceiver(eng, d.Receivers[i], cebinae.ReceiverConfig{Key: key})
		m := &cebinae.FlowMeter{}
		// A meter keeps only the instants it is asked about: the series
		// grid and the measurement window.
		m.Mark(cebinae.SeriesInstants(cebinae.Seconds(1), dur)...)
		m.Mark(dur/5, dur)
		recv.GoodputAt = m.Record
		meters[i] = m
	}

	eng.Run(dur)

	series := make([][]float64, 2)
	rates := make([]float64, 2)
	for i, m := range meters {
		series[i] = m.Series(cebinae.Seconds(1), dur)
		rates[i] = m.RateOver(dur/5, dur)
	}
	return series, cebinae.JFI(rates)
}

func main() {
	seconds := flag.Int("seconds", 30, "simulated seconds per run")
	flag.Parse()

	fifo, fifoJFI := run(false, *seconds)
	ceb, cebJFI := run(true, *seconds)

	fmt.Println("Two NewReno flows, RTT 20.4 ms vs 40 ms, 100 Mbps bottleneck")
	fmt.Printf("%5s | %12s %12s | %15s %15s\n", "t[s]", "FIFO 20.4ms", "FIFO 40ms", "Cebinae 20.4ms", "Cebinae 40ms")
	for i := range fifo[0] {
		fmt.Printf("%5d | %12.2f %12.2f | %15.2f %15.2f\n", i+1,
			fifo[0][i]*8/1e6, fifo[1][i]*8/1e6, ceb[0][i]*8/1e6, ceb[1][i]*8/1e6)
	}
	fmt.Printf("\nJFI (tail window): FIFO=%.3f  Cebinae=%.3f\n", fifoJFI, cebJFI)
}
