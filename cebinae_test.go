// Facade-level tests: the public API assembles a working simulation, and
// simulations are bit-for-bit deterministic for a fixed seed — the property
// every reproduction claim in EXPERIMENTS.md rests on.
package cebinae_test

import (
	"testing"

	"cebinae"
	"cebinae/experiments"
)

// runPublicScenario drives a small two-flow Cebinae simulation purely
// through the facade and returns the flows' delivered byte totals.
func runPublicScenario(seed uint64) [2]int64 {
	eng := cebinae.NewEngine()
	net := cebinae.NewNetwork(eng)
	const rate = 50e6
	buf := 256 * 1500
	d := cebinae.BuildDumbbell(net, cebinae.DumbbellConfig{
		FlowCount:       2,
		BottleneckBps:   rate,
		BottleneckDelay: cebinae.Millis(0.1),
		RTTs:            []cebinae.Time{cebinae.Millis(20), cebinae.Millis(40)},
		BottleneckQdisc: func(dev *cebinae.Device) cebinae.Queue {
			q := cebinae.NewQdisc(eng, rate, buf, cebinae.DefaultParams(rate, buf, cebinae.Millis(40)))
			q.OnDrain = dev.Kick
			return q
		},
		DefaultQdisc: func() cebinae.Queue { return cebinae.NewFIFO(8 << 20) },
	})
	var meters [2]*cebinae.FlowMeter
	for i := 0; i < 2; i++ {
		key := cebinae.FlowKey{Src: d.Senders[i].ID, Dst: d.Receivers[i].ID, SrcPort: 1, DstPort: uint16(10 + i), Proto: 6}
		cc, _ := cebinae.NewCC([]string{"cubic", "newreno"}[i])
		cebinae.NewConn(eng, d.Senders[i], cebinae.ConnConfig{Key: key, CC: cc, Seed: seed})
		recv := cebinae.NewReceiver(eng, d.Receivers[i], cebinae.ReceiverConfig{Key: key})
		m := &cebinae.FlowMeter{}
		recv.GoodputAt = m.Record
		meters[i] = m
	}
	eng.Run(cebinae.Seconds(5))
	return [2]int64{meters[0].Total(), meters[1].Total()}
}

// TestPublicAPIEndToEnd: the facade alone can build and run a simulation
// that moves realistic traffic.
func TestPublicAPIEndToEnd(t *testing.T) {
	got := runPublicScenario(1)
	total := got[0] + got[1]
	// 5 s at 50 Mbps ⇒ ≈31 MB of payload capacity; demand ≥70% of it.
	if total < 20<<20 {
		t.Fatalf("public-API scenario moved only %d bytes", total)
	}
	if got[0] == 0 || got[1] == 0 {
		t.Fatalf("a flow starved completely: %v", got)
	}
}

// TestDeterminism: identical seeds give bit-identical outcomes; different
// seeds diverge. Every number in EXPERIMENTS.md depends on this.
func TestDeterminism(t *testing.T) {
	a := runPublicScenario(42)
	b := runPublicScenario(42)
	if a != b {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	c := runPublicScenario(43)
	if a == c {
		t.Fatalf("different seeds should perturb the outcome: %v", a)
	}
}

// TestExperimentsDeterminism: the scenario runner is deterministic too.
func TestExperimentsDeterminism(t *testing.T) {
	run := func() float64 {
		r := experiments.Run(experiments.Scenario{
			Name:          "det",
			BottleneckBps: 20e6,
			BufferBytes:   128 * 1500,
			Groups:        []experiments.FlowGroup{{CC: "newreno", Count: 3, RTT: experiments.Millis(20)}},
			Duration:      experiments.Seconds(4),
			Qdisc:         experiments.Cebinae,
			Seed:          9,
		})
		return r.JFI*1e9 + r.GoodputBps
	}
	if run() != run() {
		t.Fatal("experiments.Run is not deterministic")
	}
}

// TestFacadeHelpers covers the small conversion/metric helpers.
func TestFacadeHelpers(t *testing.T) {
	if cebinae.Millis(1.5) != 1500000 || cebinae.Seconds(2) != 2e9 {
		t.Fatal("time helpers wrong")
	}
	if cebinae.JFI([]float64{1, 1}) != 1 {
		t.Fatal("JFI re-export wrong")
	}
	if got := cebinae.NormalizedJFI([]float64{2, 4}, []float64{2, 4}); got != 1 {
		t.Fatalf("NormalizedJFI re-export wrong: %v", got)
	}
	if _, ok := cebinae.NewCC("newreno"); !ok {
		t.Fatal("CC registry re-export wrong")
	}
}

// TestCCNamesBuild: every name CCNames lists builds through NewCC, and a
// name it does not list does not.
func TestCCNamesBuild(t *testing.T) {
	names := cebinae.CCNames()
	if len(names) == 0 {
		t.Fatal("CCNames lists nothing")
	}
	for _, name := range names {
		if cc, ok := cebinae.NewCC(name); !ok || cc == nil {
			t.Errorf("NewCC(%q) = %v, %v", name, cc, ok)
		}
	}
	if _, ok := cebinae.NewCC("htcp"); ok {
		t.Error(`NewCC("htcp") built a CC no name lists`)
	}
}
