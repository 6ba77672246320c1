package maxmin

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"cebinae/internal/sim"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-6*math.Max(1, math.Abs(b)) }

func TestSingleLinkEqualShare(t *testing.T) {
	n := &Network{Capacity: []float64{100}, Routes: [][]int{{0}, {0}, {0}, {0}}}
	rates, err := Allocate(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rates {
		if !almostEq(r, 25) {
			t.Fatalf("equal share violated: %v", rates)
		}
	}
	if err := VerifyDefinition2(n, rates, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestDemandBounded(t *testing.T) {
	n := &Network{
		Capacity: []float64{100},
		Routes:   [][]int{{0}, {0}},
		Demand:   []float64{10, 0},
	}
	rates, err := Allocate(n)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(rates[0], 10) || !almostEq(rates[1], 90) {
		t.Fatalf("demand-bounded allocation wrong: %v", rates)
	}
}

// TestPaperFig2b reproduces the paper's Figure 2b example: ℓ-chain where
// A (via ℓ1,ℓ3,ℓ4) shares with B (ℓ1,ℓ2) and C (ℓ2,ℓ5); capacities
// ℓ1=20, ℓ2=10, ℓ3=20, ℓ4=20, ℓ5=2. Expected: C=2 (ℓ5), B=8 (ℓ2),
// A=12 (ℓ1).
func TestPaperFig2b(t *testing.T) {
	n := &Network{
		Capacity: []float64{20, 10, 20, 20, 2},
		Routes: [][]int{
			{0, 2, 3}, // A
			{0, 1},    // B
			{1, 4},    // C
		},
	}
	rates, err := Allocate(n)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(rates[2], 2) || !almostEq(rates[1], 8) || !almostEq(rates[0], 12) {
		t.Fatalf("Fig.2b allocation wrong: %v", rates)
	}
	if err := VerifyDefinition2(n, rates, 1e-9); err != nil {
		t.Fatal(err)
	}
}

// TestParkingLotIdeal reproduces the Fig. 11 topology's ideal allocation:
// 8 long flows over 3 links of 100, cross traffic 2/8/4 per hop. Water
// filling: hop 2 (8 long + 8 cross = 16 flows) binds at 6.25; then Bic get
// (100−50)/2 = 25 and Cubic (100−50)/4 = 12.5.
func TestParkingLotIdeal(t *testing.T) {
	n := &Network{Capacity: []float64{100, 100, 100}}
	for i := 0; i < 8; i++ {
		n.Routes = append(n.Routes, []int{0, 1, 2})
	}
	for i := 0; i < 2; i++ {
		n.Routes = append(n.Routes, []int{0})
	}
	for i := 0; i < 8; i++ {
		n.Routes = append(n.Routes, []int{1})
	}
	for i := 0; i < 4; i++ {
		n.Routes = append(n.Routes, []int{2})
	}
	rates, err := Allocate(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if !almostEq(rates[i], 6.25) {
			t.Fatalf("long flow %d: %v", i, rates[i])
		}
	}
	for i := 8; i < 10; i++ {
		if !almostEq(rates[i], 25) {
			t.Fatalf("bic flow %d: %v", i, rates[i])
		}
	}
	for i := 10; i < 18; i++ {
		if !almostEq(rates[i], 6.25) {
			t.Fatalf("vegas flow %d: %v", i, rates[i])
		}
	}
	for i := 18; i < 22; i++ {
		if !almostEq(rates[i], 12.5) {
			t.Fatalf("cubic flow %d: %v", i, rates[i])
		}
	}
	if err := VerifyDefinition2(n, rates, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadInput(t *testing.T) {
	cases := []*Network{
		{Capacity: []float64{10}, Routes: [][]int{{1}}},                         // bad link index
		{Capacity: []float64{10}, Routes: [][]int{{}}},                          // empty route
		{Capacity: []float64{0}, Routes: [][]int{{0}}},                          // zero capacity
		{Capacity: []float64{1}, Routes: [][]int{{0}}, Demand: []float64{1, 2}}, // shape
	}
	for i, n := range cases {
		if _, err := Allocate(n); err == nil {
			t.Fatalf("case %d should fail validation", i)
		}
	}

	// Values Allocate would otherwise turn into a silent answer or a
	// misleading "no binding constraint": each is refused by name.
	nan, inf := math.NaN(), math.Inf(1)
	two := [][]int{{0}, {0}}
	refused := []struct {
		n    Network
		want string
	}{
		{Network{Capacity: []float64{nan}, Routes: [][]int{{0}}, Demand: []float64{5}}, "link 0 capacity NaN"},
		{Network{Capacity: []float64{inf}, Routes: [][]int{{0}}}, "link 0 capacity +Inf"},
		{Network{Capacity: []float64{10}, Routes: two, Demand: []float64{1, nan}}, "flow 1 demand NaN"},
	}
	for _, c := range refused {
		if err := c.n.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate(%+v) = %v, want an error naming %q", c.n, err, c.want)
		}
	}

	// The documented fallback stays valid: a non-positive or +Inf demand
	// is unbounded.
	ok := Network{Capacity: []float64{10}, Routes: [][]int{{0}, {0}, {0}},
		Demand: []float64{0, -2, inf}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("fallback values refused: %v", err)
	}
}

// TestWaterFillingInvariants: for random single-path topologies the
// allocation must (a) respect every capacity, (b) satisfy Definition 2,
// (c) be Pareto-efficient in the sense that every link is either saturated
// or all its flows are demand-bounded.
func TestWaterFillingInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		nLinks := 1 + rng.Intn(6)
		nFlows := 1 + rng.Intn(10)
		n := &Network{}
		for i := 0; i < nLinks; i++ {
			n.Capacity = append(n.Capacity, 1+rng.Float64()*99)
		}
		for i := 0; i < nFlows; i++ {
			hops := 1 + rng.Intn(nLinks)
			perm := rng.Perm(nLinks)
			n.Routes = append(n.Routes, perm[:hops])
		}
		rates, err := Allocate(n)
		if err != nil {
			return false
		}
		load := make([]float64, nLinks)
		for fi, route := range n.Routes {
			if rates[fi] < 0 {
				return false
			}
			for _, l := range route {
				load[l] += rates[fi]
			}
		}
		for l := range load {
			if load[l] > n.Capacity[l]*(1+1e-9) {
				return false
			}
		}
		return VerifyDefinition2(n, rates, 1e-6) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMaxMinUniqueDefinition1: perturbing any flow up in a verified
// allocation must violate some capacity or require a smaller flow to give
// way (spot-check of Definition 1 on the Fig. 2b example).
func TestMaxMinUniqueDefinition1(t *testing.T) {
	n := &Network{
		Capacity: []float64{20, 10, 20, 20, 2},
		Routes:   [][]int{{0, 2, 3}, {0, 1}, {1, 4}},
	}
	rates, _ := Allocate(n)
	// Raising C (the smallest flow) is impossible without violating ℓ5.
	load5 := rates[2]
	if load5+0.001 <= 2 {
		t.Fatalf("C should be pinned at ℓ5's capacity: %v", rates)
	}
}

// allocateRounds is Allocate as it was before rounds skipped frozen flows:
// every round rescans every flow. It is the oracle the rewrite must match
// bit for bit.
func allocateRounds(n *Network) ([]float64, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	nf := len(n.Routes)
	rates := make([]float64, nf)
	frozen := make([]bool, nf)
	remaining := append([]float64(nil), n.Capacity...)
	active := make([][]int, len(n.Capacity))
	for f, route := range n.Routes {
		for _, l := range route {
			active[l] = append(active[l], f)
		}
	}
	unfrozen := func(l int) int {
		k := 0
		for _, f := range active[l] {
			if !frozen[f] {
				k++
			}
		}
		return k
	}
	for left := nf; left > 0; {
		increment := math.Inf(1)
		for l := range n.Capacity {
			if k := unfrozen(l); k > 0 {
				if share := remaining[l] / float64(k); share < increment {
					increment = share
				}
			}
		}
		for f := 0; f < nf; f++ {
			if !frozen[f] {
				if headroom := n.demand(f) - rates[f]; headroom < increment {
					increment = headroom
				}
			}
		}
		if math.IsInf(increment, 1) || increment < 0 {
			return nil, fmt.Errorf("maxmin: no binding constraint (increment %v)", increment)
		}
		for f := 0; f < nf; f++ {
			if frozen[f] {
				continue
			}
			rates[f] += increment
			for _, l := range n.Routes[f] {
				remaining[l] -= increment
			}
		}
		const eps = 1e-9
		for f := 0; f < nf; f++ {
			if frozen[f] {
				continue
			}
			done := rates[f] >= n.demand(f)-eps
			if !done {
				for _, l := range n.Routes[f] {
					if remaining[l] <= eps*n.Capacity[l] {
						done = true
						break
					}
				}
			}
			if done {
				frozen[f] = true
				left--
			}
		}
	}
	return rates, nil
}

// TestAllocateMatchesRounds: on random multi-hop networks with a few
// shared demand levels (so one round freezes many flows at once), Allocate
// returns the oracle's rates bit for bit, or the same error. Capacities
// and levels are inexact in binary, so reordering any charge moves a low
// bit somewhere.
func TestAllocateMatchesRounds(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		nLinks := 1 + rng.Intn(6)
		nFlows := 1 + rng.Intn(200)
		n := &Network{}
		for i := 0; i < nLinks; i++ {
			n.Capacity = append(n.Capacity, 1+rng.Float64()*999)
		}
		for i := 0; i < nFlows; i++ {
			hops := 1 + rng.Intn(nLinks)
			n.Routes = append(n.Routes, rng.Perm(nLinks)[:hops])
		}
		if rng.Intn(4) != 0 {
			levels := make([]float64, 1+rng.Intn(6))
			for i := range levels {
				levels[i] = rng.Float64() * 20
			}
			levels[0] = 0 // unbounded
			for i := 0; i < nFlows; i++ {
				n.Demand = append(n.Demand, levels[rng.Intn(len(levels))])
			}
		}
		got, gotErr := Allocate(n)
		want, wantErr := allocateRounds(n)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Logf("seed %d: error %v, oracle %v", seed, gotErr, wantErr)
			return false
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Logf("seed %d: flow %d rate %v, oracle %v", seed, i, got[i], want[i])
				return false
			}
		}
		return len(got) == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestAllocateAllocsIndependentOfRounds: water-filling allocates the same
// number of objects whether it runs 8 rounds or 2 000, so no round grows
// or rebuilds a buffer. The flows share one link whose capacity exceeds
// their demands, so each distinct demand level is one round. The forced
// GC first starts the collector's background workers, whose start
// allocates: left to the first automatic cycle, it can land in either count.
func TestAllocateAllocsIndependentOfRounds(t *testing.T) {
	runtime.GC()
	allocs := func(levels int) float64 {
		const flows = 20_000
		n := &Network{Capacity: []float64{1e12}, Routes: make([][]int, flows), Demand: make([]float64, flows)}
		link := []int{0}
		for i := range n.Routes {
			n.Routes[i] = link
			n.Demand[i] = float64(1 + i%levels)
		}
		return testing.AllocsPerRun(2, func() {
			if _, err := Allocate(n); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(8), allocs(2000); few != many {
		t.Fatalf("Allocate makes %.0f allocations in 8 rounds and %.0f in 2 000, want the same", few, many)
	}
}

// BenchmarkAllocate times both shapes Allocate meets. demand-limited is
// the backbone's scoring: 70 000 flows on one 10 Gbps link whose demands
// are heavy-tailed whole 700 B packets over one second, below capacity
// together, so every distinct demand is one round. link-bound is the
// benchmark driver's: 50 000 flows on 300 levels, four times the link,
// so the water level binds after a few rounds.
func BenchmarkAllocate(b *testing.B) {
	const pktBits = 700 * 8
	shapes := []struct {
		name string
		net  *Network
	}{
		{"demand-limited", func() *Network {
			const flows = 70_000
			n := &Network{Capacity: []float64{10e9}, Routes: make([][]int, flows), Demand: make([]float64, flows)}
			rng := sim.NewRand(1)
			link := []int{0}
			var sum float64
			for i := range n.Routes {
				// Pareto(α = 1.2) packet counts, capped at 10⁴.
				pkts := math.Min(math.Floor(math.Pow(1-rng.Float64(), -1/1.2)), 1e4)
				n.Routes[i] = link
				n.Demand[i] = pkts * pktBits
				sum += n.Demand[i]
			}
			if sum >= n.Capacity[0] {
				b.Fatal("demand-limited shape oversubscribes its link")
			}
			return n
		}()},
		{"link-bound", func() *Network {
			const flows = 50_000
			n := &Network{Capacity: []float64{10e9}, Routes: make([][]int, flows), Demand: make([]float64, flows)}
			link := []int{0}
			for i := range n.Routes {
				n.Routes[i] = link
				n.Demand[i] = float64(1+(i*i)%300) * pktBits
			}
			return n
		}()},
	}
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Allocate(s.net); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
