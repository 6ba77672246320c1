package qdisc

import (
	"math"
	"testing"

	"cebinae/internal/packet"
	"cebinae/internal/sim"
)

// balanceQdisc is the surface the conservation invariant needs; FIFO,
// FQCoDel, and Lossy all satisfy it.
type balanceQdisc interface {
	Enqueue(p *packet.Packet) bool
	Dequeue() *packet.Packet
	Len() int
	BytesQueued() int
}

// TestBacklogAndBalanceInvariants drives each discipline with a seeded,
// enqueue-biased op sequence and checks after every single operation that
// the backlog never goes negative, Len and BytesQueued agree about
// emptiness, and every packet ever offered is accounted for as exactly one
// of delivered, still queued, or dropped — refused at enqueue or released
// through the sink, as a netem device counts them. The limits are tight
// enough that every case actually exercises its drop path.
func TestBacklogAndBalanceInvariants(t *testing.T) {
	cases := []struct {
		name  string
		build func(eng *sim.Engine) balanceQdisc
	}{
		{"fifo", func(eng *sim.Engine) balanceQdisc {
			return NewFIFO(8 << 10)
		}},
		{"fqcodel", func(eng *sim.Engine) balanceQdisc {
			// Fattest-flow overflow at enqueue and CoDel drops at dequeue
			// both reach the ledger, so the same identity covers both paths.
			return NewFQCoDel(eng, 8<<10, 1500, DefaultCoDelParams())
		}},
		{"lossy", func(eng *sim.Engine) balanceQdisc {
			l := NewLossy(NewFIFO(8<<10), 7)
			l.DropProb = 0.05
			l.DropNth = map[uint64]bool{3: true, 50: true}
			return l
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			q := tc.build(eng)
			var led ledger
			if s, ok := q.(interface{ SetSink(packet.Sink) }); ok {
				s.SetSink(&led)
			}
			rng := sim.NewRand(12345)
			var offered, delivered uint64
			const steps = 4000
			for i := 0; i < steps; i++ {
				i := i
				// Real time must advance between ops so FQCoDel sees
				// nonzero sojourns rather than a frozen clock.
				eng.ScheduleCall(sim.Time(i)*5e5, sim.Func(func() {
					if rng.Intn(100) < 60 {
						p := pkt(rng.Intn(4), int32(100+rng.Intn(1400)))
						p.Seq = int64(i) * 64
						offered++
						led.offer(q, p)
					} else if p := q.Dequeue(); p != nil {
						delivered++
					}
					if q.Len() < 0 || q.BytesQueued() < 0 {
						t.Fatalf("step %d: negative backlog len=%d bytes=%d", i, q.Len(), q.BytesQueued())
					}
					if (q.Len() == 0) != (q.BytesQueued() == 0) {
						t.Fatalf("step %d: len=%d and bytes=%d disagree about emptiness", i, q.Len(), q.BytesQueued())
					}
					if got := delivered + uint64(q.Len()) + led.drops; got != offered {
						t.Fatalf("step %d: delivered %d + queued %d + dropped %d != offered %d",
							i, delivered, q.Len(), led.drops, offered)
					}
				}), nil)
			}
			eng.RunAll()
			for p := q.Dequeue(); p != nil; p = q.Dequeue() {
				delivered++
			}
			if q.Len() != 0 || q.BytesQueued() != 0 {
				t.Fatalf("drained queue reports len=%d bytes=%d", q.Len(), q.BytesQueued())
			}
			if delivered+led.drops != offered {
				t.Fatalf("final balance: delivered %d + dropped %d != offered %d", delivered, led.drops, offered)
			}
			if led.drops == 0 {
				t.Fatal("scenario exercised no drops; the limit is not tight enough to test the drop path")
			}
		})
	}
}

// TestCoDelDropSpacingFollowsControlLaw pins the RFC 8289 control law on
// the raw state machine: within a dropping episode the scheduled drop
// times advance by exactly Interval/sqrt(dropCount), so successive gaps
// shrink monotonically while dropNextAt strictly increases. It then checks
// that one below-target sojourn ends the episode, and that re-entering
// shortly after resumes near the previous drop rate instead of restarting
// from one drop per interval.
func TestCoDelDropSpacingFollowsControlLaw(t *testing.T) {
	st := codelState{params: DefaultCoDelParams()}
	interval := st.params.Interval
	sojourn := 2 * st.params.Target
	qbytes := 10 * packet.MSS

	type obs struct {
		at, next sim.Time
		count    uint32
	}
	var drops []obs
	var last sim.Time
	for now := sim.Time(0); now < 3e9; now += 1e6 {
		if st.shouldDrop(sojourn, now, qbytes) {
			drops = append(drops, obs{now, st.dropNextAt, st.dropCount})
		}
		last = now
	}
	if len(drops) < 20 {
		t.Fatalf("sustained above-target sojourn produced only %d drops", len(drops))
	}
	// Entry: okToDrop needs a full interval above target, and the cold
	// dropNextAt=0 path needs a second interval before now-firstAboveAt
	// reaches Interval, so the first drop lands exactly at 2*Interval.
	if drops[0].at != 2*interval || drops[0].count != 1 {
		t.Fatalf("first drop at %d with count %d, want %d with count 1", drops[0].at, drops[0].count, 2*interval)
	}
	for i := 1; i < len(drops); i++ {
		if drops[i].count != drops[i-1].count+1 {
			t.Fatalf("drop %d: count %d, want %d", i, drops[i].count, drops[i-1].count+1)
		}
		if drops[i].next <= drops[i-1].next {
			t.Fatalf("drop %d: dropNextAt %d did not advance past %d", i, drops[i].next, drops[i-1].next)
		}
		gap := drops[i].next - drops[i-1].next
		want := sim.Time(float64(interval) / math.Sqrt(float64(drops[i].count)))
		if gap != want {
			t.Fatalf("drop %d: dropNextAt advanced by %d, control law says %d", i, gap, want)
		}
		prevGap := drops[i-1].next - func() sim.Time {
			if i >= 2 {
				return drops[i-2].next
			}
			return drops[i-1].next - gap - 1 // force prevGap > gap for i==1
		}()
		if gap >= prevGap {
			t.Fatalf("drop %d: gap %d did not shrink from %d", i, gap, prevGap)
		}
		// The actual drop instant is the first 1 ms tick at or after the
		// previously scheduled dropNextAt.
		if drops[i].at < drops[i-1].next || drops[i].at-drops[i-1].next >= 1e6 {
			t.Fatalf("drop %d fired at %d, scheduled for %d", i, drops[i].at, drops[i-1].next)
		}
	}

	// A single below-target sojourn exits the dropping state.
	peakCount := st.dropCount
	if st.shouldDrop(st.params.Target-1, last+1e6, qbytes) {
		t.Fatal("below-target sojourn must never drop")
	}
	if st.dropping {
		t.Fatal("below-target sojourn must end the dropping episode")
	}

	// Re-entering within 16 intervals restores the previous drop rate
	// (dropCount resumes near its peak) instead of resetting to 1.
	reentered := false
	for now := last + 2e6; now < last+4e8; now += 1e6 {
		if st.shouldDrop(sojourn, now, qbytes) {
			reentered = true
			break
		}
	}
	if !reentered {
		t.Fatal("sustained above-target sojourn after exit never re-entered dropping")
	}
	if st.dropCount < peakCount/2 {
		t.Errorf("re-entry within 16 intervals restarted at count %d, want hysteresis near %d", st.dropCount, peakCount)
	}
}

// TestFQCoDelFlowQueueFollowsControlLaw: an FQ-CoDel flow queue runs
// CoDel on the parameters the discipline was built with. One flow's 400
// packets, enqueued at 1 ms and dequeued one a millisecond, wait k ms for
// the k-th dequeue, so from the 6 ms dequeue on the sojourn stands at or
// above the 5 ms target with far more than two MTUs queued. The first
// drop comes an Interval after the sojourn has stood above Target for an
// Interval — at 206 ms, where TestCoDelDropSpacingFollowsControlLaw puts
// the bare state machine's, 2 × Interval after its first above-target
// sojourn — and the next ones on the first dequeue at or after each
// control-law deadline: Interval later, then Interval/√2 after that.
func TestFQCoDelFlowQueueFollowsControlLaw(t *testing.T) {
	const ms = sim.Time(1e6)
	eng := sim.NewEngine()
	params := DefaultCoDelParams()
	q := NewFQCoDel(eng, 1<<20, 1500, params)
	var l ledger
	q.SetSink(&l)
	eng.ScheduleCall(ms, sim.Func(func() {
		for i := 0; i < 400; i++ {
			l.offer(q, pkt(1, 1500))
		}
	}), nil)
	var drops []sim.Time
	for i := 2; i <= 400; i++ {
		eng.ScheduleCall(sim.Time(i)*ms, sim.Func(func() {
			before := l.drops
			q.Dequeue()
			for range l.drops - before {
				drops = append(drops, eng.Now())
			}
		}), nil)
	}
	eng.RunAll()

	firstAbove := 6 * ms
	want := []sim.Time{firstAbove + 2*params.Interval}
	next := want[0]
	for count := 1; len(want) < 3; count++ {
		next += sim.Time(float64(params.Interval) / math.Sqrt(float64(count)))
		want = append(want, (next+ms-1)/ms*ms) // the first 1 ms tick at or after it
	}
	if len(drops) < len(want) {
		t.Fatalf("drops at %v, want the first %d at %v", drops, len(want), want)
	}
	for i, at := range want {
		if drops[i] != at {
			t.Fatalf("drops at %v, want the first %d at %v", drops[:min(len(drops), 5)], len(want), want)
		}
	}
}

// TestLossyDropRules pins each fault-injection rule: per-seq countdown,
// 1-based offered-index drops that skip non-data packets, the retransmit
// exemption, and bitwise reproducibility of probabilistic drops under the
// same seed.
func TestLossyDropRules(t *testing.T) {
	mk := func(seq int64, retx bool) *packet.Packet {
		p := pkt(1, 1500)
		p.Seq = seq
		p.Retransmit = retx
		return p
	}

	t.Run("seq countdown", func(t *testing.T) {
		l := NewLossy(NewFIFO(0), 1)
		l.DropSeqs = map[int64]int{1000: 2}
		var led ledger
		if led.offer(l, mk(1000, false)) || led.offer(l, mk(1000, false)) {
			t.Fatal("first two offers of seq 1000 must drop")
		}
		if !led.offer(l, mk(1000, false)) {
			t.Fatal("countdown exhausted; third offer must pass")
		}
		if !led.offer(l, mk(2000, false)) {
			t.Fatal("unlisted seq must pass")
		}
		if led.drops != 2 {
			t.Fatalf("dropped %d, want 2", led.drops)
		}
	})

	t.Run("nth offered skips non-data", func(t *testing.T) {
		l := NewLossy(NewFIFO(0), 1)
		l.DropNth = map[uint64]bool{1: true, 3: true}
		ack := &packet.Packet{Flow: packet.FlowKey{Src: 1, Dst: 99}, Size: packet.HeaderBytes}
		if !l.Enqueue(ack) {
			t.Fatal("pure ACK must bypass the drop rules")
		}
		got := []bool{
			l.Enqueue(mk(0, false)),
			l.Enqueue(mk(64, false)),
			l.Enqueue(mk(128, false)),
			l.Enqueue(mk(192, false)),
		}
		want := []bool{false, true, false, true}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("data offer %d admitted=%v, want %v (ACKs must not consume indices)", i+1, got[i], want[i])
			}
		}
		if len(l.DropNth) != 0 {
			t.Fatalf("consumed indices must be deleted, %d left", len(l.DropNth))
		}
	})

	t.Run("retransmit exemption", func(t *testing.T) {
		l := NewLossy(NewFIFO(0), 1)
		l.DropSeqs = map[int64]int{500: 1}
		var led ledger
		if !led.offer(l, mk(500, true)) {
			t.Fatal("retransmission must be exempt by default")
		}
		l.DropRetransmits = true
		if led.offer(l, mk(500, true)) {
			t.Fatal("DropRetransmits must extend matching to retransmissions")
		}
		if led.drops != 1 {
			t.Fatalf("dropped %d, want 1", led.drops)
		}
	})

	t.Run("prob reproducible per seed", func(t *testing.T) {
		pattern := func(seed uint64) []bool {
			l := NewLossy(NewFIFO(0), seed)
			l.DropProb = 0.3
			var led ledger
			out := make([]bool, 300)
			for i := range out {
				out[i] = led.offer(l, mk(int64(i)*64, false))
			}
			if led.drops == 0 || led.drops == 300 {
				t.Fatalf("seed %d: %d/300 dropped, want a nontrivial fraction", seed, led.drops)
			}
			return out
		}
		a, b := pattern(99), pattern(99)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("same seed diverged at offer %d", i)
			}
		}
	})
}
