package tcp

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"cebinae/internal/netem"
	"cebinae/internal/packet"
	"cebinae/internal/pooltest"
	"cebinae/internal/sim"
)

// loneSender starts a connection on a node with no routes: every segment it
// sends is dropped as unroutable, and the test plays the receiver by handing
// ACKs to Deliver. Send jitter is off, so a segment leaves in the call that
// transmits it.
func loneSender(cfg Config) (*sim.Engine, *Conn) {
	eng := sim.NewEngine()
	a := netem.NewNetwork(eng).NewNode("a")
	cfg.Key = packet.FlowKey{Src: a.ID, Dst: a.ID + 1, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
	c := NewConn(eng, a, cfg)
	c.jitterSpan = 0
	eng.Run(1) // the flow start
	return eng, c
}

// ackAt advances the clock by d and delivers a cumulative ACK with the
// given SACK blocks, at most packet.MaxSack of them as on the wire.
func ackAt(eng *sim.Engine, c *Conn, d sim.Time, ack int64, sack ...packet.SackBlock) {
	if len(sack) > packet.MaxSack {
		panic("ackAt: an ACK carries at most packet.MaxSack SACK blocks")
	}
	eng.Run(eng.Now() + d)
	p := &packet.Packet{Flags: packet.FlagACK, Ack: ack, SACK: new([packet.MaxSack]packet.SackBlock)}
	p.NSack = uint8(copy(p.SACK[:], sack))
	c.Deliver(p)
}

// checkWindow holds the scoreboard to what the sequence state says: one
// live record for every segment of [sndUna, sndNxt), each of its own size,
// none outside, in exactly the blocks those segments fall in, held in a
// power-of-two ring.
func checkWindow(t *testing.T, c *Conn) {
	t.Helper()
	mss := int64(packet.MSS)
	s := &c.sent
	if n := len(s.ring); n&(n-1) != 0 {
		t.Fatalf("ring of %d blocks is not a power of two", n)
	}
	want := 0
	for seq := c.sndUna; seq < c.sndNxt; seq += mss {
		want++
		size := mss
		if c.cfg.DataLimit > 0 && seq+size > c.cfg.DataLimit {
			size = c.cfg.DataLimit - seq
		}
		rec := s.get(seq)
		if rec == nil {
			t.Fatalf("no record for outstanding segment %d of [%d, %d)", seq, c.sndUna, c.sndNxt)
		}
		if int64(rec.size) != size {
			t.Fatalf("record at %d says size %d, want %d", seq, rec.size, size)
		}
	}
	if c.sndUna < c.sndNxt {
		first, last := (c.sndUna+mss-1)/mss/blockLen, (c.sndNxt-1)/mss/blockLen
		if s.lo != first || s.hi != last+1 {
			t.Fatalf("blocks [%d, %d) held for the segments of [%d, %d), want [%d, %d)", s.lo, s.hi, c.sndUna, c.sndNxt, first, last+1)
		}
	} else if s.hi-s.lo > 1 {
		t.Fatalf("blocks [%d, %d) held with nothing outstanding", s.lo, s.hi)
	}
	live := 0
	for i, blk := range s.ring {
		b := s.lo + (int64(i)-s.lo)&int64(len(s.ring)-1) // the held block slot i would hold
		if (blk != nil) != (b < s.hi) {
			t.Fatalf("slot %d is %v, but block %d is held: %v", i, blk, b, b < s.hi)
		}
		if blk == nil {
			continue
		}
		for k := range blk {
			if blk[k].live {
				live++
			}
		}
	}
	if live != want {
		t.Fatalf("%d live records for %d outstanding segments", live, want)
	}
	for _, seq := range []int64{c.sndUna - mss, c.sndNxt, c.sndUna + 1} {
		if s.get(seq) != nil {
			t.Fatalf("record found at %d, outside the segments of [%d, %d)", seq, c.sndUna, c.sndNxt)
		}
	}
}

// TestScoreboardGrowsWithHoles walks one transfer through everything the
// scoreboard sees: slow start doubling the window five times (and the ring
// of blocks with it), a SACKed middle that sends the sender into recovery, the head
// retransmitted into its live record, a cumulative ACK across the SACKed
// range, and a short final segment under DataLimit.
func TestScoreboardGrowsWithHoles(t *testing.T) {
	const mss = packet.MSS
	const limit = 900*mss + 123
	const ms = sim.Time(1e6)
	eng, c := loneSender(Config{DataLimit: limit})
	checkWindow(t, c)
	if len(c.sent.ring) != scoreboardMinBlocks {
		t.Fatalf("ring starts at %d blocks, want %d", len(c.sent.ring), scoreboardMinBlocks)
	}

	// Slow start: each ACK of the whole window doubles it.
	for c.sndNxt-c.sndUna < 300*mss {
		ackAt(eng, c, ms, c.sndNxt)
		checkWindow(t, c)
	}
	if got := len(c.sent.ring); got != 16 {
		t.Fatalf("a %d-segment window sits in a ring of %d blocks, want 16 (two doublings)", (c.sndNxt-c.sndUna)/mss, got)
	}

	// The receiver reports segments 100–199 of the window and nothing
	// below: the sender presumes the head lost and retransmits into the
	// records it already holds.
	una, nxt := c.sndUna, c.sndNxt
	firstSent := c.sent.get(una).sentAt
	ackAt(eng, c, ms, una, packet.SackBlock{Start: una + 100*mss, End: una + 200*mss})
	if !c.inRecovery || c.Stats.Retransmits == 0 {
		t.Fatalf("a 100-segment SACK block did not start recovery (retransmits %d)", c.Stats.Retransmits)
	}
	checkWindow(t, c)
	head := c.sent.get(una)
	if !head.retransmitted || head.sentAt != eng.Local() || head.sentAt == firstSent {
		t.Fatalf("head record after its retransmission: %+v, now %d", *head, eng.Local())
	}
	for seq := una + 100*mss; seq < una+200*mss; seq += mss {
		if rec := c.sent.get(seq); rec.retransmitted || rec.sentAt != firstSent {
			t.Fatalf("SACKed segment %d was touched: %+v", seq, *rec)
		}
	}
	retx := int64(c.Stats.Retransmits)
	if rec := c.sent.get(una + retx*mss); rec.retransmitted {
		t.Fatalf("segment %d past the %d retransmissions is marked retransmitted", una+retx*mss, retx)
	}

	// The holes fill: a cumulative ACK jumps the SACKed range and ends
	// recovery. Everything below it is retired, nothing above it is.
	ackAt(eng, c, ms, nxt)
	if c.inRecovery {
		t.Fatal("a full ACK left the sender in recovery")
	}
	checkWindow(t, c)

	// Run the transfer out; the last segment is 123 bytes.
	for !c.finished {
		if c.sndNxt == limit {
			if rec := c.sent.get(900 * mss); rec == nil || rec.size != 123 {
				t.Fatalf("final segment's record: %+v", rec)
			}
		}
		ackAt(eng, c, ms, c.sndNxt)
		checkWindow(t, c)
		// The blocks have been recycled by now: these records sit where
		// retransmitted ones were, and inherit nothing from them.
		for seq := c.sndUna; seq < c.sndNxt; seq += mss {
			if rec := c.sent.get(seq); rec.retransmitted || rec.sentAt != eng.Local() {
				t.Fatalf("segment %d, sent once at %d: %+v", seq, eng.Local(), *rec)
			}
		}
	}
	if c.sndUna != limit {
		t.Fatalf("finished at %d of %d bytes", c.sndUna, limit)
	}
}

// TestScoreboardUnalignedPanics: a segment that does not start on the MSS
// grid has no record of its own; get finds none and open refuses it.
func TestScoreboardUnalignedPanics(t *testing.T) {
	if packet.MSS != 1448 {
		t.Fatalf("MSS is %d; the panic below is checked for 1448", packet.MSS)
	}
	var s scoreboard
	s.open(3 * 1448)
	if s.get(3*1448+1) != nil {
		t.Fatal("get off the grid found its neighbour's record")
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "4345") || !strings.Contains(msg, "1448") {
			t.Fatalf("open off the grid: panic %q, want one naming the seq and the MSS", msg)
		}
	}()
	s.open(3*1448 + 1)
	t.Fatal("open off the grid did not panic")
}

// TestScoreboardSteadyStateZeroAlloc pins the scoreboard's steady state:
// once its blocks have reached the window, cycles of a whole window ACKed and
// a whole window sent allocate nothing.
func TestScoreboardSteadyStateZeroAlloc(t *testing.T) {
	const window = 100 * packet.MSS
	eng, c := loneSender(Config{MaxCwndBytes: window})
	ack := &packet.Packet{Flags: packet.FlagACK}
	cycle := func() {
		eng.Run(eng.Now() + 1e6)
		ack.Ack = c.sndNxt
		c.Deliver(ack)
	}
	for i := 0; i < 20; i++ {
		cycle()
	}
	if got := c.sndNxt - c.sndUna; got != window {
		t.Fatalf("warm-up left %d bytes outstanding, want the %d-byte cap", got, window)
	}
	sent := c.Stats.SentPackets
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a send→ACK cycle at a fixed window allocates %.1f objects, want 0", allocs)
	}
	if c.Stats.SentPackets-sent < 100*100 {
		t.Fatalf("the measured cycles sent %d segments, want 100 each", c.Stats.SentPackets-sent)
	}
	checkWindow(t, c)
}

// refRing is the scoreboard as it was before blocks, kept as the reference
// the block scoreboard is held to: a power-of-two ring of records, each
// stamped with its seq, indexed by segment number, doubled by copying the
// live records whenever a transmit finds its slot taken.
type refRing struct {
	slots []refSlot
}

type refSlot struct {
	seq int64
	sentRecord
}

func (s *refRing) get(seq int64) *sentRecord {
	if len(s.slots) == 0 {
		return nil
	}
	r := &s.slots[int(seq/packet.MSS)&(len(s.slots)-1)]
	if r.live && r.seq == seq {
		return &r.sentRecord
	}
	return nil
}

func (s *refRing) open(seq int64) *sentRecord {
	for {
		if len(s.slots) > 0 {
			r := &s.slots[int(seq/packet.MSS)&(len(s.slots)-1)]
			if !r.live {
				*r = refSlot{seq: seq, sentRecord: sentRecord{live: true}}
				return &r.sentRecord
			}
			if r.seq == seq {
				return &r.sentRecord
			}
		}
		size := max(2*len(s.slots), 16)
		slots := make([]refSlot, size)
		for i := range s.slots {
			if r := &s.slots[i]; r.live {
				slots[int(r.seq/packet.MSS)&(size-1)] = *r
			}
		}
		s.slots = slots
	}
}

func (s *refRing) clearSent(from, to int64) {
	for seq := from; seq < to; {
		rec := s.get(seq)
		if rec == nil {
			seq += packet.MSS
			continue
		}
		rec.live = false
		seq += int64(rec.size)
	}
}

// TestScoreboardMatchesRing drives the block scoreboard and the reference
// ring through the same random transfers — bursts of new segments up to a
// window that climbs and collapses, cumulative ACKs of any length, holes
// retransmitted below a SACKed range (records read as the SACK path reads
// them), and a short final segment under a DataLimit — and after every step
// requires get to agree, record for record, on every seq of
// [sndUna − MSS, sndNxt + MSS]: each grid point and the seqs one byte and
// half a segment beside it.
func TestScoreboardMatchesRing(t *testing.T) {
	const mss = int64(packet.MSS)
	var peak int64
	for seed := uint64(1); seed <= 12; seed++ {
		rng := sim.NewRand(seed)
		limit := int64(2000+rng.Intn(2000))*mss + int64(1+rng.Intn(int(mss)-1))
		var sb scoreboard
		var ref refRing
		var una, nxt int64
		var clock sim.Time
		window := int64(10)
		stamp := func(r *sentRecord, retx bool) {
			clock += sim.Time(1 + rng.Intn(1000))
			r.sentAt = clock
			r.deliveredAtTx = int64(rng.Intn(1 << 30))
			r.txTimeAtTx = clock - sim.Time(rng.Intn(1000))
			r.firstTxAtTx = clock - sim.Time(rng.Intn(5000))
			r.retransmitted = r.retransmitted || retx
			r.appLimited = rng.Intn(7) == 0
		}
		both := func(seq int64, retx bool) {
			got, want := sb.open(seq), ref.open(seq)
			if *got != *want {
				t.Fatalf("seed %d: open(%d) = %+v, reference %+v", seed, seq, *got, *want)
			}
			size := int32(mss)
			if !retx && seq+mss > limit {
				size = int32(limit - seq)
			}
			if !retx {
				got.size, want.size = size, size
			}
			stamp(got, retx)
			*want = *got
		}
		check := func(step int) {
			for seq := una - mss; seq <= nxt+mss; seq += mss {
				for _, q := range []int64{seq - 1, seq, seq + 1, seq + mss/2} {
					got, want := sb.get(q), ref.get(q)
					if (got == nil) != (want == nil) || got != nil && *got != *want {
						t.Fatalf("seed %d step %d, [%d, %d): get(%d) = %v, reference %v", seed, step, una, nxt, q, got, want)
					}
				}
			}
		}
		for step := 0; una < limit; step++ {
			switch op := rng.Intn(100); {
			case op < 40: // send up to the window
				for nxt < limit && nxt-una < window*mss {
					both(nxt, false)
					nxt = min(nxt+mss, limit)
				}
			case op < 75 && nxt > una: // a cumulative ACK
				ack := nxt
				if rng.Intn(3) > 0 {
					ack = min(una+int64(1+rng.Intn(int((nxt-una+mss-1)/mss)))*mss, nxt)
				}
				for seq := una; seq < ack; seq += mss {
					if sb.get(seq) == nil {
						t.Fatalf("seed %d step %d: outstanding segment %d has no record", seed, step, seq)
					}
				}
				sb.clearSent(una, ack)
				ref.clearSent(una, ack)
				una = ack
				window = min(2*window, 1500)
			case op < 90 && nxt-una > 2*mss: // SACK above a hole: repair it
				segs := (nxt - una) / mss
				sackStart := una + int64(1+rng.Intn(int(segs-1)))*mss
				if r, w := sb.get(sackStart), ref.get(sackStart); r == nil || *r != *w {
					t.Fatalf("seed %d step %d: SACKed segment %d: %v, reference %v", seed, step, sackStart, r, w)
				}
				for seq := una; seq < sackStart && rng.Intn(4) > 0; seq += mss {
					both(seq, true)
				}
				window = max(window/2, 1)
			case op < 92: // a timeout collapses the window
				window = 1
			}
			check(step)
			peak = max(peak, nxt-una)
		}
		if len(sb.ring) == 0 || sb.lo != sb.hi && sb.hi-sb.lo != 1 {
			t.Fatalf("seed %d: finished holding blocks [%d, %d)", seed, sb.lo, sb.hi)
		}
	}
	if peak < 1000*mss {
		t.Fatalf("the windows peaked at %d segments, want ≥ 1000 (some 32-block ring)", peak/mss)
	}
}

// TestScoreboardFollowsWindow pins the scoreboard's memory to the window:
// a transfer that climbs to W segments allocates about ⌈W/32⌉ blocks of
// 1280 B (plus the ring's and the spare list's few pointers); falling back
// to a small window hands the blocks back; and a second climb to W, and
// every one after it, allocates nothing. The ring of 48-byte records it
// replaced allocated about 2 × nextpow2(W) records on the first climb.
func TestScoreboardFollowsWindow(t *testing.T) {
	const (
		mss = int64(packet.MSS)
		W   = 1000
	)
	var s *scoreboard
	var una, nxt, peak int64
	// climb doubles an ACK-clocked window from 10 segments until W are
	// outstanding; fall ACKs everything and runs a while at 10.
	send := func(w int64) {
		for nxt-una < w*mss {
			s.open(nxt).size = int32(mss)
			nxt += mss
		}
	}
	ack := func() {
		s.clearSent(una, nxt)
		una = nxt
	}
	climb := func() {
		for w := int64(10); ; w = min(2*w, W) {
			send(w)
			peak = max(peak, s.hi-s.lo)
			if w == W {
				return
			}
			ack()
		}
	}
	fall := func() {
		ack()
		for i := 0; i < 50; i++ {
			send(10)
			ack()
		}
		if s.hi-s.lo > 1 {
			t.Fatalf("after falling back, blocks [%d, %d) are still held", s.lo, s.hi)
		}
	}
	// start begins a transfer on a new scoreboard, off block 0's edge, and
	// returns the blocks it owns.
	start := func() int64 {
		s, una, nxt, peak = new(scoreboard), 0, 0, 0
		fall()
		return s.hi - s.lo + int64(len(s.spare))
	}

	// The first climb's bytes are read off process-wide MemStats, which
	// other goroutines also move: measure as testing.AllocsPerRun does, on
	// one P, and keep the least of three fresh transfers' first climbs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	bytes := uint64(math.MaxUint64)
	var owned int64
	for range 3 {
		owned = start()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		climb()
		runtime.ReadMemStats(&m1)
		bytes = min(bytes, m1.TotalAlloc-m0.TotalAlloc)
	}
	t.Logf("first climb to %d segments: %d B, %d blocks held at the peak, %d owned before", W, bytes, peak, owned)
	if blocks := int64((W + blockLen - 1) / blockLen); peak > blocks+1 {
		t.Fatalf("%d blocks held for a %d-segment window, want ≤ %d", peak, W, blocks+1)
	}
	// Every block held at the peak but not owned before, once, plus the
	// ring's doublings and the spare list's growth: a few pointers a block.
	fresh := uint64(peak-owned) * 1280
	if bytes < fresh || bytes > fresh+64*uint64(peak) {
		t.Fatalf("the first climb to %d segments allocated %d B, want %d B of blocks and ≤ %d B of pointers", W, bytes, fresh, 64*peak)
	}
	if allocs := testing.AllocsPerRun(3, func() { fall(); climb() }); allocs != 0 {
		t.Fatalf("falling back and climbing again to %d segments allocates %.1f objects, want 0", W, allocs)
	}
}

// TestScoreboardSpareFitsRing pins the spare list's size to the ring: a
// connection never owns more blocks than its ring has slots, and the
// spare list has room for all of them from the moment the ring grows, so
// clearSent never grows it. Windows that jump between a few segments and
// thousands release whole rings of blocks at once.
func TestScoreboardSpareFitsRing(t *testing.T) {
	const mss = int64(packet.MSS)
	rng := sim.NewRand(7)
	var s scoreboard
	var una, nxt int64
	check := func(step int) {
		owned := int64(len(s.spare))
		for b := s.lo; b < s.hi; b++ {
			if s.ring[b&int64(len(s.ring)-1)] != nil {
				owned++
			}
		}
		if owned > int64(len(s.ring)) || cap(s.spare) < len(s.ring) {
			t.Fatalf("step %d: %d blocks owned, a %d-slot ring, a spare list of capacity %d", step, owned, len(s.ring), cap(s.spare))
		}
	}
	for step := 0; step < 400; step++ {
		window := int64(1 + rng.Intn(10))
		if rng.Intn(4) == 0 {
			window = int64(100 + rng.Intn(4000))
		}
		for nxt-una < window*mss {
			s.open(nxt).size = int32(mss)
			nxt += mss
		}
		check(step)
		ack := una + int64(1+rng.Intn(int((nxt-una)/mss)))*mss
		spare := s.spare[:cap(s.spare)]
		s.clearSent(una, ack)
		una = ack
		if len(spare) > 0 && &s.spare[:cap(s.spare)][0] != &spare[0] {
			t.Fatalf("step %d: clearSent grew the spare list past its capacity %d", step, len(spare))
		}
		check(step)
	}
	if len(s.ring) < 128 {
		t.Fatalf("the windows grew the ring to only %d slots", len(s.ring))
	}
}

// TestConnRecycle: a connection's Recycle hands every block its
// scoreboard owns — held in the ring and spare — back to the process,
// cleared, and leaves the scoreboard holding none. The next scoreboard
// draws exactly those blocks, each zeroed, before it allocates.
func TestConnRecycle(t *testing.T) {
	pooltest.Hold(t)
	pooltest.SkipIfPutsDrop(t)
	const mss = int64(packet.MSS)
	_, c := loneSender(Config{})
	s := &c.sent
	for seq := c.sndNxt; seq < 200*mss; seq += mss {
		s.open(seq).size = int32(mss)
	}
	s.clearSent(0, 100*mss)
	made := map[*sentBlock]bool{}
	for _, b := range s.ring {
		if b != nil {
			made[b] = true
		}
	}
	for _, b := range s.spare {
		made[b] = true
	}
	if len(s.spare) == 0 || len(made) != 7 {
		t.Fatalf("%d blocks owned, %d of them spare; want 7, some spare", len(made), len(s.spare))
	}
	c.Recycle()
	for _, b := range s.ring {
		if b != nil {
			t.Fatal("a recycled scoreboard still holds a block")
		}
	}
	if len(s.spare) != 0 || s.lo != s.hi {
		t.Fatalf("a recycled scoreboard keeps %d spare blocks and the span [%d, %d)", len(s.spare), s.lo, s.hi)
	}
	var next scoreboard
	for i := range len(made) {
		seq := int64(i) * blockLen * mss
		b := next.hold(seq / mss / blockLen)
		if !made[b] || *b != (sentBlock{}) {
			t.Fatalf("block %d of the next scoreboard: recycled=%v, cleared=%v; want a cleared block of the recycled one", i, made[b], *b == sentBlock{})
		}
	}
	if b := newBlock(); made[b] {
		t.Fatal("the process pool handed out a recycled block twice")
	}
}
