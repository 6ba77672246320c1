package tcp

import (
	"strings"
	"testing"

	"cebinae/internal/netem"
	"cebinae/internal/packet"
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
// given SACK blocks.
func ackAt(eng *sim.Engine, c *Conn, d sim.Time, ack int64, sack ...packet.SackBlock) {
	eng.Run(eng.Now() + d)
	c.Deliver(&packet.Packet{Flags: packet.FlagACK, Ack: ack, SACK: sack})
}

// checkWindow holds the scoreboard to what the sequence state says: one
// live record for every segment of [sndUna, sndNxt), each stamped with its
// own seq and size, none outside, in a power-of-two ring.
func checkWindow(t *testing.T, c *Conn) {
	t.Helper()
	mss := int64(packet.MSS)
	if n := len(c.sent.slots); n&(n-1) != 0 {
		t.Fatalf("ring of %d slots is not a power of two", n)
	}
	want := 0
	for seq := c.sndUna; seq < c.sndNxt; seq += mss {
		want++
		size := mss
		if c.cfg.DataLimit > 0 && seq+size > c.cfg.DataLimit {
			size = c.cfg.DataLimit - seq
		}
		rec := c.sent.get(seq)
		if rec == nil {
			t.Fatalf("no record for outstanding segment %d of [%d, %d)", seq, c.sndUna, c.sndNxt)
		}
		if rec.seq != seq || int64(rec.size) != size {
			t.Fatalf("record at %d says seq %d size %d, want size %d", seq, rec.seq, rec.size, size)
		}
	}
	live := 0
	for i := range c.sent.slots {
		if c.sent.slots[i].live {
			live++
		}
	}
	if live != want {
		t.Fatalf("%d live records for %d outstanding segments", live, want)
	}
	for _, seq := range []int64{c.sndUna - mss, c.sndNxt, c.sndUna + 1} {
		if c.sent.get(seq) != nil {
			t.Fatalf("record found at %d, outside the segments of [%d, %d)", seq, c.sndUna, c.sndNxt)
		}
	}
}

// TestScoreboardGrowsWithHoles walks one transfer through everything the
// scoreboard sees: slow start doubling the window (and the ring) five
// times, a SACKed middle that sends the sender into recovery, the head
// retransmitted into its live record, a cumulative ACK across the SACKed
// range, and a short final segment under DataLimit.
func TestScoreboardGrowsWithHoles(t *testing.T) {
	const mss = packet.MSS
	const limit = 900*mss + 123
	const ms = sim.Time(1e6)
	eng, c := loneSender(Config{DataLimit: limit})
	checkWindow(t, c)
	if len(c.sent.slots) != scoreboardMinSlots {
		t.Fatalf("ring starts at %d slots, want %d", len(c.sent.slots), scoreboardMinSlots)
	}

	// Slow start: each ACK of the whole window doubles it.
	for c.sndNxt-c.sndUna < 300*mss {
		ackAt(eng, c, ms, c.sndNxt)
		checkWindow(t, c)
	}
	if got := len(c.sent.slots); got != 512 {
		t.Fatalf("a %d-segment window sits in a ring of %d slots, want 512 (five doublings)", (c.sndNxt-c.sndUna)/mss, got)
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
		t.Fatalf("segment %d past the %d retransmissions is marked retransmitted", rec.seq, retx)
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
		// The ring has wrapped by now: these records sit in slots that
		// held retransmitted ones, and inherit nothing from them.
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
// grid would land in its neighbour's slot; open refuses it.
func TestScoreboardUnalignedPanics(t *testing.T) {
	s := scoreboard{mss: 1448}
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
// once the ring has reached the window, cycles of a whole window ACKed and
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
