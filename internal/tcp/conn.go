package tcp

import (
	"fmt"

	"cebinae/internal/netem"
	"cebinae/internal/packet"
	"cebinae/internal/sim"
)

// Config parameterises one TCP connection (the sending side).
type Config struct {
	Key packet.FlowKey
	CC  CongestionControl

	// DataLimit bounds the bytes the application will send (0 = infinite
	// demand, the paper's long-lived-flow model).
	DataLimit int64
	// StartAt delays the first transmission (flow arrival time).
	StartAt sim.Time
	// MinRTO clamps the retransmission timer (default 200 ms, as Linux).
	// The experiments package passes 1 s, NS-3's minimum, unless a spec
	// sets min_rto, so this default reaches only callers outside it.
	MinRTO sim.Time
	// MaxCwndBytes optionally caps the congestion window (0 = no cap).
	MaxCwndBytes float64
	// Seed perturbs the connection's private RNG (jitter); the flow key
	// hash is mixed in as well.
	Seed uint64
}

// A connection sends packet.MSS-byte segments and opens with an initial
// window of initialCwndSegments (RFC 6928).
const initialCwndSegments = 10

// sendJitter bounds the uniform random host-processing delay added to each
// transmission (order-preserving). Deterministic simulations exhibit
// lock-step phase effects between competing flows; a few microseconds of
// jitter breaks them, as NS-3 setups commonly do.
const sendJitter = sim.Time(10e3) // 10 µs

// ConnStats aggregates sender-side counters.
type ConnStats struct {
	SentPackets    uint64
	Retransmits    uint64
	Timeouts       uint64
	FastRecoveries uint64
	AckedBytes     int64
}

// Conn is the sending half of a simulated TCP connection. It implements
// SACK-based loss recovery with pipe accounting (in the spirit of RFC 6675):
// the receiver reports out-of-order blocks, the sender keeps a scoreboard,
// presumes data below the highest SACKed byte lost, and retransmits holes
// while limiting the estimated bytes in flight to the congestion window.
//
// Exported congestion-state fields (Cwnd, Ssthresh) are manipulated by
// CongestionControl implementations; experiment code should treat them as
// read-only.
type Conn struct {
	cfg  Config
	eng  *sim.Engine
	node *netem.Node
	cc   CongestionControl

	// Congestion state, in bytes. Cwnd is float64 so sub-MSS increments
	// (e.g. Reno's MSS²/cwnd per ACK) accumulate exactly.
	Cwnd     float64
	Ssthresh float64

	// Sequence state (byte offsets).
	sndUna int64
	sndNxt int64

	// SACK scoreboard.
	sacked     intervalSet
	retxPtr    int64 // next candidate sequence for hole retransmission
	retxOut    int64 // retransmitted bytes estimated still in flight
	dupAcks    int
	inRecovery bool
	recoverSeq int64 // snd_nxt when loss was detected
	// lostMark, when non-zero (set on RTO), presumes all unSACKed data
	// below it lost — beyond the usual below-highSACKed presumption.
	lostMark int64

	// RTT estimation (RFC 6298).
	srtt, rttvar, rto sim.Time
	rtoTimer          sim.Timer
	backoff           int

	// Delivery accounting for rate samples: delivered counts bytes known
	// received (cumulative ACK advances plus newly SACKed), per the Linux
	// rate-sampling model.
	delivered     int64
	deliveredTime sim.Time
	firstTxTime   sim.Time // send time of the most recently delivered packet
	appLimited    bool
	// Round tracking: a round ends when a packet sent after the previous
	// round's end is acked.
	nextRoundDelivered int64

	sent scoreboard // records of the segments in [sndUna, sndNxt)

	// Pacing. The timer doubles as the flow-start timer (both dispatch
	// trySend, and the start strictly precedes any pacing).
	pacingTimer  sim.Timer
	nextSendTime sim.Time

	rng *sim.Rand
	// jitterSpan is this connection's send jitter bound (sendJitter; zero
	// sends each segment in the call that transmits it).
	jitterSpan sim.Time
	// jitter holds segments waiting out their send jitter; each release is
	// clamped to the previous one (the stream's tail), which both preserves
	// send order on the wire and keeps the stream's pushes sorted.
	jitter sim.Stream

	finished bool
	Stats    ConnStats

	// MinRTTSeen is the smallest RTT sample observed (used by CCAs and
	// diagnostics).
	MinRTTSeen sim.Time

	// OnFinish, when set, fires once DataLimit bytes are acked.
	OnFinish func()
}

// NewConn creates a sender on node src, registers its ACK demux entry, and
// schedules its start. The matching Receiver must be registered on the
// destination node by the caller.
func NewConn(eng *sim.Engine, src *netem.Node, cfg Config) *Conn {
	if cfg.MinRTO == 0 {
		cfg.MinRTO = sim.Duration(200e6) // 200 ms
	}
	if cfg.CC == nil {
		cfg.CC = NewNewReno()
	}
	c := &Conn{
		cfg:  cfg,
		eng:  eng,
		node: src,
		cc:   cfg.CC,
		rto:  sim.Duration(1e9), // initial RTO 1 s (RFC 6298)
		rng:  sim.NewRand(cfg.Seed ^ cfg.Key.Hash(0x5EED)),
	}
	c.Cwnd = initialCwndSegments * packet.MSS
	c.Ssthresh = 1 << 40
	c.jitterSpan = sendJitter
	src.Register(cfg.Key.Reverse(), c)
	c.cc.Init(c)
	// The flow start is pinned: it is a traffic discontinuity the fluid
	// fast-forward layer must never skip across. Later pacing re-arms
	// (schedulePacing) are regular and clear the mark.
	eng.ArmPinnedTimerAt(&c.pacingTimer, cfg.StartAt, (*connSend)(c), nil)
	return c
}

// connSend and connRTO are the connection's timer handlers and connInject
// its jitter-stream handler: named pointer types over Conn so the
// scheduler calls bind without a closure.
type (
	connSend   Conn
	connRTO    Conn
	connInject Conn
)

func (h *connSend) OnEvent(any) { (*Conn)(h).trySend() }
func (h *connRTO) OnEvent(any)  { (*Conn)(h).onRTO() }

// OnEvent releases a segment whose send jitter has elapsed onto the wire.
func (h *connInject) OnEvent(arg any) { h.node.Inject(arg.(*packet.Packet)) }

// Key returns the data-direction flow key.
func (c *Conn) Key() packet.FlowKey { return c.cfg.Key }

// Config returns the connection's configuration (read-only view).
func (c *Conn) Config() Config { return c.cfg }

// Engine exposes the simulation engine to CC modules. A module that keeps
// a stamp reads Engine().Local(), the clock the RateSample's intervals are
// measured on.
func (c *Conn) Engine() *sim.Engine { return c.eng }

// SRTT returns the smoothed RTT estimate.
func (c *Conn) SRTT() sim.Time { return c.srtt }

// InFlight returns the pipe estimate: bytes believed in the network
// (sent − delivered − lost + retransmitted).
func (c *Conn) InFlight() int64 { return c.pipe() }

// Delivered returns total bytes known delivered (cumACK + SACK).
func (c *Conn) Delivered() int64 { return c.delivered }

// Recycle ends the connection's run: it hands its scoreboard's blocks back
// to the process, cleared, for a later run's connections to draw. The
// connection must not send or take an ACK again.
func (c *Conn) Recycle() { c.sent.recycle() }

// highSacked returns the highest byte known delivered.
func (c *Conn) highSacked() int64 {
	if m := c.sacked.max(); m > c.sndUna {
		return m
	}
	return c.sndUna
}

// lossBound returns the sequence below which unSACKed data is presumed
// lost: the highest SACKed byte, extended to the whole outstanding window
// after an RTO.
func (c *Conn) lossBound() int64 {
	b := c.highSacked()
	if c.lostMark > b {
		b = c.lostMark
	}
	return b
}

// pipe estimates bytes in flight. Everything below lossBound is either
// SACKed (delivered) or presumed lost, so the live data is
// [lossBound, sndNxt) plus outstanding retransmissions.
func (c *Conn) pipe() int64 {
	return c.sndNxt - c.lossBound() + c.retxOut
}

// effectiveCwnd is the window the send loop honours.
func (c *Conn) effectiveCwnd() float64 {
	w := c.Cwnd
	if c.cfg.MaxCwndBytes > 0 && w > c.cfg.MaxCwndBytes {
		w = c.cfg.MaxCwndBytes
	}
	return w
}

// nextRetxSeq returns the next presumed-lost hole to retransmit, or −1.
func (c *Conn) nextRetxSeq() int64 {
	seq := c.retxPtr
	if seq < c.sndUna {
		seq = c.sndUna
	}
	seq = c.sacked.nextUncovered(seq)
	if seq >= c.lossBound() {
		return -1
	}
	return seq
}

// trySend emits retransmissions and new segments as the window (and
// pacing) permits.
func (c *Conn) trySend() {
	if c.finished {
		return
	}
	pacingRate := c.cc.PacingRate(c)
	for {
		var seq int64
		retx := false
		if c.inRecovery {
			if s := c.nextRetxSeq(); s >= 0 {
				seq, retx = s, true
			} else {
				seq = c.sndNxt
			}
		} else {
			seq = c.sndNxt
		}

		if !retx {
			if c.cfg.DataLimit > 0 && seq >= c.cfg.DataLimit {
				c.appLimited = true
				return
			}
		}
		if float64(c.pipe())+float64(packet.MSS) > c.effectiveCwnd() {
			c.appLimited = false
			return
		}
		if pacingRate > 0 {
			now := c.eng.Local()
			if now < c.nextSendTime {
				c.schedulePacing(c.nextSendTime - now)
				return
			}
			gap := sim.Time(float64(packet.MSS+packet.HeaderBytes) / pacingRate * 1e9)
			if c.nextSendTime < now-gap {
				c.nextSendTime = now // don't bank idle credit
			}
			c.nextSendTime += gap
		}

		if retx {
			c.retransmit(seq)
		} else {
			size := int64(packet.MSS)
			if c.cfg.DataLimit > 0 && c.sndNxt+size > c.cfg.DataLimit {
				size = c.cfg.DataLimit - c.sndNxt
			}
			c.transmit(c.sndNxt, int32(size), false)
			c.sndNxt += size
		}
	}
}

func (c *Conn) schedulePacing(d sim.Time) {
	if c.pacingTimer.Pending() {
		return
	}
	c.eng.ArmTimer(&c.pacingTimer, d, (*connSend)(c), nil)
}

// transmit sends the segment at seq. Retransmissions reuse the original
// sequence but are flagged so RTT sampling skips them.
func (c *Conn) transmit(seq int64, size int32, retx bool) {
	now := c.eng.Local()
	p := c.node.AllocPacket()
	p.Flow = c.cfg.Key
	p.Seq = seq
	p.PayloadSize = size
	p.Size = size + packet.HeaderBytes
	p.Retransmit = retx
	if c.pipe() == 0 {
		// Starting a fresh flight: anchor the send-interval clock.
		c.firstTxTime = now
	}
	rec := c.sent.open(seq)
	rec.size = size
	rec.sentAt = now
	rec.retransmitted = rec.retransmitted || retx
	rec.deliveredAtTx = c.delivered
	rec.txTimeAtTx = c.deliveredTime
	if rec.txTimeAtTx == 0 {
		rec.txTimeAtTx = now
	}
	rec.firstTxAtTx = c.firstTxTime
	rec.appLimited = c.appLimited

	c.Stats.SentPackets++
	if retx {
		c.Stats.Retransmits++
	}
	if c.jitterSpan > 0 {
		// Order-preserving host-processing jitter (see sendJitter).
		emit := c.eng.Now()
		//lint:ignore simtime jitter windows are microseconds-to-milliseconds, far below float64's 2^53 exact range, and the uniform draw is inherently a float
		at := emit + sim.Time(c.rng.Float64()*float64(c.jitterSpan))
		if tail := c.jitter.TailAt(); at < tail {
			at = tail
		}
		c.eng.StreamCall(&c.jitter, at, emit, (*connInject)(c), p)
	} else {
		c.node.Inject(p)
	}
	// Arm the retransmission timer only if idle: re-arming on every send
	// would let a steady stream of new data postpone loss detection
	// indefinitely. The timer is re-armed fresh on cumulative ACK advance.
	if !c.rtoTimer.Pending() {
		c.armRTO()
	}
}

// Deliver processes an incoming ACK (netem.Endpoint).
func (c *Conn) Deliver(p *packet.Packet) {
	if !p.HasFlag(packet.FlagACK) {
		return
	}
	now := c.eng.Local()
	ack := p.Ack
	if ack > c.sndNxt {
		ack = c.sndNxt // corrupt/stale guard
	}

	// Absorb SACK blocks into the scoreboard. Newly SACKed bytes count as
	// delivered (Linux rate-sample semantics).
	var newlySacked int64
	var blocks []packet.SackBlock
	if p.NSack > 0 {
		blocks = p.SACK[:p.NSack]
	}
	for _, b := range blocks {
		if b.End <= c.sndUna {
			continue
		}
		start := b.Start
		if start < c.sndUna {
			start = c.sndUna
		}
		covered := c.sacked.contains(start)
		nb := c.sacked.add(start, b.End)
		newlySacked += nb
		// SACK-based RTT sample (as Linux takes): the first time a block
		// covers a segment we still hold a clean record for.
		if nb > 0 && !covered {
			if rec := c.sent.get(start); rec != nil && !rec.retransmitted {
				c.updateRTT(now - rec.sentAt)
			}
		}
		// A newly SACKed range below the retransmit pointer most likely
		// acknowledges a retransmission: retire it from the pipe estimate
		// (it would otherwise linger until the cumulative ACK, inflating
		// the pipe and stalling the sender for the rest of recovery).
		if nb > 0 && start < c.retxPtr {
			c.retireRetx(nb)
		}
	}
	if newlySacked > 0 {
		c.delivered += newlySacked
		c.deliveredTime = now
	}

	if ack <= c.sndUna {
		// Duplicate ACK.
		if c.sndNxt > c.sndUna && ack == c.sndUna {
			c.onDupAck(newlySacked)
		}
		return
	}

	ackedBytes := ack - c.sndUna
	rs := c.buildRateSample(ack, ackedBytes, now)

	// Retire scoreboard state below the new cumulative ACK.
	sackedBelow := c.sacked.trimBelow(ack)
	freshlyAcked := ackedBytes - sackedBelow // bytes not previously SACKed
	c.delivered += freshlyAcked
	c.deliveredTime = now
	// Retransmissions are acknowledged through previously-unSACKed
	// ranges; retire them conservatively.
	c.retireRetx(freshlyAcked)
	c.sent.clearSent(c.sndUna, ack)
	c.sndUna = ack
	if c.retxPtr < ack {
		c.retxPtr = ack
	}
	c.dupAcks = 0
	c.backoff = 0

	if c.inRecovery {
		if ack >= c.recoverSeq {
			// Full ACK: recovery completes.
			c.inRecovery = false
			c.retxOut = 0
			c.lostMark = 0
			c.cc.OnExitRecovery(c)
		}
		c.cc.OnRecoveryAck(c, rs)
	} else {
		c.cc.OnAck(c, rs)
	}

	c.Stats.AckedBytes += ackedBytes
	if c.cfg.DataLimit > 0 && c.sndUna >= c.cfg.DataLimit && !c.finished {
		c.finished = true
		c.cancelRTO()
		if c.OnFinish != nil {
			c.OnFinish()
		}
		return
	}
	c.armRTO()
	c.trySend()
}

// buildRateSample computes the RTT and delivery-rate sample for this ACK.
// It must run before the scoreboard is trimmed (it walks sent records).
func (c *Conn) buildRateSample(ack, ackedBytes int64, now sim.Time) RateSample {
	rs := RateSample{AckedBytes: ackedBytes}

	// Sample from the most recently *sent* segment in the acked range: a
	// cumulative ACK can jump over segments SACKed long ago, whose ancient
	// send times must not pollute the RTT estimate.
	var newest *sentRecord
	for seq := c.sndUna; seq < ack; {
		rec := c.sent.get(seq)
		if rec == nil {
			break
		}
		if newest == nil || rec.sentAt > newest.sentAt {
			newest = rec
		}
		seq += int64(rec.size)
	}
	rs.Delivered = c.delivered + ackedBytes // post-update view

	if newest != nil {
		if !newest.retransmitted {
			rtt := now - newest.sentAt
			rs.RTT = rtt
			c.updateRTT(rtt)

			// Delivery-rate sample (Linux tcp_rate style): the interval is
			// the larger of the send-side and ack-side spans, guarding
			// against bursts inflating the estimate; samples from
			// retransmitted segments are skipped (Karn's rule for rates).
			sndInterval := newest.sentAt - newest.firstTxAtTx
			ackInterval := now - newest.txTimeAtTx
			interval := sndInterval
			if ackInterval > interval {
				interval = ackInterval
			}
			if interval > 0 {
				rs.DeliveryRate = float64(c.delivered+ackedBytes-newest.deliveredAtTx) / interval.Seconds()
			}
		}
		c.firstTxTime = newest.sentAt
		rs.IsAppLimited = newest.appLimited
		if newest.deliveredAtTx >= c.nextRoundDelivered {
			c.nextRoundDelivered = c.delivered + ackedBytes
			rs.RoundStart = true
		}
	}
	rs.InFlight = c.sndNxt - ack
	return rs
}

// retransmit resends the segment at seq (its recorded size, or an MSS
// when no record survives), counts it in flight and moves the retransmit
// pointer past it.
func (c *Conn) retransmit(seq int64) {
	size := int32(packet.MSS)
	if rec := c.sent.get(seq); rec != nil {
		size = rec.size
	}
	c.transmit(seq, size, true)
	c.retxOut += int64(size)
	c.retxPtr = seq + int64(size)
}

// retireRetx takes up to n acknowledged bytes off the retransmissions
// estimated in flight, never below zero.
func (c *Conn) retireRetx(n int64) {
	if c.retxOut > 0 {
		c.retxOut -= min(n, c.retxOut)
	}
}

func (c *Conn) onDupAck(newlySacked int64) {
	c.dupAcks++
	if c.inRecovery {
		c.trySend() // SACK opened pipe space
		return
	}
	// Enter recovery on the classic third duplicate ACK, or as soon as the
	// scoreboard shows more than three segments' worth of SACKed data
	// (RFC 6675 loss detection).
	if c.dupAcks >= 3 || c.sacked.total() > 3*int64(packet.MSS) {
		c.enterRecovery()
	}
}

func (c *Conn) enterRecovery() {
	c.inRecovery = true
	c.recoverSeq = c.sndNxt
	c.retxPtr = c.sndUna
	c.retxOut = 0
	c.Stats.FastRecoveries++
	c.cc.OnEnterRecovery(c)
	// Fast retransmit the first hole unconditionally (the pipe may still
	// exceed the reduced window, but the hole must be repaired to make
	// progress).
	if seq := c.nextRetxSeq(); seq >= 0 {
		c.retransmit(seq)
	}
	c.trySend()
}

// updateRTT implements RFC 6298 smoothing.
func (c *Conn) updateRTT(rtt sim.Time) {
	if c.MinRTTSeen == 0 || rtt < c.MinRTTSeen {
		c.MinRTTSeen = rtt
	}
	if c.srtt == 0 {
		c.srtt = rtt
		c.rttvar = rtt / 2
	} else {
		diff := c.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		c.rttvar = (3*c.rttvar + diff) / 4
		c.srtt = (7*c.srtt + rtt) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	if c.rto < c.cfg.MinRTO {
		c.rto = c.cfg.MinRTO
	}
}

func (c *Conn) armRTO() {
	if c.sndNxt == c.sndUna {
		c.cancelRTO()
		return
	}
	// The backoff doubles the RTO up to eight times, capped at 60 s; the
	// cap is tested before the shift, so no RTO can overflow it.
	timeout := sim.Duration(60e9)
	if c.rto <= timeout>>uint(c.backoff) {
		timeout = c.rto << uint(c.backoff)
	}
	c.eng.ArmTimer(&c.rtoTimer, timeout, (*connRTO)(c), nil)
}

func (c *Conn) cancelRTO() {
	c.eng.StopTimer(&c.rtoTimer)
}

// onRTO handles a retransmission timeout. With SACK there is no go-back-N:
// the sender re-enters recovery, presumes all unSACKed in-flight data lost,
// and repairs holes under the collapsed window.
func (c *Conn) onRTO() {
	if c.finished || c.sndNxt == c.sndUna {
		return
	}
	c.Stats.Timeouts++
	c.backoff++
	if c.backoff > 8 {
		c.backoff = 8
	}
	c.dupAcks = 0
	c.cc.OnRTO(c)
	c.inRecovery = true
	c.recoverSeq = c.sndNxt
	c.lostMark = c.sndNxt
	c.retxPtr = c.sndUna
	c.retxOut = 0
	c.nextSendTime = 0
	// Re-key rate sampling; everything outstanding is suspect.
	if rec := c.sent.get(c.sndUna); rec != nil {
		rec.retransmitted = true
	}
	c.armRTO()
	// Retransmit the first hole immediately, bypassing the (collapsed)
	// window check, to restart the ACK clock.
	if seq := c.nextRetxSeq(); seq >= 0 {
		c.retransmit(seq)
	}
	c.trySend()
}

func (c *Conn) String() string {
	return fmt.Sprintf("conn{%s cc=%s cwnd=%.0f una=%d nxt=%d}", c.cfg.Key, c.cc.Name(), c.Cwnd, c.sndUna, c.sndNxt)
}
