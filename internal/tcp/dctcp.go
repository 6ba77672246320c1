package tcp

import "cebinae/internal/packet"

// DCTCP implements Data Center TCP (Alizadeh et al., SIGCOMM 2010; RFC
// 8257): the sender estimates the fraction α of bytes that were CE-marked
// over each observation window and, once per window, reduces the
// congestion window proportionally — cwnd ← cwnd·(1 − α/2) — instead of
// halving on every congestion signal. This exercises Cebinae's ECN path
// (Fig. 5 line 26: the LBF CE-marks ECN-capable packets it delays), giving
// an end-to-end ECN-responsive workload.
//
// DCTCP is an ECNReactor, so a connection running it sends its data ECT.
type DCTCP struct {
	reno
	// G is the EWMA gain for the marking-fraction estimate (RFC 8257
	// default 1/16).
	G float64

	alpha        float64
	ackedBytes   int64 // bytes acked in the current observation window
	markedBytes  int64 // of which carried ECN-Echo
	windowEnd    int64 // snd_una-relative end of the observation window
	reduced      bool  // one reduction per window
	lastReduceAt int64
}

// NewDCTCP returns DCTCP with RFC 8257 defaults (g = 1/16, α₀ = 1).
func NewDCTCP() *DCTCP { return &DCTCP{G: 1.0 / 16, alpha: 1} }

// Name implements CongestionControl.
func (*DCTCP) Name() string { return "dctcp" }

// Init implements CongestionControl.
func (d *DCTCP) Init(c *Conn) {
	d.alpha = 1
	d.ackedBytes, d.markedBytes = 0, 0
	d.windowEnd = 0
}

// OnAck runs Reno-style growth plus the per-window α update.
func (d *DCTCP) OnAck(c *Conn, rs RateSample) {
	d.observe(c, rs, false)
	mss := float64(packet.MSS)
	if slowStart(c, rs) {
		return
	}
	c.Cwnd += mss * mss / c.Cwnd
}

// OnECE records marked bytes and applies the fraction-proportional
// reduction at the end of each observation window (ECNReactor).
func (d *DCTCP) OnECE(c *Conn, rs RateSample) {
	d.observe(c, rs, true)
}

// observe accumulates the window's byte counts and closes the window once
// a full cwnd of data has been acknowledged.
func (d *DCTCP) observe(c *Conn, rs RateSample, marked bool) {
	d.ackedBytes += rs.AckedBytes
	if marked {
		d.markedBytes += rs.AckedBytes
	}
	if rs.Delivered < d.windowEnd {
		return
	}
	// Window complete: refresh α and react if anything was marked.
	if d.ackedBytes > 0 {
		f := float64(d.markedBytes) / float64(d.ackedBytes)
		d.alpha = (1-d.G)*d.alpha + d.G*f
		if d.markedBytes > 0 {
			reduce(c, c.Cwnd*(1-d.alpha/2))
		}
	}
	d.ackedBytes, d.markedBytes = 0, 0
	d.windowEnd = rs.Delivered + rs.InFlight
}

// OnEnterRecovery halves on packet loss (DCTCP keeps standard loss
// behaviour; α only moderates ECN reactions).
func (*DCTCP) OnEnterRecovery(c *Conn) { reduce(c, c.Cwnd/2) }

// OnRTO collapses the window.
func (d *DCTCP) OnRTO(c *Conn) {
	d.OnEnterRecovery(c)
	c.Cwnd = float64(packet.MSS)
}

// Alpha exposes the current marking-fraction estimate (diagnostics).
func (d *DCTCP) Alpha() float64 { return d.alpha }
