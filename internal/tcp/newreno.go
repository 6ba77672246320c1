package tcp

import "cebinae/internal/packet"

// NewReno implements classic loss-based congestion control (RFC 5681/6582):
// slow start to ssthresh, additive increase of one MSS per RTT afterwards,
// halving on loss, with the connection layer providing NewReno partial-ACK
// recovery.
type NewReno struct{ reno }

// NewNewReno returns the algorithm.
func NewNewReno() *NewReno { return &NewReno{} }

// Name implements CongestionControl.
func (*NewReno) Name() string { return "newreno" }

// OnAck grows the window: +acked in slow start, +MSS²/cwnd in avoidance.
func (*NewReno) OnAck(c *Conn, rs RateSample) {
	mss := float64(packet.MSS)
	if slowStart(c, rs) {
		return
	}
	c.Cwnd += mss * mss / c.Cwnd
}

// OnEnterRecovery halves the window (multiplicative decrease).
func (*NewReno) OnEnterRecovery(c *Conn) { reduce(c, c.Cwnd/2) }

// OnRTO collapses to one segment and restarts slow start.
func (n *NewReno) OnRTO(c *Conn) {
	n.OnEnterRecovery(c)
	c.Cwnd = float64(packet.MSS)
}
