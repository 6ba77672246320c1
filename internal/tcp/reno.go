package tcp

import "cebinae/internal/packet"

// reno is the behaviour every loss-based algorithm here shares with
// RFC 5681 Reno, embedded by each of them so that a file holds only its
// own increase and decrease law: nothing to initialise, slow-start
// regrowth during recovery, deflation to ssthresh on leaving it, and pure
// ACK clocking. OnEnterRecovery and OnRTO stay with the algorithm — an
// embedded method cannot call back into the outer type's decrease.
type reno struct{}

// Init implements CongestionControl: no per-connection state.
func (reno) Init(c *Conn) {}

// OnRecoveryAck grows the window in slow start while below ssthresh —
// after an RTO the window restarts from one segment and must regrow while
// the scoreboard repairs losses (RFC 5681 §3.1); fast recovery entry sets
// cwnd = ssthresh, so this is a no-op there.
func (reno) OnRecoveryAck(c *Conn, rs RateSample) { slowStart(c, rs) }

// OnExitRecovery deflates the window back to ssthresh.
func (reno) OnExitRecovery(c *Conn) { c.Cwnd = c.Ssthresh }

// PacingRate implements CongestionControl: ACK-clocked.
func (reno) PacingRate(c *Conn) float64 { return 0 }

// slowStart grows the window by the bytes acked, up to ssthresh, and
// reports whether the connection was in slow start (so the ACK is spent).
func slowStart(c *Conn, rs RateSample) bool {
	if c.Cwnd < c.Ssthresh {
		c.Cwnd += float64(rs.AckedBytes)
		if c.Cwnd > c.Ssthresh {
			c.Cwnd = c.Ssthresh
		}
		return true
	}
	return false
}

// reduce is the multiplicative decrease: ssthresh and cwnd both drop to w,
// floored at two segments.
func reduce(c *Conn, w float64) {
	if min := 2 * float64(packet.MSS); w < min {
		w = min
	}
	c.Ssthresh = w
	c.Cwnd = w
}
