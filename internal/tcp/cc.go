// Package tcp implements a packet-level TCP sender/receiver pair for the
// simulator with pluggable congestion control. The transport provides slow
// start, AIMD congestion avoidance, duplicate-ACK fast retransmit, NewReno
// partial-ACK recovery, RFC 6298 retransmission timeouts, delayed ACKs,
// and delivery-rate sampling (for BBR), which together are sufficient for
// the congestion phenomena the Cebinae paper studies to emerge: RTT
// unfairness, Cubic-vs-NewReno capture, BBR aggression, and Vegas
// starvation by loss-based algorithms. It implements the five algorithms
// the paper's evaluation runs (NewReno, Cubic, BIC, Vegas, BBRv1), none of
// them ECN-capable: every segment is sent Not-ECT, so congestion reaches
// a sender only as loss or delay.
package tcp

import (
	"sort"

	"cebinae/internal/sim"
)

// RateSample carries per-ACK delivery information to the congestion control
// module, in the style of Linux's tcp_rate sampling.
type RateSample struct {
	// AckedBytes is the number of bytes newly cumulatively acknowledged.
	AckedBytes int64
	// RTT is the round-trip sample for the most recently acked segment
	// (zero when the segment was retransmitted — Karn's algorithm).
	RTT sim.Time
	// DeliveryRate is the estimated delivery rate in bytes/second (zero
	// when no valid sample is available).
	DeliveryRate float64
	// IsAppLimited marks samples taken while the sender had no data to
	// send; rate filters should not let such samples lower their estimate.
	IsAppLimited bool
	// RoundStart is true when this ACK begins a new round trip.
	RoundStart bool
	// InFlight is the bytes outstanding after processing this ACK.
	InFlight int64
	// Delivered is the connection's total delivered-byte counter.
	Delivered int64
}

// CongestionControl is the pluggable algorithm interface. Implementations
// mutate the connection's cwnd/ssthresh (in bytes) through the hooks; an
// algorithm that paces (BBR) additionally reports a pacing rate.
type CongestionControl interface {
	// Name returns the algorithm's short name (e.g. "cubic").
	Name() string
	// Init is called once when the connection starts.
	Init(c *Conn)
	// OnAck is called for every ACK that advances snd_una outside of
	// loss recovery.
	OnAck(c *Conn, rs RateSample)
	// OnRecoveryAck is called for ACKs processed during fast recovery
	// (needed by algorithms, like BBR, that track delivery continuously).
	OnRecoveryAck(c *Conn, rs RateSample)
	// OnEnterRecovery is called once on the third duplicate ACK, before
	// the fast retransmit. It must set c.Ssthresh (and may set c.Cwnd).
	OnEnterRecovery(c *Conn)
	// OnExitRecovery is called when recovery completes (full ACK).
	OnExitRecovery(c *Conn)
	// OnRTO is called on a retransmission timeout.
	OnRTO(c *Conn)
	// PacingRate returns the bytes/second at which segments should be
	// paced out, or 0 to use pure ACK clocking.
	PacingRate(c *Conn) float64
}

// ccRegistry maps algorithm names to constructors so experiment configs can
// reference CCAs by string.
var ccRegistry = map[string]func() CongestionControl{
	"newreno": func() CongestionControl { return NewNewReno() },
	"cubic":   func() CongestionControl { return NewCubic() },
	"bic":     func() CongestionControl { return NewBIC() },
	"vegas":   func() CongestionControl { return NewVegas() },
	"bbr":     func() CongestionControl { return NewBBR() },
}

// NewCC constructs a congestion control module by name; the boolean is
// false for unknown names.
func NewCC(name string) (CongestionControl, bool) {
	f, ok := ccRegistry[name]
	if !ok {
		return nil, false
	}
	return f(), true
}

// CCNames returns the registered algorithm names in sorted order, so
// lists built from the registry (usage strings, sweep enumerations) are
// identical across runs.
func CCNames() []string {
	names := make([]string, 0, len(ccRegistry))
	for n := range ccRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
