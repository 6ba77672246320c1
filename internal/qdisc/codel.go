package qdisc

import (
	"math"

	"cebinae/internal/packet"
	"cebinae/internal/sim"
)

// CoDelParams are the controlled-delay AQM knobs (RFC 8289 defaults).
type CoDelParams struct {
	Target   sim.Time // acceptable standing-queue sojourn time (5 ms)
	Interval sim.Time // sliding window for minimum tracking (100 ms)
}

// DefaultCoDelParams mirrors RFC 8289 §4.4.
func DefaultCoDelParams() CoDelParams {
	return CoDelParams{
		Target:   sim.Duration(5e6),   // 5 ms
		Interval: sim.Duration(100e6), // 100 ms
	}
}

// codelState is the per-queue CoDel dropper state machine. It is embedded in
// each FQ-CoDel flow queue and operates purely on packet sojourn times
// observed at dequeue. Its deadlines and the `now` it is handed are readings
// of the engine's Local clock, like the enqueue stamps behind the sojourns.
type codelState struct {
	params        CoDelParams
	firstAboveAt  sim.Time // time when sojourn first exceeded target (0 = not above)
	dropNextAt    sim.Time
	dropCount     uint32
	lastDropCount uint32
	dropping      bool
}

// shouldDrop evaluates the RFC 8289 state machine for a packet whose queue
// sojourn ended at now, returning true when the packet must be dropped.
func (c *codelState) shouldDrop(sojourn, now sim.Time, queueBytes int) bool {
	okToDrop := c.judge(sojourn, now, queueBytes)
	if c.dropping {
		if !okToDrop {
			c.dropping = false
			return false
		}
		if now >= c.dropNextAt {
			c.dropCount++
			c.dropNextAt = c.controlLaw(c.dropNextAt)
			return true
		}
		return false
	}
	if okToDrop && (now-c.dropNextAt < c.params.Interval || now-c.firstAboveAt >= c.params.Interval) {
		c.dropping = true
		// Hysteresis: restart close to the last drop rate when re-entering
		// the dropping state shortly after leaving it.
		delta := c.dropCount - c.lastDropCount
		c.dropCount = 1
		if delta > 1 && now-c.dropNextAt < 16*c.params.Interval {
			c.dropCount = delta
		}
		c.dropNextAt = c.controlLaw(now)
		c.lastDropCount = c.dropCount
		return true
	}
	return false
}

// judge tracks whether sojourn time has stayed above target for a full
// interval ("ok to drop" in RFC terms).
func (c *codelState) judge(sojourn, now sim.Time, queueBytes int) bool {
	if sojourn < c.params.Target || queueBytes <= 2*packet.MSS {
		c.firstAboveAt = 0
		return false
	}
	if c.firstAboveAt == 0 {
		c.firstAboveAt = now + c.params.Interval
		return false
	}
	return now >= c.firstAboveAt
}

// controlLaw spaces successive drops by interval/sqrt(count).
func (c *codelState) controlLaw(t sim.Time) sim.Time {
	//lint:ignore simtime the control law requires sqrt; Interval is ~1e8 ns, far below float64's 2^53 exact-integer range, so the round-trip is exact to the nanosecond
	return t + sim.Time(float64(c.params.Interval)/math.Sqrt(float64(c.dropCount)))
}
