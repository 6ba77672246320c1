package core

import (
	"cebinae/internal/hhcache"
	"cebinae/internal/packet"
	"cebinae/internal/sim"
)

// Strawman implements the naïve design §3.2 introduces to motivate
// Cebinae: when a link saturates, impose a token-bucket rate limit on all
// flows at the maximal observed size; release the limits when aggregate
// demand drops below capacity. The paper gives two reasons it fails —
// (1) it can freeze an *already unfair* allocation forever (the {1,1,6,1,1}
// example: the starved flows have no mechanism to claim their share), and
// (2) a plain policing filter mishandles loss-insensitive algorithms.
// It is implemented here so the motivating comparison can be run (see the
// TestStrawmanFreezesUnfairness experiment and §3.2 of the paper).
type Strawman struct {
	eng         *sim.Engine
	capacityBps float64
	bufferBytes int

	fifo        packet.Ring
	bytesQueued int

	limiting bool
	// buckets holds per-flow token buckets while limiting; all buckets
	// refill at the max flow's measured rate ("limits of the maximal
	// size").
	buckets   map[packet.FlowKey]*tokenBucket
	limitRate float64 // bytes/second granted to every flow
	cache     *hhcache.Cache
	txBytes   uint64
	lastTx    uint64
	timer     sim.Timer

	Stats Stats
}

// strawmanControl is the control-loop timer handler.
type strawmanControl Strawman

func (h *strawmanControl) OnEvent(any) { (*Strawman)(h).control() }

type tokenBucket struct {
	tokens float64
	lastAt sim.Time
}

// strawmanInterval is the strawman's detection/enforcement period, and
// strawmanDeltaPort its saturation threshold (as Cebinae's δp).
const (
	strawmanInterval  = sim.Time(100e6)
	strawmanDeltaPort = 0.01
)

// NewStrawman builds the strawman qdisc and starts its control loop.
func NewStrawman(eng *sim.Engine, capacityBps float64, bufferBytes int) *Strawman {
	s := &Strawman{
		eng:         eng,
		capacityBps: capacityBps,
		bufferBytes: bufferBytes,
		buckets:     make(map[packet.FlowKey]*tokenBucket),
		cache:       hhcache.New(2, 2048),
	}
	eng.ArmTimer(&s.timer, strawmanInterval, (*strawmanControl)(s), nil)
	return s
}

// Limiting reports whether the token-bucket limits are engaged.
func (s *Strawman) Limiting() bool { return s.limiting }

func (s *Strawman) control() {
	interval := strawmanInterval.Seconds()
	capBytes := s.capacityBps / 8
	delta := s.txBytes - s.lastTx
	s.lastTx = s.txBytes
	entries := s.cache.Poll()

	utilisation := float64(delta) / (capBytes * interval)
	if utilisation >= 1-strawmanDeltaPort && len(entries) > 0 {
		// Saturated: limit every flow at the maximal flow's measured rate.
		var maxBytes int64
		for _, e := range entries {
			if e.Bytes > maxBytes {
				maxBytes = e.Bytes
			}
		}
		if !s.limiting {
			s.Stats.PhaseChanges++
		}
		s.limiting = true
		s.limitRate = float64(maxBytes) / interval
	} else if utilisation < 1-strawmanDeltaPort && s.limiting {
		// Demand dropped below capacity: release the limits.
		s.limiting = false
		s.buckets = make(map[packet.FlowKey]*tokenBucket)
		s.Stats.PhaseChanges++
	}
	if s.limiting {
		s.Stats.SaturatedTime += strawmanInterval
	}
	s.eng.ArmTimer(&s.timer, strawmanInterval, (*strawmanControl)(s), nil)
}

// Enqueue polices against the per-flow bucket while limiting, then FIFOs.
func (s *Strawman) Enqueue(p *packet.Packet) bool {
	if s.bytesQueued+int(p.Size) > s.bufferBytes {
		s.Stats.BufferDrops++
		return false
	}
	if s.limiting && p.IsData() {
		now := s.eng.Now()
		b := s.buckets[p.Flow]
		if b == nil {
			// Burst allowance of one interval's worth.
			b = &tokenBucket{tokens: s.limitRate * strawmanInterval.Seconds(), lastAt: now}
			s.buckets[p.Flow] = b
		}
		// Lazy per-bucket refill.
		b.tokens += s.limitRate * (now - b.lastAt).Seconds()
		b.lastAt = now
		if cap := s.limitRate * strawmanInterval.Seconds(); b.tokens > cap {
			b.tokens = cap
		}
		if b.tokens < float64(p.Size) {
			s.Stats.LBFDrops++ // policing drop
			return false
		}
		b.tokens -= float64(p.Size)
	}
	s.bytesQueued += int(p.Size)
	s.Stats.Enqueued++
	s.fifo.Push(p)
	return true
}

// Dequeue serves FIFO and performs egress accounting.
func (s *Strawman) Dequeue() *packet.Packet {
	p := s.fifo.Pop()
	if p == nil {
		return nil
	}
	s.bytesQueued -= int(p.Size)
	s.txBytes += uint64(p.Size)
	s.Stats.TxPackets++
	s.Stats.TxBytes += uint64(p.Size)
	s.cache.Observe(p.Flow, int64(p.Size))
	return p
}

// Len returns the queued packet count.
func (s *Strawman) Len() int { return s.fifo.Len() }

// BytesQueued returns the buffered byte total.
func (s *Strawman) BytesQueued() int { return s.bytesQueued }
