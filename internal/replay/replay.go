// Package replay turns trace-generator flow schedules into live packet
// arrivals at a netem topology — the scale tier between the offline trace
// evaluation (feed trace.Pkt records straight into a sketch) and full TCP
// (a congestion-control state machine per flow). A replay.Source drives
// 10⁵–10⁶ concurrent flows through real devices, queues, and a Cebinae
// switch with a compact per-flow record: an embedded wheel timer, a packet
// countdown, and a pacing gap — no scoreboard, no SACK state, no
// per-flow goroutines or closures.
//
// Flow records live in a chunked arena. Embedded sim.Timers are
// intrusively linked into the engine's timing wheel, so records must have
// stable addresses: the arena allocates fixed-size chunks that are never
// moved or freed, and finished flows recycle their slot through a free
// list chained through the finished records themselves. A record is two
// cache lines (128 B), 80 of them its timer. The steady-state send path —
// timer fires, pooled packet filled and injected, timer re-armed —
// allocates nothing.
//
// With Config.ClosedLoop set, the source reacts to congestion feedback
// from a replay.Sink at the far end: the sink watches sequence numbers and
// ECN CE marks, and on loss or marking sends a rate-limited feedback
// packet back through the network (a real packet on the reverse route, so
// sharded runs stay deterministic — feedback crosses cut links through the
// same handoff machinery as data). The source doubles the flow's pacing
// gap on each feedback and decays it multiplicatively back toward the
// schedule rate, a deliberately minimal AIMD-flavoured loop: enough for
// Cebinae's tax to actually slow elephants down, cheap enough to run a
// million times over.
//
// Every emitted packet carries its flow's schedule ordinal + 1 as
// Packet.FlowID, and the sink's feedback echoes it: both ends keep their
// per-flow state in slices indexed by it, so no step of the loop hashes a
// 5-tuple into a map.
package replay

import (
	"fmt"
	"sort"

	"cebinae/internal/netem"
	"cebinae/internal/packet"
	"cebinae/internal/sim"
	"cebinae/internal/trace"
)

// Arena geometry: fixed chunks keep flow records at stable addresses (the
// embedded timers are intrusively linked into the engine's wheel); a
// chunk of 512 records is 64 KiB.
const (
	chunkShift = 9
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// minCutGap is the smallest pacing gap a congestion cut enforces; it gives
// schedule-rate-unlimited flows (gap 0) a real gap to double from.
const minCutGap = sim.Time(1000) // 1 µs

// maxBackoff bounds the closed-loop slowdown: the pacing gap never exceeds
// the schedule gap shifted left by maxBackoff, i.e. at most 64× slower
// than scheduled.
const maxBackoff = 6

// Config parameterises a Source.
type Config struct {
	// To is the destination node ID every flow is rewritten towards. The
	// schedule's synthetic node IDs are replaced with (source node, To);
	// its port pairs — unique per flow — are kept, so flow identity
	// survives the rewrite.
	To packet.NodeID
	// PacketBytes is the wire size of every emitted packet (default 700,
	// matching trace.DefaultConfig's MeanPacketBytes). Must exceed
	// packet.HeaderBytes.
	PacketBytes int
	// ClosedLoop enables rate reaction to Sink feedback: each feedback
	// packet doubles the flow's pacing gap (bounded by maxBackoff), and
	// every subsequent send decays the gap back toward the schedule rate.
	ClosedLoop bool
	// ECN marks emitted packets ECT so an ECN-enabled qdisc can CE-mark
	// instead of dropping.
	ECN bool
	// RTTSpread models per-flow RTT diversity in the pacing cadence:
	// each flow's schedule gap is scaled by a deterministic factor in
	// [1−RTTSpread, 1+RTTSpread] hashed from its own flow record, so a
	// backbone population paces at individually offset cadences instead
	// of all sharing the chain RTT. The factor is a pure function of
	// flow identity — independent of shard count, placement, and
	// admission order — so sharded runs stay byte-identical. Must be in
	// [0, 1); zero keeps uniform schedule-rate pacing.
	RTTSpread float64
}

// rttSpreadSeed salts the per-flow jitter hash so the pacing factor is
// uncorrelated with other uses of the flow-key hash (sketch rows, cache
// stages, scoring tiebreaks).
const rttSpreadSeed = 0x52545453 // "RTTS"

// SourceStats aggregates sender-side counters.
type SourceStats struct {
	Started     uint64 // flows started
	Finished    uint64 // flows that emitted their full schedule
	Active      int    // flows currently in flight
	PeakActive  int    // high-water mark of Active
	SentPackets uint64
	Feedbacks   uint64 // congestion feedback packets accepted
	RateCuts    uint64 // pacing-gap doublings applied
}

// flowState is the compact per-flow record. The embedded Timer is
// intrusively linked into the engine's timing wheel, so flowStates live in
// the arena (stable addresses) and are recycled, never moved. What a send
// needs and can derive is not stored: the next byte offset is
// (npkts − left) packets, the backoff ceiling follows from baseGap, and a
// record is live exactly while left > 0.
type flowState struct {
	timer sim.Timer
	key   packet.FlowKey
	id    uint32 // schedule ordinal + 1, stamped as every packet's FlowID
	left  int32  // packets still to send; 0 once the flow has finished
	// npkts is the flow's packet count while it runs; once it has
	// finished, the free list's next slot + 1 (0 ends the list).
	npkts   int32
	slot    int32    // arena ordinal, for the free list and the index
	gap     sim.Time // current pacing gap
	baseGap sim.Time // schedule-rate gap
}

type chunk [chunkSize]flowState

// Source replays a flow schedule from a netem node. It is single-engine
// state: construct it on the node's engine goroutine before the run starts
// and read Stats after the run.
type Source struct {
	node     *netem.Node
	eng      *sim.Engine
	cfg      Config
	schedule []trace.FlowSpec
	next     int // first schedule entry not yet admitted

	startTimer sim.Timer

	// An admission burst's first sends are one owned event, re-armed
	// under each admitted flow's key in turn: ordinals first..next−1 are
	// admitted and still wait for their first send, and firstSeq is the
	// seq first's admission drew.
	firstEv  sim.Event
	first    int
	firstSeq uint64

	chunks []*chunk
	free   int32 // first free slot + 1; 0 = none, carve from the arena
	used   int

	// index maps a schedule ordinal to the arena slot its flow was given
	// at its first send — only maintained in closed-loop mode, where feedback
	// packets must find their flow by the FlowID they echo. A finished
	// flow's entry goes stale; Deliver checks the slot still holds it.
	index []int32

	Stats SourceStats
}

// NewSource attaches a replay sender to node, driving the given schedule
// (as produced by trace.Flows: time-sorted by At). In closed-loop mode the
// source registers itself as the node's default endpoint to receive
// feedback packets.
func NewSource(node *netem.Node, schedule []trace.FlowSpec, cfg Config) *Source {
	if cfg.PacketBytes == 0 {
		cfg.PacketBytes = 700
	}
	if cfg.PacketBytes <= packet.HeaderBytes {
		panic(fmt.Sprintf("replay: PacketBytes %d must exceed the %d-byte header", cfg.PacketBytes, packet.HeaderBytes))
	}
	if cfg.To == 0 {
		panic("replay: Config.To must name the destination node")
	}
	if cfg.RTTSpread < 0 || cfg.RTTSpread >= 1 {
		panic(fmt.Sprintf("replay: RTTSpread %v outside [0, 1)", cfg.RTTSpread))
	}
	if !sort.SliceIsSorted(schedule, func(i, j int) bool { return schedule[i].At < schedule[j].At }) {
		panic("replay: schedule must be sorted by arrival time (as trace.Flows produces)")
	}
	s := &Source{node: node, eng: node.Engine(), cfg: cfg, schedule: schedule}
	if cfg.ClosedLoop {
		s.index = make([]int32, 0, len(schedule))
		node.RegisterDefault(s)
	}
	if len(schedule) > 0 {
		// Flow admission is a traffic discontinuity: pinned so a fluid
		// fast-forward skip can never jump across an arrival instant.
		s.eng.ArmPinnedTimerAt(&s.startTimer, schedule[0].At, (*sourceStart)(s), nil)
	}
	return s
}

// alloc hands out a flow record with a stable address: recycled from the
// free list, or carved from the arena (growing it a chunk at a time).
func (s *Source) alloc() *flowState {
	if s.free != 0 {
		fs := s.at(s.free - 1)
		s.free = fs.npkts
		return fs
	}
	if s.used == len(s.chunks)*chunkSize {
		s.chunks = append(s.chunks, new(chunk))
	}
	slot := int32(s.used)
	s.used++
	fs := s.at(slot)
	fs.slot = slot
	return fs
}

func (s *Source) at(slot int32) *flowState {
	return &s.chunks[slot>>chunkShift][slot&chunkMask]
}

// sourceStart is the Source's flow-admission event handler view.
type sourceStart Source

// OnEvent admits every schedule entry that has come due and re-arms for
// the next arrival instant.
//
// Each admitted flow's first packet goes out at this same instant, but
// after the whole burst has been admitted: under the key (now, now, seq)
// of a delay-0 timer armed at admission, seq drawn here, one per flow in
// schedule order. The seqs are consecutive, so one owned event re-armed
// under each in turn (firstSend) dispatches exactly where the burst's
// timers would have, without a standing population of 10⁵ flows putting
// 10⁵ events on the heap. The records themselves are filled at the first
// send.
func (h *sourceStart) OnEvent(any) {
	s := (*Source)(h)
	if s.first < s.next {
		// Only a FastForward skip landing on this arrival instant can
		// carry an earlier burst's first sends here.
		panic("replay: flow admission with an earlier burst's first sends still pending")
	}
	now := s.eng.Now()
	for s.next < len(s.schedule) && s.schedule[s.next].At <= now {
		seq := s.eng.DrawSeq()
		if s.next == s.first {
			s.firstSeq = seq
		}
		s.next++
		s.Stats.Started++
		s.Stats.Active++
	}
	s.Stats.PeakActive = max(s.Stats.PeakActive, s.Stats.Active)
	if s.first < s.next {
		s.eng.ScheduleOwned(&s.firstEv, now, now, s.firstSeq, (*firstSend)(s), nil)
	}
	if s.next < len(s.schedule) {
		s.eng.ArmPinnedTimerAt(&s.startTimer, s.schedule[s.next].At, h, nil)
	}
}

// firstSend is the Source's first-send event handler view.
type firstSend Source

// OnEvent starts the next admitted flow, sends its first packet and
// re-arms for the one after it, whose seq is the next one drawn.
func (h *firstSend) OnEvent(any) {
	s := (*Source)(h)
	ord := s.first
	s.first++
	if s.first < s.next {
		s.firstSeq++
		now := s.eng.Now()
		s.eng.ScheduleOwned(&s.firstEv, now, now, s.firstSeq, h, nil)
	}
	s.send(s.start(ord))
}

// start fills a record for schedule entry ord.
func (s *Source) start(ord int) *flowState {
	spec := &s.schedule[ord]
	fs := s.alloc()
	fs.id = uint32(ord) + 1
	fs.key = packet.FlowKey{
		Src:     s.node.ID,
		Dst:     s.cfg.To,
		SrcPort: spec.Key.SrcPort,
		DstPort: spec.Key.DstPort,
		Proto:   spec.Key.Proto,
	}
	npkts := int32(spec.Bytes/int64(s.cfg.PacketBytes)) + 1
	fs.npkts = npkts
	fs.left = npkts
	fs.baseGap = spec.Lifetime / sim.Time(npkts)
	if s.cfg.RTTSpread > 0 {
		// Integer parts-per-million keeps the jitter exact and free of
		// float rounding: factor = 1 − spread + hash-offset within the
		// 2·spread span, applied to the schedule gap.
		span := uint64(2 * s.cfg.RTTSpread * 1e6)
		off := spec.Key.Hash(rttSpreadSeed) % (span + 1)
		ppm := 1_000_000 - span/2 + off
		fs.baseGap = fs.baseGap * sim.Time(ppm) / 1_000_000
	}
	fs.gap = fs.baseGap
	if s.index != nil {
		s.index = append(s.index, fs.slot)
	}
	return fs
}

// flowTick is the Source's per-flow pacing-timer handler view; the
// timer's arg carries the flow record, so one handler serves the whole
// arena.
type flowTick Source

func (h *flowTick) OnEvent(arg any) { (*Source)(h).send(arg.(*flowState)) }

// send emits one packet of fs and re-arms its pacing timer — the
// zero-alloc steady-state path (pooled packet, embedded timer,
// pointer-typed arg).
func (s *Source) send(fs *flowState) {
	p := s.node.AllocPacket()
	p.Flow = fs.key
	p.FlowID = fs.id
	p.Seq = int64(fs.npkts-fs.left) * int64(s.cfg.PacketBytes)
	p.Size = int32(s.cfg.PacketBytes)
	p.PayloadSize = p.Size - packet.HeaderBytes
	if s.cfg.ECN {
		p.ECN = packet.ECNECT
	}
	fs.left--
	last := fs.left == 0
	if last {
		p.Flags |= packet.FlagFIN
	}
	s.node.Inject(p)
	s.Stats.SentPackets++
	if last {
		s.finish(fs)
		return
	}
	if fs.gap > fs.baseGap {
		// Multiplicative decay back toward the schedule rate.
		fs.gap = fs.baseGap + (fs.gap-fs.baseGap)*7/8
	}
	s.eng.ArmTimer(&fs.timer, fs.gap, (*flowTick)(s), fs)
}

// finish retires fs (left is 0) and pushes its slot on the free list.
func (s *Source) finish(fs *flowState) {
	s.Stats.Finished++
	s.Stats.Active--
	fs.npkts = s.free
	s.free = fs.slot + 1
}

// Deliver receives congestion feedback from the far-end Sink (the source
// is its node's default endpoint in closed-loop mode): double the flow's
// pacing gap, bounded by its backoff ceiling. The packet stays owned by
// the network; Deliver only reads it.
func (s *Source) Deliver(p *packet.Packet) {
	if !p.HasFlag(packet.FlagACK) {
		return
	}
	id := p.FlowID
	if id == 0 || int(id) > len(s.index) {
		return // not a feedback for a started flow
	}
	fs := s.at(s.index[id-1])
	if fs.left == 0 || fs.id != id {
		return // flow finished, its slot perhaps recycled since
	}
	s.Stats.Feedbacks++
	g := fs.gap * 2
	if g < minCutGap {
		g = minCutGap
	}
	// The backoff ceiling: the schedule gap maxBackoff doublings up, and
	// never below the cut floor's.
	if ceil := max(fs.baseGap, minCutGap) << maxBackoff; g > ceil {
		g = ceil
	}
	if g > fs.gap {
		s.Stats.RateCuts++
	}
	fs.gap = g
}

// Done reports whether the source has started every schedule entry and
// every started flow has finished.
func (s *Source) Done() bool {
	return s.next == len(s.schedule) && s.Stats.Active == 0
}

// ResidentChunks reports the arena footprint (chunks × chunkSize records),
// for memory accounting in benchmarks.
func (s *Source) ResidentChunks() int { return len(s.chunks) }
