// Package packet defines the packet and flow-identity model shared by every
// layer of the simulator: transport endpoints, network devices, queue
// disciplines, and the Cebinae data plane.
package packet

import (
	"fmt"

	"cebinae/internal/sim"
)

// NodeID identifies a node (host or switch) in the simulated network.
type NodeID int32

// Protocol numbers mirror their IANA values for familiarity.
type Protocol uint8

const (
	ProtoTCP Protocol = 6
	ProtoUDP Protocol = 17
)

// FlowKey is the canonical 5-tuple used for flow-level accounting. Addresses
// are node IDs; the simulator does not model IP addressing separately.
type FlowKey struct {
	Src     NodeID
	Dst     NodeID
	SrcPort uint16
	DstPort uint16
	Proto   Protocol
}

// Reverse returns the key of the opposite direction of the same conversation
// (used to route ACKs back to the sender's demux entry).
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{Src: k.Dst, Dst: k.Src, SrcPort: k.DstPort, DstPort: k.SrcPort, Proto: k.Proto}
}

func (k FlowKey) String() string {
	return fmt.Sprintf("%d:%d->%d:%d/%d", k.Src, k.SrcPort, k.Dst, k.DstPort, k.Proto)
}

// Hash returns a 64-bit mix of the flow key, suitable for hash-table
// placement (e.g., the heavy-hitter cache stages use seeded variants).
func (k FlowKey) Hash(seed uint64) uint64 {
	h := seed ^ 0xCBF29CE484222325
	mix := func(v uint64) {
		h ^= v
		h *= 0x100000001B3
		h ^= h >> 29
	}
	mix(uint64(uint32(k.Src)))
	mix(uint64(uint32(k.Dst)) << 1)
	mix(uint64(k.SrcPort)<<16 | uint64(k.DstPort))
	mix(uint64(k.Proto))
	return h
}

// TCP header flag bits.
const (
	FlagSYN uint8 = 1 << 0
	FlagACK uint8 = 1 << 1
	FlagFIN uint8 = 1 << 2
	FlagECE uint8 = 1 << 3 // ECN-Echo: receiver saw a CE mark
	FlagCWR uint8 = 1 << 4 // sender reduced its window in response to ECE
)

// ECN codepoints on the (simulated) IP header.
type ECN uint8

const (
	ECNNotECT ECN = 0 // transport is not ECN-capable
	ECNECT    ECN = 1 // ECN-capable transport
	ECNCE     ECN = 3 // congestion experienced (set by the network)
)

// Packet is one simulated datagram. Packets are passed by pointer and owned
// by exactly one queue or in-flight link at any instant.
//
// The fields are ordered by size so the struct is exactly 64 bytes, one
// cache line, and Pool's slabs are page-aligned (see slabLen): every
// pooled packet starts on a line boundary, so each hop's first read of a
// packet touches one line.
type Packet struct {
	Flow FlowKey

	// Seq is the first payload byte carried; Ack is the cumulative ACK
	// (next byte expected). Both are byte offsets, as in TCP.
	Seq int64
	Ack int64

	// EnqueuedAt is stamped at enqueue by queue disciplines that need
	// sojourn times (CoDel), from the engine's Local clock. It is the only
	// stamp a packet carries: what a sender needs for RTT and delivery-rate
	// samples stays in its own per-segment record.
	EnqueuedAt sim.Time

	// SACK holds the selective-acknowledgement blocks of an ACK (RFC 2018),
	// lowest first; only SACK[:NSack] are meaningful. The array lives out
	// of line because only ACKs carry blocks: a packet about to carry
	// some draws one with Pool.GetSack, and Pool.Put takes it back, so a
	// pooled packet holds an array only while it is an ACK with blocks.
	SACK *[MaxSack]SackBlock

	// PayloadSize is application bytes carried; Size is bytes on the wire
	// (payload plus fixed header overhead).
	PayloadSize int32
	Size        int32

	// FlowID tags a packet of a scheduled flow with its schedule ordinal
	// plus one, so per-flow state can live in a slice instead of a map
	// keyed by Flow; 0 means untagged.
	FlowID uint32

	Flags uint8
	ECN   ECN

	// Retransmit marks a retransmitted data segment (excluded from goodput).
	Retransmit bool

	// NSack is the number of blocks in SACK, at most MaxSack.
	NSack uint8
}

// MaxSack is the most SACK blocks one ACK carries (RFC 2018 leaves room
// for three beside the timestamp option).
const MaxSack = 3

// SackBlock is one received byte range [Start, End) beyond the cumulative
// ACK point.
type SackBlock struct {
	Start, End int64
}

// HeaderBytes is the fixed per-packet overhead (IP + TCP headers) the
// simulator charges on the wire.
const HeaderBytes = 52

// MSS is the default maximum segment (payload) size, chosen so that a full
// segment plus headers matches a 1500-byte MTU.
const MSS = 1500 - HeaderBytes

// IsData reports whether the packet carries payload bytes.
func (p *Packet) IsData() bool { return p.PayloadSize > 0 }

// HasFlag reports whether flag f is set.
func (p *Packet) HasFlag(f uint8) bool { return p.Flags&f != 0 }

func (p *Packet) String() string {
	return fmt.Sprintf("pkt{%s seq=%d ack=%d len=%d flags=%08b}", p.Flow, p.Seq, p.Ack, p.PayloadSize, p.Flags)
}
