//go:build packetdebug

package packet

import "fmt"

// poolDebug poisons released packets. Put overwrites a packet's size,
// sequence, flow and timestamp fields with sentinels no live packet holds,
// so code that reads a packet after handing it off — byte accounting after
// a queue push, a drop counted after the release — reads garbage that the
// ledgers and goldens see. Put panics on a packet that already holds every
// sentinel (a double release), and Get panics on a recycled packet whose
// sentinels were overwritten (a write after release). Pool.Recycle poisons
// every packet of the slabs it hands back, and a pool that draws one of
// them panics if a packet's sentinels were overwritten after its run
// ended, then zeroes the slab. It keeps no state,
// so it stays zero-size and allocates nothing. Enabled with
// `go build -tags packetdebug`; the release build's no-op twin lives in
// pool_nodebug.go.
type poolDebug struct{}

// poison holds the sentinels Put writes: negative sizes and offsets, and a
// flow between nodes no topology numbers.
var poison = Packet{
	Flow:        FlowKey{Src: -0x0BADF00D, Dst: -0x0BADF00D, SrcPort: 0xDEAD, DstPort: 0xDEAD, Proto: 0xFF},
	Seq:         -0x0BADF00DDEADBEEF,
	Ack:         -0x0BADF00DDEADBEEF,
	EnqueuedAt:  -0x0BADF00DDEADBEEF,
	PayloadSize: -0x0BADF00D,
	Size:        -0x0BADF00D,
	FlowID:      0xDEADBEEF,
}

// poisoned reports whether every field Put overwrites still holds its
// sentinel.
func poisoned(p *Packet) bool {
	return p.Flow == poison.Flow && p.Seq == poison.Seq && p.Ack == poison.Ack &&
		p.EnqueuedAt == poison.EnqueuedAt && p.PayloadSize == poison.PayloadSize &&
		p.Size == poison.Size && p.FlowID == poison.FlowID
}

func (poolDebug) onGet(p *Packet) {
	if !poisoned(p) {
		panic(fmt.Sprintf("packet: %v was written after its release", p))
	}
}

func (poolDebug) onPut(p *Packet) {
	if poisoned(p) {
		panic(fmt.Sprintf("packet: double free of %v", p))
	}
	poisonPacket(p)
}

// onRecycle poisons every packet of a slab its run is done with, released
// or not.
func (poolDebug) onRecycle(slab []Packet) {
	for i := range slab {
		poisonPacket(&slab[i])
	}
}

// onSlab checks that no packet of a recycled slab was written after its
// run ended, then zeroes the slab for its next run.
func (poolDebug) onSlab(slab []Packet) {
	for i := range slab {
		if !poisoned(&slab[i]) {
			panic(fmt.Sprintf("packet: %v was written after its run was recycled", &slab[i]))
		}
		slab[i] = Packet{}
	}
}

func poisonPacket(p *Packet) {
	p.Flow, p.Seq, p.Ack, p.EnqueuedAt = poison.Flow, poison.Seq, poison.Ack, poison.EnqueuedAt
	p.PayloadSize, p.Size, p.FlowID = poison.PayloadSize, poison.Size, poison.FlowID
}
