package packet

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestFlowKeyReverse(t *testing.T) {
	k := FlowKey{Src: 1, Dst: 2, SrcPort: 1000, DstPort: 80, Proto: ProtoTCP}
	r := k.Reverse()
	if r.Src != 2 || r.Dst != 1 || r.SrcPort != 80 || r.DstPort != 1000 || r.Proto != ProtoTCP {
		t.Fatalf("reverse wrong: %+v", r)
	}
	if r.Reverse() != k {
		t.Fatal("double reverse must be identity")
	}
}

// TestReverseInvolution: Reverse is an involution for any key.
func TestReverseInvolution(t *testing.T) {
	f := func(src, dst int32, sp, dp uint16, proto uint8) bool {
		k := FlowKey{Src: NodeID(src), Dst: NodeID(dst), SrcPort: sp, DstPort: dp, Proto: Protocol(proto)}
		return k.Reverse().Reverse() == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashSeedIndependence(t *testing.T) {
	k := FlowKey{Src: 1, Dst: 2, SrcPort: 1000, DstPort: 80, Proto: ProtoTCP}
	if k.Hash(1) == k.Hash(2) {
		t.Fatal("different seeds should give different hashes (overwhelmingly)")
	}
	if k.Hash(1) != k.Hash(1) {
		t.Fatal("hash must be deterministic")
	}
}

func TestHashSpreads(t *testing.T) {
	// Sequentially numbered flows must not collide in low bits (they index
	// power-of-two hash tables).
	const mask = 4095
	counts := make(map[uint64]int)
	n := 4096
	for i := 0; i < n; i++ {
		k := FlowKey{Src: NodeID(i), Dst: NodeID(i + 1), SrcPort: uint16(i), DstPort: 80, Proto: ProtoTCP}
		counts[k.Hash(0)&mask]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max > 12 {
		t.Fatalf("hash clusters badly: max bucket %d for %d keys over %d buckets", max, n, mask+1)
	}
}

func TestPacketFlags(t *testing.T) {
	p := &Packet{Flags: FlagACK | FlagECE}
	if !p.HasFlag(FlagACK) || !p.HasFlag(FlagECE) || p.HasFlag(FlagSYN) {
		t.Fatal("flag accessors wrong")
	}
}

func TestIsData(t *testing.T) {
	if (&Packet{PayloadSize: 0}).IsData() {
		t.Fatal("ACK is not data")
	}
	if !(&Packet{PayloadSize: 1}).IsData() {
		t.Fatal("payload is data")
	}
}

func TestMSSMatchesMTU(t *testing.T) {
	if MSS+HeaderBytes != 1500 {
		t.Fatalf("MSS (%d) + headers (%d) should equal a 1500-byte MTU", MSS, HeaderBytes)
	}
}

func TestStringRendering(t *testing.T) {
	k := FlowKey{Src: 1, Dst: 2, SrcPort: 10, DstPort: 20, Proto: ProtoTCP}
	if k.String() == "" {
		t.Fatal("empty key string")
	}
	p := &Packet{Flow: k, Seq: 5, PayloadSize: 100}
	if p.String() == "" {
		t.Fatal("empty packet string")
	}
}

// TestPacketSize pins the struct at 64 bytes, one cache line: the SACK
// blocks live out of line behind a pointer and the one-byte fields share
// the last word. A field that grows the struct pushes every pooled packet
// across two lines and every slab off the page-aligned size class.
func TestPacketSize(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got != 64 {
		t.Fatalf("unsafe.Sizeof(Packet{}) = %d, want 64", got)
	}
}
