package netem

import "cebinae/internal/packet"

// NextHop is the device Inject sends a packet for dst out of (nil: none).
func (n *Node) NextHop(dst packet.NodeID) *Device { return n.nextHop(dst) }

// RouteEntries counts the next hops n's table names.
func (n *Node) RouteEntries() int {
	c := 0
	for _, d := range n.routes {
		if d != nil {
			c++
		}
	}
	return c
}
