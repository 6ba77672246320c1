package netem

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
