package netem

import "cebinae/internal/sim"

// Graph is the topology skeleton a builder constructs — nodes in creation
// order and the links between them — captured by a Recorder so a
// partitioner (internal/shard) can choose cut links automatically instead
// of relying on the builder's hand-written shard hints. Node identity is
// the creation index, which is the same quantity a sharded fabric's
// global node counter preserves, so an assignment computed over a Graph
// applies positionally to any later build of the same topology.
type Graph struct {
	Nodes []GraphNode
	Links []GraphLink
}

// GraphNode records one NodeOn call.
type GraphNode struct {
	Name string
}

// GraphLink records one Connect call between the nodes at creation
// indices A and B.
type GraphLink struct {
	A, B    int
	Delay   sim.Time
	RateBps float64
}

// Recorder is a Fabric decorator: it delegates every construction call to
// an inner fabric (typically a throwaway single Network) while capturing
// the topology Graph. It reports a caller-chosen shard count so builders
// that derive NodeOn hints from Shards() make exactly the calls they
// would make against a real sharded fabric — the recording pass must
// trace the same construction order the real pass will.
type Recorder struct {
	inner  Fabric
	shards int
	Graph  Graph
	index  map[*Node]int
}

// NewRecorder wraps inner, reporting `shards` from Shards().
func NewRecorder(inner Fabric, shards int) *Recorder {
	return &Recorder{inner: inner, shards: shards, index: make(map[*Node]int)}
}

// Shards implements Fabric with the recorded-for shard count.
func (r *Recorder) Shards() int { return r.shards }

// NodeOn implements Fabric, recording the node before delegating.
func (r *Recorder) NodeOn(shard int, name string) *Node {
	n := r.inner.NodeOn(shard, name)
	r.index[n] = len(r.Graph.Nodes)
	r.Graph.Nodes = append(r.Graph.Nodes, GraphNode{Name: name})
	return n
}

// Connect implements Fabric, recording the link before delegating.
func (r *Recorder) Connect(a, b *Node, cfg LinkConfig) (*Device, *Device) {
	r.Graph.Links = append(r.Graph.Links, GraphLink{
		A: r.index[a], B: r.index[b], Delay: cfg.Delay, RateBps: cfg.RateBps,
	})
	return r.inner.Connect(a, b, cfg)
}

var _ Fabric = (*Recorder)(nil)
