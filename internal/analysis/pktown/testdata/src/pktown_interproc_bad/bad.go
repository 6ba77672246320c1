// Package pktown_interproc_bad reproduces the ownership bugs that only
// become visible across a function boundary: the hazardous hand-off is
// inside a helper, so the caller-side misuse can only be caught by a
// summary of what the helper does with its parameters. Every diagnostic
// names the call chain that carried the packet away.
package pktown_interproc_bad

import "packet"

// ---- shard-SPSC shape: a ring push helper stores its argument ----------

type ring struct {
	buf  []*packet.Packet
	head int
}

// push parks p in the ring — after it returns the consumer side may
// already be freeing the packet. Its summary is `stores p`.
func (r *ring) push(p *packet.Packet) {
	r.buf[r.head%len(r.buf)] = p
	r.head++
}

// useAfterPush mirrors the sharded runner's SPSC hand-off bug: byte
// accounting reads the packet after the ring already owns it.
func useAfterPush(r *ring, p *packet.Packet) int64 {
	r.push(p)
	return p.Size // want `packet "p" used after hand-off to "push" at .* \(push → an element store\)`
}

// forward adds a second link to the chain; the diagnostic must name the
// whole path from call site to the store.
func forward(r *ring, p *packet.Packet) {
	r.push(p)
}

func useAfterForward(r *ring, p *packet.Packet) int64 {
	forward(r, p)
	return p.Size // want `packet "p" used after hand-off to "forward" at .* \(forward → push → an element store\)`
}

// ---- qdisc drop-path shape: double consume through a helper ------------

// drop releases the packet on behalf of the caller; its summary is
// `consumes p`.
func drop(pl *packet.Pool, p *packet.Packet) {
	pl.Put(p)
}

// dropTwice repeats the drop-path bug: the helper already gave the packet
// back to the pool, so the second Put is a double free.
func dropTwice(pl *packet.Pool, p *packet.Packet) {
	drop(pl, p)
	pl.Put(p) // want `packet "p" released twice \(already handed off to "drop" at .* via drop → Pool\.Put\)`
}

// useAfterDrop reads a field of a packet a helper has already released.
func useAfterDrop(pl *packet.Pool, p *packet.Packet) int64 {
	drop(pl, p)
	return p.Size // want `packet "p" used after hand-off to "drop" at .* \(drop → Pool\.Put\)`
}

// ---- leaks -------------------------------------------------------------

// branchLeak obtains a fresh packet but the early-exit arm returns
// without releasing, returning, or storing it.
func branchLeak(pl *packet.Pool, fail bool) int64 {
	p := pl.Get() // want `packet "p" obtained from Pool\.Get is leaked: the return at line \d+ neither releases, returns, nor stores it`
	if fail {
		return 0
	}
	size := p.Size
	pl.Put(p)
	return size
}

// fallThroughLeak drops ownership on the floor at the end of the function.
func fallThroughLeak(pl *packet.Pool, sink *int64) {
	p := pl.Get() // want `packet "p" obtained from Pool\.Get is leaked: the fall-through at the end of fallThroughLeak neither releases, returns, nor stores it`
	*sink += p.Size
}

// discardedGet never even binds the fresh packet.
func discardedGet(pl *packet.Pool) {
	pl.Get() // want `discarded result of "Get" carries ownership of a pooled packet`
}

// ---- stream sink: ownership parks in the queue --------------------------

// stream mirrors sim.Stream's push surface: the payload rides an
// interface-typed parameter into a FIFO the analyzer cannot follow, and
// stays the queue's until the arrival handler runs.
type stream struct{ q []any }

func (s *stream) call(at int64, arg any) { s.q = append(s.q, arg) }

// useAfterStreamCall touches a packet that is already in flight on the wire:
// the arrival handler may have released it by the time Size is read.
func useAfterStreamCall(s *stream, p *packet.Packet) int64 {
	s.call(10, p)
	return p.Size // want `packet "p" used after hand-off to "call" at .* \(escapes via an interface-typed parameter\)`
}

// doubleStreamCall queues one packet twice: it would arrive — and be released
// to the pool — twice.
func doubleStreamCall(s *stream, p *packet.Packet) {
	s.call(10, p)
	s.call(20, p) // want `packet "p" handed off twice \(to "call", but already handed off to "call" at .*\)`
}

// streamCallThenRelease keeps releasing what the wire now owns.
func streamCallThenRelease(pl *packet.Pool, s *stream, p *packet.Packet) {
	s.call(10, p)
	pl.Put(p) // want `packet "p" released twice \(already handed off to "call" at .* via escapes via an interface-typed parameter\)`
}
