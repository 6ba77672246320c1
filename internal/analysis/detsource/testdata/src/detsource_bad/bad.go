// Package detsource_bad reproduces the wall-clock / global-randomness
// shapes the analyzer must reject: exactly the `time.Now()`-in-internal/sim
// insertion the CI gate exists to catch.
package detsource_bad

import (
	"math/rand"
	"time"
)

type engine struct{ now int64 }

func (e *engine) step() time.Time {
	e.now++
	return time.Now() // want `wall-clock time\.Now in simulation code`
}

func jitter() time.Duration {
	time.Sleep(time.Millisecond)            // want `wall-clock time\.Sleep in simulation code`
	return time.Duration(rand.Int63n(1000)) // want `global randomness rand\.Int63n in simulation code`
}

func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want `wall-clock time\.Since in simulation code`
}

func pick(n int) int {
	return rand.Intn(n) // want `global randomness rand\.Intn in simulation code`
}

func shuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `global randomness rand\.Shuffle in simulation code`
}

// Replay-shaped pacing: jittering a per-flow send gap from the global
// source makes two runs of the same schedule diverge packet by packet.
func paceGap(base int64) int64 {
	return base + rand.Int63n(base/8+1) // want `global randomness rand\.Int63n in simulation code`
}
