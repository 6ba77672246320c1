package fleet

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// tracker serialises live progress output from concurrent workers. Lines
// go to the configured writer as jobs finish; they are scheduling-order
// dependent by nature, which is why they belong on stderr while rendered
// reports stay deterministic.
type tracker struct {
	mu       sync.Mutex
	w        io.Writer
	total    int
	finished int
	executed int // excludes cached results (their wall time is unknown)
	start    time.Time
	// costed is set when every job declares a Cost; costDone sums the
	// executed jobs' costs and costLeft the unfinished jobs'.
	costed             bool
	costDone, costLeft float64
}

func newTracker(w io.Writer, jobs []Job) *tracker {
	t := &tracker{w: w, total: len(jobs), start: time.Now(), costed: true}
	for _, j := range jobs {
		t.costed = t.costed && j.Cost > 0
		t.costLeft += j.Cost
	}
	return t
}

// done reports one finished job of the given cost: status, wall time, and
// an ETA (see projectETA).
func (t *tracker) done(r Result, cost float64) {
	if t.w == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.finished++
	t.costLeft -= cost
	status := "ok"
	switch {
	case r.Cached:
		status = "cached"
	case !r.OK:
		status = "FAILED: " + r.Err
	}
	if r.Cached {
		fmt.Fprintf(t.w, "[%*d/%d] %-28s %s\n", digits(t.total), t.finished, t.total, r.ID, status)
		return
	}
	t.executed++
	t.costDone += cost
	elapsed := time.Since(t.start)
	eta := "?"
	if t.finished < t.total {
		var costDone, costLeft float64
		if t.costed {
			costDone, costLeft = t.costDone, t.costLeft
		}
		eta = projectETA(elapsed, t.executed, t.total-t.finished, costDone, costLeft).Round(time.Second).String()
	}
	fmt.Fprintf(t.w, "[%*d/%d] %-28s %s (%v; elapsed %v, eta %s)\n",
		digits(t.total), t.finished, t.total, r.ID, status,
		r.Wall.Round(time.Millisecond), elapsed.Round(time.Second), eta)
}

// projectETA projects the time left after elapsed, in which executed jobs
// ran and left remain. With costs (costDone > 0) the rate is cost per
// elapsed time: costliest-first dispatch finishes the long jobs first, so
// the mean wall time of the jobs so far would overshoot. Without, it is the
// mean wall time per executed job times the jobs left.
func projectETA(elapsed time.Duration, executed, left int, costDone, costLeft float64) time.Duration {
	if costDone > 0 {
		return time.Duration(float64(elapsed) * costLeft / costDone)
	}
	return elapsed / time.Duration(executed) * time.Duration(left)
}

// finish prints the closing summary: the job counts and the run's Timing.
func (t *tracker) finish(s *Summary) {
	if t.w == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	fmt.Fprintf(t.w, "fleet: %d jobs (%d cached, %d failed): %s\n", len(s.Results), s.Cached, s.Failed, s.Timing())
}

func digits(n int) int {
	d := 1
	for n >= 10 {
		n /= 10
		d++
	}
	return d
}
