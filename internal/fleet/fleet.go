// Package fleet is a deterministic job orchestrator for independent
// simulation experiments. A sweep of scenarios (Table 2's 25×3 grid, a
// parameter Cartesian product, a figure suite) is expressed as a slice of
// Jobs and fanned out over a bounded worker pool. The runner provides:
//
//   - per-job panic recovery, so one diverging simulation cannot kill the
//     remaining jobs of a sweep. Each job runs once: jobs are
//     deterministic, so a retried panic would either panic again or
//     succeed and hide a determinism bug;
//   - a wall-clock watchdog per job, so a runaway simulation is marked
//     failed instead of hanging the pool;
//   - an optional checkpointed JSONL result store (one line per completed
//     job, atomic append) — re-running against the same store skips
//     already-completed job IDs, giving crash/kill resume for free;
//   - costliest-first dispatch: jobs that declare a Cost start in
//     descending Cost order, so the longest runs do not start last and
//     leave the rest of the pool idle while they finish;
//   - live progress reporting (done/total, ETA, per-job wall time) and a
//     final summary sorted by job ID, so summaries are byte-identical
//     regardless of scheduling order.
//
// Each job constructs its own simulation engine inside its closure, so
// per-job determinism is preserved by construction: the same job set run
// at parallelism 1 and parallelism N produces identical per-job results.
package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Job is one independent unit of work. Run must be self-contained: it may
// not share mutable state with other jobs (each should build its own
// engine/meters), and its returned value must be JSON-marshalable so it
// can be checkpointed and later re-decoded.
type Job struct {
	ID   string
	Desc string
	Run  func() (any, error)
	// Cost estimates the job's run time relative to the other jobs of one
	// Run; only the order it implies is used. Zero everywhere keeps the
	// input order.
	Cost float64
}

// Result is one job's recorded outcome — exactly the JSONL line the store
// persists. Only deterministic fields are serialised: wall time and cache
// provenance vary run-to-run and are reported out of band.
type Result struct {
	ID    string          `json:"id"`
	OK    bool            `json:"ok"`
	Err   string          `json:"err,omitempty"`
	Value json.RawMessage `json:"value,omitempty"`

	// Wall is the job's wall-clock time (zero for results loaded from a
	// store).
	Wall time.Duration `json:"-"`
	// Cached marks results that were skipped because the store already
	// held them.
	Cached bool `json:"-"`
}

// Options configures a Run.
type Options struct {
	// Parallelism is the worker count; <= 0 selects runtime.GOMAXPROCS(0).
	Parallelism int
	// Timeout is the per-job wall-clock watchdog; <= 0 disables it. A
	// job that exceeds it is recorded as failed and its goroutine is
	// abandoned (Go cannot kill it), so the pool keeps draining.
	Timeout time.Duration
	// Store, when non-nil, checkpoints each completed job as a JSONL
	// line and skips job IDs it already holds.
	Store *Store
	// Progress, when non-nil, receives one live line per completed job
	// plus a closing summary line (conventionally os.Stderr, keeping
	// stdout reports deterministic).
	Progress io.Writer
}

// Summary aggregates a Run.
type Summary struct {
	// Results holds one entry per job, sorted by job ID — identical
	// content regardless of worker count or scheduling order.
	Results []Result
	Failed  int // jobs recorded with OK == false
	Cached  int // jobs skipped via the store
	Elapsed time.Duration
	// Work is the summed wall time of the jobs executed this run; the
	// ratio Work/Elapsed is the speedup over a sequential pass.
	Work time.Duration
	// Workers is the pool size the run used.
	Workers int
}

// Speedup returns Work/Elapsed — how much wall time the pool saved over
// running the same jobs sequentially (≈1 at Parallelism 1).
func (s *Summary) Speedup() float64 {
	if s.Elapsed <= 0 {
		return 1
	}
	return float64(s.Work) / float64(s.Elapsed)
}

// Timing is the run's wall-clock account: the elapsed time and, when any
// job executed, the executed jobs' summed wall time with its Speedup. A run
// whose every job came from the store executed nothing, so it has no
// speedup to report.
func (s *Summary) Timing() string {
	elapsed := s.Elapsed.Round(time.Millisecond)
	if s.Cached == len(s.Results) {
		return fmt.Sprintf("%v elapsed; no job executed", elapsed)
	}
	return fmt.Sprintf("%v elapsed for %v of job work — %.2fx vs sequential", elapsed, s.Work.Round(time.Millisecond), s.Speedup())
}

// Get returns the recorded result for a job ID.
func (s *Summary) Get(id string) (Result, bool) {
	i := sort.Search(len(s.Results), func(i int) bool { return s.Results[i].ID >= id })
	if i < len(s.Results) && s.Results[i].ID == id {
		return s.Results[i], true
	}
	return Result{}, false
}

// Run executes the jobs over the worker pool and returns the summary. It
// fails fast on malformed input (duplicate or empty job IDs) and on store
// write errors; individual job failures are recorded, not returned.
func Run(jobs []Job, opts Options) (*Summary, error) {
	if err := validate(jobs); err != nil {
		return nil, err
	}
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	start := time.Now()
	sum := &Summary{Results: make([]Result, 0, len(jobs)), Workers: workers}
	tr := newTracker(opts.Progress, jobs)

	// Partition into cached (already in the store) and pending.
	var pending []Job
	for _, j := range jobs {
		if opts.Store != nil {
			if r, ok := opts.Store.Get(j.ID); ok {
				r.Cached = true
				sum.Results = append(sum.Results, r)
				sum.Cached++
				if !r.OK {
					sum.Failed++
				}
				tr.done(r, j.Cost)
				continue
			}
		}
		pending = append(pending, j)
	}
	// Costliest first, ties in input order: the makespan is not left to
	// whichever long job the input happens to list last.
	sort.SliceStable(pending, func(i, k int) bool { return pending[i].Cost > pending[k].Cost })

	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		storeErr error
	)
	feed := make(chan Job)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range feed {
				r := execute(j, opts.Timeout)
				mu.Lock()
				if opts.Store != nil && storeErr == nil {
					if err := opts.Store.Append(r); err != nil {
						storeErr = err
					}
				}
				sum.Results = append(sum.Results, r)
				sum.Work += r.Wall
				if !r.OK {
					sum.Failed++
				}
				mu.Unlock()
				tr.done(r, j.Cost)
			}
		}()
	}
	for _, j := range pending {
		feed <- j
	}
	close(feed)
	wg.Wait()

	if storeErr != nil {
		return nil, fmt.Errorf("fleet: checkpoint store: %w", storeErr)
	}
	sum.Elapsed = time.Since(start)
	sort.Slice(sum.Results, func(i, k int) bool { return sum.Results[i].ID < sum.Results[k].ID })
	tr.finish(sum)
	return sum, nil
}

func validate(jobs []Job) error {
	seen := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		switch {
		case j.ID == "":
			return fmt.Errorf("fleet: job with empty ID (desc %q)", j.Desc)
		case j.Run == nil:
			return fmt.Errorf("fleet: job %s has no Run closure", j.ID)
		case seen[j.ID]:
			return fmt.Errorf("fleet: duplicate job ID %s", j.ID)
		}
		seen[j.ID] = true
	}
	return nil
}

// execute runs one job once to a recorded Result: a panic, an error or a
// timeout is the job's recorded failure.
func execute(j Job, timeout time.Duration) Result {
	start := time.Now()
	res := Result{ID: j.ID}
	switch o := invoke(j, timeout); {
	case o.timedOut:
		res.Err = fmt.Sprintf("watchdog: exceeded %v (runaway goroutine abandoned)", timeout)
	case o.err != nil:
		res.Err = o.err.Error()
	default:
		if value, err := json.Marshal(o.value); err != nil {
			res.Err = fmt.Sprintf("result not JSON-marshalable: %v", err)
		} else {
			res.OK, res.Value = true, value
		}
	}
	res.Wall = time.Since(start)
	return res
}

type outcome struct {
	value    any
	err      error
	timedOut bool
}

// invoke runs the job closure in its own goroutine so a watchdog timer
// can abandon it. The channel is buffered: an abandoned job's eventual
// send must not block its goroutine forever.
func invoke(j Job, timeout time.Duration) outcome {
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{err: fmt.Errorf("panic: %v", r)}
			}
		}()
		v, err := j.Run()
		ch <- outcome{value: v, err: err}
	}()
	if timeout <= 0 {
		return <-ch
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o
	case <-timer.C:
		return outcome{timedOut: true}
	}
}
