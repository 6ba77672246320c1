package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func ok(id string, v any) Job {
	return Job{ID: id, Run: func() (any, error) { return v, nil }}
}

func TestRunCollectsSortedResults(t *testing.T) {
	jobs := []Job{ok("c", 3), ok("a", 1), ok("b", 2)}
	sum, err := Run(jobs, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Results) != 3 || sum.Failed != 0 {
		t.Fatalf("got %d results, %d failed", len(sum.Results), sum.Failed)
	}
	for i, want := range []string{"a", "b", "c"} {
		if sum.Results[i].ID != want {
			t.Errorf("result %d = %s, want %s", i, sum.Results[i].ID, want)
		}
	}
	r, found := sum.Get("b")
	if !found || !r.OK {
		t.Fatalf("Get(b) = %+v, %v", r, found)
	}
	var v int
	if err := json.Unmarshal(r.Value, &v); err != nil || v != 2 {
		t.Fatalf("value roundtrip: %v %v", v, err)
	}
}

// TestAlwaysPanickingJobFailsWithoutKillingOthers: a panicking job runs
// once — jobs are deterministic, so a retry could only panic again or hide
// a determinism bug — and is recorded as failed while the rest complete.
func TestAlwaysPanickingJobFailsWithoutKillingOthers(t *testing.T) {
	var calls atomic.Int32
	jobs := []Job{
		ok("steady-1", 1.0),
		{ID: "crasher", Run: func() (any, error) { calls.Add(1); panic("division by zero flow count") }},
		ok("steady-2", 2.0),
	}
	sum, err := Run(jobs, Options{Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 1 {
		t.Fatalf("failed = %d, want 1", sum.Failed)
	}
	r, _ := sum.Get("crasher")
	if r.OK || calls.Load() != 1 || !strings.Contains(r.Err, "division by zero flow count") {
		t.Fatalf("crasher result %+v after %d run(s)", r, calls.Load())
	}
	for _, id := range []string{"steady-1", "steady-2"} {
		if r, _ := sum.Get(id); !r.OK {
			t.Errorf("%s did not complete: %+v", id, r)
		}
	}
}

func TestPlainErrorNotRetried(t *testing.T) {
	var calls atomic.Int32
	j := Job{ID: "erroring", Run: func() (any, error) {
		calls.Add(1)
		return nil, errors.New("unknown CC kangaroo")
	}}
	sum, err := Run([]Job{j}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := sum.Results[0]
	if r.OK || calls.Load() != 1 {
		t.Fatalf("plain error should record once: %+v (calls %d)", r, calls.Load())
	}
}

func TestWatchdogMarksRunawayFailed(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	jobs := []Job{
		{ID: "runaway", Run: func() (any, error) { <-release; return nil, nil }},
		ok("quick", 1),
	}
	start := time.Now()
	sum, err := Run(jobs, Options{Parallelism: 2, Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("pool hung on the runaway job")
	}
	r, _ := sum.Get("runaway")
	if r.OK || !strings.Contains(r.Err, "watchdog") {
		t.Fatalf("runaway result %+v", r)
	}
	if r, _ := sum.Get("quick"); !r.OK {
		t.Fatalf("quick job result %+v", r)
	}
}

func TestValidation(t *testing.T) {
	if _, err := Run([]Job{ok("x", 1), ok("x", 2)}, Options{}); err == nil {
		t.Error("duplicate IDs accepted")
	}
	if _, err := Run([]Job{ok("", 1)}, Options{}); err == nil {
		t.Error("empty ID accepted")
	}
	if _, err := Run([]Job{{ID: "norun"}}, Options{}); err == nil {
		t.Error("nil Run accepted")
	}
}

// TestTiming: a run that executed jobs reports their work and speedup; a
// run whose every job came from the store executed nothing and reports no
// speedup — not a 0.00x one.
func TestTiming(t *testing.T) {
	ran := Summary{Results: make([]Result, 3), Cached: 1, Elapsed: 2 * time.Second, Work: 3 * time.Second}
	if got := ran.Timing(); got != "2s elapsed for 3s of job work — 1.50x vs sequential" {
		t.Errorf("a run with executed jobs: %q", got)
	}
	cached := Summary{Results: make([]Result, 3), Cached: 3, Elapsed: time.Millisecond}
	if got := cached.Timing(); got != "1ms elapsed; no job executed" {
		t.Errorf("a run from the store: %q", got)
	}
}

func TestUnmarshalableResultRecordedAsFailure(t *testing.T) {
	j := Job{ID: "chan", Run: func() (any, error) { return make(chan int), nil }}
	sum, err := Run([]Job{j}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r := sum.Results[0]; r.OK || !strings.Contains(r.Err, "JSON") {
		t.Fatalf("got %+v", r)
	}
}

func TestProgressReportsEveryJob(t *testing.T) {
	var buf strings.Builder
	jobs := make([]Job, 12)
	for i := range jobs {
		jobs[i] = ok(fmt.Sprintf("job-%02d", i), i)
	}
	if _, err := Run(jobs, Options{Parallelism: 4, Progress: &buf}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if n := strings.Count(out, "\n"); n != len(jobs)+1 { // one per job + summary
		t.Fatalf("progress lines = %d, want %d:\n%s", n, len(jobs)+1, out)
	}
	if !strings.Contains(out, "[12/12]") || !strings.Contains(out, "vs sequential") {
		t.Fatalf("progress output missing counters/summary:\n%s", out)
	}
}

// TestRunDispatchesCostliestFirst: on one worker, jobs start in descending
// Cost, ties in input order; a job the store already holds is not run at
// all; and the summary's results are the same bytes as without costs.
func TestRunDispatchesCostliestFirst(t *testing.T) {
	ids := []string{"a", "b", "c", "d", "e", "f", "g"}
	costs := []float64{1, 5, 0, 5, 3, 9, 1}
	// run executes the jobs against a store already holding d and returns
	// the summary and the order the jobs ran in.
	run := func(withCost bool) (*Summary, string) {
		st, err := OpenStore(filepath.Join(t.TempDir(), "results.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if err := st.Append(Result{ID: "d", OK: true, Value: json.RawMessage(`"d"`)}); err != nil {
			t.Fatal(err)
		}
		var order strings.Builder
		jobs := make([]Job, len(ids))
		for i, id := range ids {
			jobs[i] = Job{ID: id, Run: func() (any, error) { order.WriteString(id); return id, nil }}
			if withCost {
				jobs[i].Cost = costs[i]
			}
		}
		sum, err := Run(jobs, Options{Parallelism: 1, Store: st})
		if err != nil {
			t.Fatal(err)
		}
		return sum, order.String()
	}
	plain, order := run(false)
	if order != "abcefg" {
		t.Fatalf("uncosted jobs ran in order %q, want input order abcefg without the cached d", order)
	}
	costed, order := run(true)
	if order != "fbeagc" {
		t.Fatalf("costed jobs ran in order %q, want fbeagc: descending cost, ties in input order, no cached d", order)
	}
	a, _ := json.Marshal(plain.Results)
	b, _ := json.Marshal(costed.Results)
	if string(a) != string(b) {
		t.Fatalf("costs changed the summary:\n%s\n%s", a, b)
	}
}

// TestProjectETA pins the progress projection: the mean wall time per
// executed job without costs, and the cost rate so far with them — which
// is what keeps the ETA honest once the costliest jobs finish first.
func TestProjectETA(t *testing.T) {
	s := time.Second
	for _, tc := range []struct {
		elapsed            time.Duration
		executed, left     int
		costDone, costLeft float64
		want               time.Duration
	}{
		{4 * s, 2, 6, 0, 0, 12 * s},
		{10 * s, 1, 1, 0, 0, 10 * s},
		// The longest of 25 jobs finished first: by count the rest would
		// take 24 times as long, by cost four times.
		{2 * s, 1, 24, 20, 80, 8 * s},
		{3 * s, 5, 5, 60, 20, 1 * s},
	} {
		if got := projectETA(tc.elapsed, tc.executed, tc.left, tc.costDone, tc.costLeft); got != tc.want {
			t.Errorf("projectETA(%v, %d, %d, %g, %g) = %v, want %v",
				tc.elapsed, tc.executed, tc.left, tc.costDone, tc.costLeft, got, tc.want)
		}
	}
}
