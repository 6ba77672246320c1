package fleet

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

func TestStoreRoundtripAndResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}

	var ran atomic.Int32
	counted := func(id string, v int) Job {
		return Job{ID: id, Run: func() (any, error) { ran.Add(1); return v, nil }}
	}
	jobs := []Job{counted("a", 1), counted("b", 2), counted("c", 3)}
	if _, err := Run(jobs[:2], Options{Store: st}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 2 {
		t.Fatalf("first pass ran %d jobs, want 2", ran.Load())
	}

	// Re-open: the two completed IDs must be skipped, only c runs.
	st2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 2 {
		t.Fatalf("reloaded %d results, want 2", st2.Len())
	}
	sum, err := Run(jobs, Options{Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 3 {
		t.Fatalf("resume re-ran completed jobs: %d total executions, want 3", ran.Load())
	}
	if sum.Cached != 2 || len(sum.Results) != 3 {
		t.Fatalf("cached=%d results=%d", sum.Cached, len(sum.Results))
	}
	r, _ := sum.Get("a")
	if !r.Cached || !r.OK {
		t.Fatalf("a should be served from the store: %+v", r)
	}
	var v int
	if err := json.Unmarshal(r.Value, &v); err != nil || v != 1 {
		t.Fatalf("cached value roundtrip: %v %v", v, err)
	}
}

func TestStoreToleratesTruncatedFinalLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	// The "attempts" field is what stores written before jobs ran once
	// carry; decoding ignores it.
	whole := `{"id":"done","ok":true,"attempts":1,"value":7}` + "\n"
	partial := `{"id":"killed-mid-append","ok":tr`
	if err := os.WriteFile(path, []byte(whole+partial), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(path)
	if err != nil {
		t.Fatalf("truncated final line should be forgiven: %v", err)
	}
	defer st.Close()
	if st.Len() != 1 {
		t.Fatalf("loaded %d results, want 1", st.Len())
	}
	if _, found := st.Get("done"); !found {
		t.Fatal("intact line lost")
	}

	// The torn tail must have been truncated away, so this append starts a
	// fresh line rather than concatenating onto the partial record — which
	// would silently lose the append on the next load, then turn into
	// mid-file corruption once anything else landed after it.
	if err := st.Append(Result{ID: "after-tear", OK: true}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st2, err := OpenStore(path)
	if err != nil {
		t.Fatalf("store unreadable after append-over-torn-tail: %v", err)
	}
	defer st2.Close()
	if st2.Len() != 2 {
		t.Fatalf("reloaded %d results, want 2 (torn tail mishandled)", st2.Len())
	}
	if _, found := st2.Get("after-tear"); !found {
		t.Fatal("record appended after a torn tail was lost on reload")
	}
}

func TestStoreRejectsMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	data := "not json at all\n" + `{"id":"later","ok":true,"attempts":1}` + "\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(path); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("mid-file corruption accepted: %v", err)
	}
}

func TestFailedJobsAreCheckpointedAndSkippedOnResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	bad := Job{ID: "bad", Run: func() (any, error) { calls.Add(1); panic("boom") }}
	if _, err := Run([]Job{bad}, Options{Store: st}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sum, err := Run([]Job{bad}, Options{Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("recorded failure re-ran on resume (%d calls, want 1)", calls.Load())
	}
	if sum.Failed != 1 || sum.Cached != 1 {
		t.Fatalf("failed=%d cached=%d, want 1/1", sum.Failed, sum.Cached)
	}
}
