package main

import "testing"

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"cebinae/internal/sim.(*Engine).siftDown", "cebinae/internal/sim.(*Engine).Run"}, "sim.cpu_pct"},
		{[]string{"cebinae/internal/qdisc.(*ring[...]).pop", "cebinae/internal/netem.(*Device).transmitNext"}, "qdisc.cpu_pct"},
		{[]string{"cebinae/experiments.Run"}, "experiments.cpu_pct"},
		{[]string{"cebinae/internal/maxmin.Allocate"}, "other.cpu_pct"},
		{[]string{"encoding/json.(*decodeState).object"}, "other.cpu_pct"},
		{[]string{"runtime.memmove", "cebinae/internal/tcp.(*Conn).transmit"}, "runtime.other_pct"},
		{[]string{"aeshashbody", "runtime.mapaccess2", "cebinae/internal/core.(*Qdisc).Enqueue"}, "runtime.other_pct"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.growslice", "cebinae/internal/metrics.(*FlowMeter).Record"}, "runtime.malloc_pct"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.mallocgc"}, "runtime.gc_pct"},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "runtime.sched_pct"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%q) = %s, want %s", c.stack[0], got, c.want)
		}
	}
}

func TestAttributeRejectsGarbage(t *testing.T) {
	if _, err := attributeProfile([]byte("not a profile")); err == nil {
		t.Fatal("garbage parsed as a profile")
	}
}
