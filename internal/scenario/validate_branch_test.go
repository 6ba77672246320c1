package scenario

import (
	"strings"
	"testing"
	"time"
)

// mutate deep-copies a canonical spec through the emit/parse round-trip
// (so table rows can't corrupt the shared literals), applies the edit,
// and returns the result unvalidated.
func mutate(t *testing.T, file string, edit func(*Spec)) *Spec {
	t.Helper()
	base, ok := canonicalSpecs()[file]
	if !ok {
		t.Fatalf("no canonical spec %s", file)
	}
	data, err := Emit(base)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	edit(s)
	return s
}

// TestValidateBranches walks every per-kind validator branch the golden
// diagnostics don't already pin: each row breaks one field of a canonical
// spec and asserts the path-qualified message names it.
func TestValidateBranches(t *testing.T) {
	rows := []struct {
		name string
		file string
		edit func(*Spec)
		want string
	}{
		{"name required", "chain.json", func(s *Spec) { s.Name = "" }, "scenario: name: required"},
		{"unknown kind", "chain.json", func(s *Spec) { s.Kind = "mesh" }, "unknown scenario kind"},
		{"removed kind", "chain.json", func(s *Spec) { s.Kind = "cross" }, "scenario: kind: removed: the cross kind"},
		{"missing section", "chain.json", func(s *Spec) { s.Chain = nil }, `requires a "chain" section`},
		{"mismatched section", "chain.json", func(s *Spec) { s.Dumbbell = &DumbbellSpec{} }, `section does not match kind "chain"`},

		{"dumbbell buffer", "dumbbell.json", func(s *Spec) { s.Dumbbell.BufferBytes = 0 }, "dumbbell.buffer_bytes"},
		{"dumbbell no groups", "dumbbell.json", func(s *Spec) { s.Dumbbell.Groups = nil }, "dumbbell.groups: at least one"},
		{"dumbbell group count", "dumbbell.json", func(s *Spec) { s.Dumbbell.Groups[0].Count = 0 }, "dumbbell.groups[0].count"},
		{"dumbbell group start", "dumbbell.json", func(s *Spec) { s.Dumbbell.Groups[2].StartAt = -1 }, "dumbbell.groups[2].start_at"},
		{"dumbbell duration", "dumbbell.json", func(s *Spec) { s.Dumbbell.Duration = 0 }, "dumbbell.duration"},
		{"dumbbell duration overflow", "dumbbell.json", func(s *Spec) { s.Dumbbell.Duration = maxDuration + 1 }, "dumbbell.duration: must be at most"},
		{"dumbbell tau", "dumbbell.json", func(s *Spec) { s.Dumbbell.Tau = fptr(1.5) }, "dumbbell.tau"},
		{"dumbbell warmup", "dumbbell.json", func(s *Spec) { s.Dumbbell.WarmupFraction = 1 }, "dumbbell.warmup_fraction"},
		{"dumbbell min_rto", "dumbbell.json", func(s *Spec) { s.Dumbbell.MinRTO = -1 }, "dumbbell.min_rto"},
		{"dumbbell min_rto beyond horizon", "dumbbell.json", func(s *Spec) { s.Dumbbell.MinRTO = s.Dumbbell.Duration + 1 }, "dumbbell.min_rto: longer than the run's"},
		{"dumbbell buffer below MTU", "dumbbell.json", func(s *Spec) { s.Dumbbell.BufferBytes = 1499 }, "dumbbell.buffer_bytes: below one 1500 B MTU"},
		{"dumbbell sample", "dumbbell.json", func(s *Spec) { s.Dumbbell.SampleInterval = -1 }, "dumbbell.sample_interval"},

		{"chain hops", "chain.json", func(s *Spec) { s.Chain.Hops = 0 }, "chain.hops"},
		{"chain long flows", "chain.json", func(s *Spec) { s.Chain.LongFlows = -1 }, "chain.long_flows"},
		{"chain cross arity", "chain.json", func(s *Spec) { s.Chain.CrossPerHop = []int{1} }, "chain.cross_per_hop: wants one entry per hop"},
		{"chain cross negative", "chain.json", func(s *Spec) { s.Chain.CrossPerHop[1] = -1 }, "chain.cross_per_hop[1]"},
		{"chain long cc", "chain.json", func(s *Spec) { s.Chain.LongCC = "reno" }, "chain.long_cc"},
		{"chain cross cc arity", "chain.json", func(s *Spec) { s.Chain.CrossCCs = s.Chain.CrossCCs[:2] }, "chain.cross_ccs: wants one entry per hop"},
		{"chain cross cc", "chain.json", func(s *Spec) { s.Chain.CrossCCs[2] = "reno" }, "chain.cross_ccs[2]"},
		{"chain rate", "chain.json", func(s *Spec) { s.Chain.Rate = 0 }, "chain.rate"},
		{"chain buffer", "chain.json", func(s *Spec) { s.Chain.BufferBytes = 0 }, "chain.buffer_bytes"},
		{"chain buffer below MTU", "chain.json", func(s *Spec) { s.Chain.BufferBytes = 1000 }, "chain.buffer_bytes: below one 1500 B MTU"},
		{"chain link delay", "chain.json", func(s *Spec) { s.Chain.LinkDelay = 0 }, "chain.link_delay"},
		{"chain access delay", "chain.json", func(s *Spec) { s.Chain.AccessDelay = 0 }, "chain.access_delay"},
		{"chain link delay beyond horizon", "chain.json", func(s *Spec) { s.Chain.LinkDelay = s.Chain.Duration + 1 }, "chain.link_delay: longer than the run's"},
		{"chain access delay beyond horizon", "chain.json", func(s *Spec) { s.Chain.AccessDelay = Dur(2562047 * time.Hour) }, "chain.access_delay: longer than the run's"},
		{"chain cebinae rtt", "chain.json", func(s *Spec) { s.Chain.CebinaeRTT = -1 }, "chain.cebinae_rtt"},
		{"chain duration", "chain.json", func(s *Spec) { s.Chain.Duration = 0 }, "chain.duration"},
		{"chain duration overflow", "chain.json", func(s *Spec) { s.Chain.Duration = maxDuration + 1 }, "chain.duration: must be at most"},

		{"backbone flows", "backbone-1e5.json", func(s *Spec) { s.Backbone.Flows = 0 }, "backbone.flows"},
		{"backbone scale", "backbone-1e5.json", func(s *Spec) { s.Backbone.Scale = "huge" }, "backbone.scale"},
		{"backbone qdisc", "backbone-1e5.json", func(s *Spec) { s.Backbone.Qdisc = "fq" }, "backbone.qdisc"},

		{"graph no switches", "multihop.json", func(s *Spec) { s.Graph.Switches = nil }, "graph.switches: at least one"},
		{"graph switch name", "multihop.json", func(s *Spec) { s.Graph.Switches[0].Name = "" }, "graph.switches[0].name"},
		{"graph dup switch", "multihop.json", func(s *Spec) { s.Graph.Switches[1].Name = "t1" }, "duplicate switch"},
		{"graph link a", "multihop.json", func(s *Spec) { s.Graph.Links[0].A = "t9" }, "graph.links[0].a"},
		{"graph self link", "multihop.json", func(s *Spec) { s.Graph.Links[0].B = "t1" }, "self-link"},
		{"graph link rate", "multihop.json", func(s *Spec) { s.Graph.Links[0].Rate = 0 }, "graph.links[0].rate"},
		{"graph link delay", "multihop.json", func(s *Spec) { s.Graph.Links[0].Delay = 0 }, "graph.links[0].delay"},
		{"graph link delay beyond horizon", "multihop.json", func(s *Spec) { s.Graph.Links[0].Delay = s.Graph.Duration + 1 }, "graph.links[0].delay: longer than the run's"},
		{"graph port qdisc", "multihop.json", func(s *Spec) { s.Graph.Links[0].QdiscAB.Kind = "pcq" }, "graph.links[0].qdisc_ab.kind"},
		{"graph port buffer", "multihop.json", func(s *Spec) { s.Graph.Links[0].QdiscAB.BufferBytes = -1 }, "graph.links[0].qdisc_ab.buffer_bytes"},
		{"graph port buffer below MTU", "multihop.json", func(s *Spec) { s.Graph.Links[0].QdiscAB.BufferBytes = 1 }, "graph.links[0].qdisc_ab.buffer_bytes: below one 1500 B MTU"},
		{"graph port rtt", "multihop.json", func(s *Spec) { s.Graph.Links[0].QdiscAB.CebinaeRTT = -1 }, "graph.links[0].qdisc_ab.cebinae_rtt"},
		{"graph no hosts", "multihop.json", func(s *Spec) { s.Graph.Hosts = nil }, "graph.hosts: at least one"},
		{"graph host name", "multihop.json", func(s *Spec) { s.Graph.Hosts[0].Name = "" }, "graph.hosts[0].name"},
		{"graph dup host", "multihop.json", func(s *Spec) { s.Graph.Hosts[1].Name = "s1" }, "duplicate host group"},
		{"graph host count", "multihop.json", func(s *Spec) { s.Graph.Hosts[0].Count = 0 }, "graph.hosts[0].count"},
		{"graph host attach", "multihop.json", func(s *Spec) { s.Graph.Hosts[0].Attach = "t9" }, "graph.hosts[0].attach"},
		{"graph host rate", "multihop.json", func(s *Spec) { s.Graph.Hosts[0].Rate = 0 }, "graph.hosts[0].rate"},
		{"graph host delay", "multihop.json", func(s *Spec) { s.Graph.Hosts[0].Delay = 0 }, "graph.hosts[0].delay"},
		{"graph host delay beyond horizon", "multihop.json", func(s *Spec) { s.Graph.Hosts[1].Delay = s.Graph.Duration + 1 }, "graph.hosts[1].delay: longer than the run's"},
		{"graph down qdisc", "multihop.json", func(s *Spec) { s.Graph.Hosts[3].DownQdisc.Kind = "afq" }, "graph.hosts[3].down_qdisc.kind"},
		{"graph no flows", "multihop.json", func(s *Spec) { s.Graph.Flows = nil }, "graph.flows: at least one"},
		{"graph flow from", "multihop.json", func(s *Spec) { s.Graph.Flows[0].From = "s9" }, "graph.flows[0].from"},
		{"graph flow to", "multihop.json", func(s *Spec) { s.Graph.Flows[0].To = "r9" }, "graph.flows[0].to"},
		{"graph flow cc", "multihop.json", func(s *Spec) { s.Graph.Flows[0].CC = "reno" }, "graph.flows[0].cc"},
		{"graph flow start", "multihop.json", func(s *Spec) { s.Graph.Flows[0].StartAt = -1 }, "graph.flows[0].start_at"},
		{"graph warmup", "multihop.json", func(s *Spec) { s.Graph.WarmupFraction = -0.1 }, "graph.warmup_fraction"},
		{"graph min_rto", "multihop.json", func(s *Spec) { s.Graph.MinRTO = -1 }, "graph.min_rto"},
		{"graph min_rto beyond horizon", "multihop.json", func(s *Spec) { s.Graph.MinRTO = s.Graph.Duration + 1 }, "graph.min_rto: longer than the run's"},
		{"graph duration", "multihop.json", func(s *Spec) { s.Graph.Duration = 0 }, "graph.duration"},
		{"graph duration overflow", "multihop.json", func(s *Spec) { s.Graph.Duration = maxDuration + 1 }, "graph.duration: must be at most"},
		{"graph flow after horizon", "multihop.json", func(s *Spec) { s.Graph.Flows[1].StartAt = s.Graph.Duration }, "graph.flows[1].start_at: must be before the run's"},

		{"tournament no ccas", "tournament.json", func(s *Spec) { s.Tournament.CCAs = nil }, "tournament.ccas: at least one"},
		{"tournament cca", "tournament.json", func(s *Spec) { s.Tournament.CCAs[1] = "reno" }, "tournament.ccas[1]"},
		{"tournament flows", "tournament.json", func(s *Spec) { s.Tournament.FlowsPerCCA = 0 }, "tournament.flows_per_cca"},
		{"tournament rate", "tournament.json", func(s *Spec) { s.Tournament.Rate = 0 }, "tournament.rate"},
		{"tournament base rtt", "tournament.json", func(s *Spec) { s.Tournament.BaseRTT = 0 }, "tournament.base_rtt"},
		{"tournament no ratios", "tournament.json", func(s *Spec) { s.Tournament.RTTRatios = nil }, "tournament.rtt_ratios: at least one"},
		{"tournament ratio", "tournament.json", func(s *Spec) { s.Tournament.RTTRatios[0] = 0 }, "tournament.rtt_ratios[0]"},
		{"tournament no buffers", "tournament.json", func(s *Spec) { s.Tournament.BufferBytes = nil }, "tournament.buffer_bytes: at least one"},
		{"tournament buffer", "tournament.json", func(s *Spec) { s.Tournament.BufferBytes[1] = -4 }, "tournament.buffer_bytes[1]"},
		{"tournament buffer below MTU", "tournament.json", func(s *Spec) { s.Tournament.BufferBytes[0] = 1000 }, "tournament.buffer_bytes[0]: below one 1500 B MTU"},
		{"tournament no qdiscs", "tournament.json", func(s *Spec) { s.Tournament.Qdiscs = nil }, "tournament.qdiscs: at least one"},
		{"tournament qdisc", "tournament.json", func(s *Spec) { s.Tournament.Qdiscs[0] = "red" }, "tournament.qdiscs[0]"},
		{"tournament min_rto", "tournament.json", func(s *Spec) { s.Tournament.MinRTO = -1 }, "tournament.min_rto"},
		{"tournament min_rto beyond horizon", "tournament.json", func(s *Spec) { s.Tournament.MinRTO = s.Tournament.Duration + 1 }, "tournament.min_rto: longer than the run's"},
		{"tournament duration", "tournament.json", func(s *Spec) { s.Tournament.Duration = 0 }, "tournament.duration"},
		{"tournament duration overflow", "tournament.json", func(s *Spec) { s.Tournament.Duration = maxDuration + 1 }, "tournament.duration: must be at most"},
		{"tournament rtt beyond horizon", "tournament.json", func(s *Spec) { s.Tournament.Duration = s.Tournament.BaseRTT }, "is longer than the run's"},

		{"sweep groups", "bbr-buffer-sweep.json", func(s *Spec) { s.BufferSweep.Groups = nil }, "buffer_sweep.groups: at least one"},
		{"sweep group rtt", "bbr-buffer-sweep.json", func(s *Spec) { s.BufferSweep.Groups[0].RTT = 0 }, "buffer_sweep.groups[0].rtt"},
		{"sweep rate", "bbr-buffer-sweep.json", func(s *Spec) { s.BufferSweep.Rate = 0 }, "buffer_sweep.rate"},
		{"sweep buffers", "bbr-buffer-sweep.json", func(s *Spec) { s.BufferSweep.BufferBytes = nil }, "buffer_sweep.buffer_bytes: at least one"},
		{"sweep buffer below MTU", "bbr-buffer-sweep.json", func(s *Spec) { s.BufferSweep.BufferBytes[2] = 1000 }, "buffer_sweep.buffer_bytes[2]: below one 1500 B MTU"},
		{"sweep qdisc", "bbr-buffer-sweep.json", func(s *Spec) { s.BufferSweep.Qdiscs[1] = "red" }, "buffer_sweep.qdiscs[1]"},
		{"sweep min_rto", "bbr-buffer-sweep.json", func(s *Spec) { s.BufferSweep.MinRTO = -1 }, "buffer_sweep.min_rto"},
		{"sweep min_rto beyond horizon", "bbr-buffer-sweep.json", func(s *Spec) { s.BufferSweep.MinRTO = s.BufferSweep.Duration + 1 }, "buffer_sweep.min_rto: longer than the run's"},
		{"sweep duration", "bbr-buffer-sweep.json", func(s *Spec) { s.BufferSweep.Duration = 0 }, "buffer_sweep.duration"},
		{"sweep duration overflow", "bbr-buffer-sweep.json", func(s *Spec) { s.BufferSweep.Duration = maxDuration + 1 }, "buffer_sweep.duration: must be at most"},
		{"sweep start after horizon", "bbr-buffer-sweep.json", func(s *Spec) { s.BufferSweep.Groups[0].StartAt = s.BufferSweep.Duration }, "buffer_sweep.groups[0].start_at: must be before the run's"},
		{"sweep rtt beyond horizon", "bbr-buffer-sweep.json", func(s *Spec) { s.BufferSweep.Groups[0].RTT = s.BufferSweep.Duration + 1 }, "buffer_sweep.groups[0].rtt: longer than the run's"},
	}
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			s := mutate(t, row.file, row.edit)
			err := Validate(s)
			if err == nil {
				t.Fatalf("validate accepted the broken spec")
			}
			if !strings.Contains(err.Error(), row.want) {
				t.Errorf("error %q does not mention %q", err.Error(), row.want)
			}
			if _, cerr := Compile(s); cerr == nil {
				t.Errorf("compile accepted the broken spec")
			}
		})
	}
}

// TestValidateAcceptsEdgeValues pins a few boundary values the error rows
// sit next to: zero start times, a 200 ms MinRTO, a warmup of 0, an RTT as
// long as the run, link and host delays as long as the run, a buffer of
// exactly one 1500 B MTU, a graph port's 0 (its default depth), and a
// MinRTO as long as the run.
func TestValidateAcceptsEdgeValues(t *testing.T) {
	s := mutate(t, "dumbbell.json", func(s *Spec) {
		s.Dumbbell.Groups[0].StartAt = 0
		s.Dumbbell.Groups[1].RTT = s.Dumbbell.Duration
		s.Dumbbell.MinRTO = Dur(200 * time.Millisecond)
		s.Dumbbell.WarmupFraction = 0
		s.Dumbbell.Tau = fptr(0.05)
	})
	if err := Validate(s); err != nil {
		t.Errorf("boundary values rejected: %v", err)
	}
	g := mutate(t, "multihop.json", func(s *Spec) {
		s.Graph.Links[0].Delay = s.Graph.Duration
		s.Graph.Hosts[0].Delay = s.Graph.Duration
	})
	if err := Validate(g); err != nil {
		t.Errorf("delays as long as the run rejected: %v", err)
	}
	m := mutate(t, "dumbbell.json", func(s *Spec) {
		s.Dumbbell.BufferBytes = 1500
		s.Dumbbell.MinRTO = s.Dumbbell.Duration
	})
	if err := Validate(m); err != nil {
		t.Errorf("a one-MTU buffer and a MinRTO as long as the run rejected: %v", err)
	}
	p := mutate(t, "multihop.json", func(s *Spec) {
		s.Graph.Links[0].QdiscAB.BufferBytes = 0
		s.Graph.MinRTO = s.Graph.Duration
	})
	if err := Validate(p); err != nil {
		t.Errorf("a default-depth port and a MinRTO as long as the run rejected: %v", err)
	}
}
