package scenario

import (
	"fmt"
	"math"
	"strings"
	"time"

	"cebinae/experiments"
	"cebinae/internal/packet"
	"cebinae/internal/tcp"
)

// Validation walks a parsed spec and reports the first defect with a
// path-qualified message ("scenario: graph.links[2].b: ..."), so a bad
// file points at the exact field. The diagnostics are part of the
// format's contract — golden tests pin their text.

// kinds maps each scenario kind to the qdisc names its lowering supports.
var kinds = map[string][]string{
	"dumbbell":     {"afq", "cebinae", "fifo", "fq", "pcq", "strawman"},
	"chain":        {"cebinae", "fifo", "fq"},
	"backbone":     {"cebinae", "fifo"},
	"graph":        {"cebinae", "fifo", "fq"},
	"tournament":   {"afq", "cebinae", "fifo", "fq", "pcq", "strawman"},
	"buffer_sweep": {"afq", "cebinae", "fifo", "fq", "pcq", "strawman"},
}

// kindOrder lists the kinds in the order diagnostics enumerate them.
var kindOrder = []string{"dumbbell", "chain", "backbone", "graph", "tournament", "buffer_sweep"}

// crossRemoved and shardsRemoved are the diagnostics for what version 1
// once accepted and no longer does. The format version stays 1: every
// file that never said either still loads and means what it meant.
const (
	crossRemoved  = "removed: the cross kind only exercised a link cut between shards, and scenario files no longer run sharded"
	shardsRemoved = "removed: scenario files run on one engine; run independent scenarios in parallel with -p instead"
)

// removedFields maps the spec keys the strict loader refuses by name, so
// a spec that still says one is told why instead of "unknown field".
var removedFields = map[string]string{"cross": crossRemoved, "shards": shardsRemoved}

func vErr(path, format string, args ...any) error {
	return fmt.Errorf("scenario: %s: %s", path, fmt.Sprintf(format, args...))
}

func checkCC(path, cc string) error {
	if _, ok := tcp.NewCC(cc); !ok {
		return vErr(path, "unknown CC %q (known: %s)", cc, strings.Join(tcp.CCNames(), ", "))
	}
	return nil
}

func checkQdisc(path, kind, q string) error {
	known := kinds[kind]
	for _, k := range known {
		if q == k {
			return nil
		}
	}
	return vErr(path, "unknown qdisc %q (known: %s)", q, strings.Join(known, ", "))
}

func checkPositiveRate(path string, r Rate) error {
	if r <= 0 {
		return vErr(path, "rate must be positive, got %v", float64(r))
	}
	return nil
}

func checkPositiveDur(path string, d Dur) error {
	if d <= 0 {
		return vErr(path, "duration must be positive, got %v", time.Duration(d))
	}
	return nil
}

func checkNonNegativeDur(path string, d Dur) error {
	if d < 0 {
		return vErr(path, "duration must not be negative, got %v", time.Duration(d))
	}
	return nil
}

// maxDuration is the longest run a spec may ask for. Every delay and RTT
// a spec declares is at most the run's duration, and every event is armed
// at most one delay past an instant of the run, so no instant a run
// reaches can overflow the simulated clock.
const maxDuration = Dur(math.MaxInt64 / 2)

// checkDuration refuses a run's duration that is not positive or is longer
// than maxDuration.
func checkDuration(path string, d Dur) error {
	if err := checkPositiveDur(path, d); err != nil {
		return err
	}
	if d > maxDuration {
		return vErr(path, "must be at most %v, so that no delay within the run can overflow the simulated clock, got %v", time.Duration(maxDuration), time.Duration(d))
	}
	return nil
}

// checkDelay refuses a link's or host's one-way delay that is not positive
// or is longer than the run: nothing would cross it inside the horizon.
func checkDelay(path string, d, duration Dur) error {
	if err := checkPositiveDur(path, d); err != nil {
		return err
	}
	if d > duration {
		return vErr(path, "longer than the run's %v duration, got %v", time.Duration(duration), time.Duration(d))
	}
	return nil
}

// checkRTT refuses a dumbbell flow's base RTT that is not positive or is
// below experiments.MinRTT, the floor the dumbbell's bottleneck sets.
func checkRTT(path string, rtt Dur) error {
	if err := checkPositiveDur(path, rtt); err != nil {
		return err
	}
	if rtt.Time() < experiments.MinRTT {
		return vErr(path, "below the dumbbell's %v floor (twice its bottleneck delay), got %v", time.Duration(experiments.MinRTT), time.Duration(rtt))
	}
	return nil
}

// mtuBytes is one full-sized packet: a TCP segment and its headers.
const mtuBytes = packet.MSS + packet.HeaderBytes

// checkBuffer refuses a buffer that is not positive or is below one MTU:
// no full-sized segment would fit in it, so the queue would drop every one.
func checkBuffer(path string, b int) error {
	if b <= 0 {
		return vErr(path, "must be positive, got %d", b)
	}
	if b < mtuBytes {
		return vErr(path, "below one %d B MTU, so no full-sized segment fits, got %d", mtuBytes, b)
	}
	return nil
}

// checkMinRTO refuses a negative minimum RTO or one longer than the run:
// no retransmission timeout could fire inside the horizon.
func checkMinRTO(path string, rto, duration Dur) error {
	if err := checkNonNegativeDur(path, rto); err != nil {
		return err
	}
	if rto > duration {
		return vErr(path, "longer than the run's %v duration, got %v", time.Duration(duration), time.Duration(rto))
	}
	return nil
}

func checkGroups(path string, groups []GroupSpec) error {
	if len(groups) == 0 {
		return vErr(path, "at least one flow group required")
	}
	for i, g := range groups {
		p := fmt.Sprintf("%s[%d]", path, i)
		if err := checkCC(p+".cc", g.CC); err != nil {
			return err
		}
		if g.Count <= 0 {
			return vErr(p+".count", "must be positive, got %d", g.Count)
		}
		if err := checkRTT(p+".rtt", g.RTT); err != nil {
			return err
		}
		if err := checkNonNegativeDur(p+".start_at", g.StartAt); err != nil {
			return err
		}
	}
	return nil
}

// checkStart refuses a flow start at or after the run's horizon: its
// flows would send nothing.
func checkStart(path string, start, duration Dur) error {
	if start >= duration {
		return vErr(path, "must be before the run's %v duration, got %v", time.Duration(duration), time.Duration(start))
	}
	return nil
}

// checkHorizon refuses a flow group the run's duration leaves nothing to
// measure of: one that starts at or after the horizon, or whose base RTT
// is longer than the whole run.
func checkHorizon(path string, groups []GroupSpec, duration Dur) error {
	for i, g := range groups {
		p := fmt.Sprintf("%s[%d]", path, i)
		if err := checkStart(p+".start_at", g.StartAt, duration); err != nil {
			return err
		}
		if g.RTT > duration {
			return vErr(p+".rtt", "longer than the run's %v duration, got %v", time.Duration(duration), time.Duration(g.RTT))
		}
	}
	return nil
}

func checkPortQdisc(path, kind string, q *PortQdiscSpec) error {
	if q == nil {
		return nil
	}
	if err := checkQdisc(path+".kind", kind, q.Kind); err != nil {
		return err
	}
	if q.BufferBytes < 0 {
		return vErr(path+".buffer_bytes", "must not be negative, got %d", q.BufferBytes)
	}
	if q.BufferBytes > 0 { // 0 selects the port's default depth
		if err := checkBuffer(path+".buffer_bytes", q.BufferBytes); err != nil {
			return err
		}
	}
	return checkNonNegativeDur(path+".cebinae_rtt", q.CebinaeRTT)
}

// Validate checks a parsed spec and returns the first defect found, or
// nil. Parse calls it; it is exported for callers that build specs
// programmatically.
func Validate(s *Spec) error {
	if s.Version != Version {
		return fmt.Errorf("scenario: unsupported version %d (want %d)", s.Version, Version)
	}
	if s.Name == "" {
		return fmt.Errorf("scenario: name: required")
	}
	if s.Kind == "cross" {
		return vErr("kind", "%s", crossRemoved)
	}
	if _, ok := kinds[s.Kind]; !ok {
		return fmt.Errorf("scenario: kind: unknown scenario kind %q (known: %s)", s.Kind, strings.Join(kindOrder, ", "))
	}
	sections := map[string]bool{
		"dumbbell":     s.Dumbbell != nil,
		"chain":        s.Chain != nil,
		"backbone":     s.Backbone != nil,
		"graph":        s.Graph != nil,
		"tournament":   s.Tournament != nil,
		"buffer_sweep": s.BufferSweep != nil,
	}
	if !sections[s.Kind] {
		return fmt.Errorf("scenario: %s: kind %q requires a %q section", s.Kind, s.Kind, s.Kind)
	}
	for _, k := range kindOrder {
		if k != s.Kind && sections[k] {
			return fmt.Errorf("scenario: %s: section does not match kind %q", k, s.Kind)
		}
	}
	switch s.Kind {
	case "dumbbell":
		return validateDumbbell(s.Dumbbell)
	case "chain":
		return validateChain(s.Chain)
	case "backbone":
		return validateBackbone(s.Backbone)
	case "graph":
		return validateGraph(s.Graph)
	case "tournament":
		return validateTournament(s.Tournament)
	default:
		return validateBufferSweep(s.BufferSweep)
	}
}

func validateDumbbell(d *DumbbellSpec) error {
	if err := checkPositiveRate("dumbbell.rate", d.Rate); err != nil {
		return err
	}
	if err := checkBuffer("dumbbell.buffer_bytes", d.BufferBytes); err != nil {
		return err
	}
	if err := checkGroups("dumbbell.groups", d.Groups); err != nil {
		return err
	}
	if err := checkDuration("dumbbell.duration", d.Duration); err != nil {
		return err
	}
	if err := checkHorizon("dumbbell.groups", d.Groups, d.Duration); err != nil {
		return err
	}
	if err := checkQdisc("dumbbell.qdisc", "dumbbell", d.Qdisc); err != nil {
		return err
	}
	if d.Tau != nil && (*d.Tau <= 0 || *d.Tau >= 1) {
		return vErr("dumbbell.tau", "must be in (0, 1), got %v", *d.Tau)
	}
	if d.Tau != nil && d.Qdisc != "cebinae" {
		return vErr("dumbbell.tau", "only a cebinae bottleneck reads τ, not %q", d.Qdisc)
	}
	if d.WarmupFraction < 0 || d.WarmupFraction >= 1 {
		return vErr("dumbbell.warmup_fraction", "must be in [0, 1), got %v", d.WarmupFraction)
	}
	if err := checkMinRTO("dumbbell.min_rto", d.MinRTO, d.Duration); err != nil {
		return err
	}
	return checkNonNegativeDur("dumbbell.sample_interval", d.SampleInterval)
}

func validateChain(c *ChainSpec) error {
	if c.Hops <= 0 {
		return vErr("chain.hops", "must be positive, got %d", c.Hops)
	}
	if c.LongFlows < 0 {
		return vErr("chain.long_flows", "must not be negative, got %d", c.LongFlows)
	}
	if len(c.CrossPerHop) != c.Hops {
		return vErr("chain.cross_per_hop", "wants one entry per hop (%d), got %d", c.Hops, len(c.CrossPerHop))
	}
	for i, n := range c.CrossPerHop {
		if n < 0 {
			return vErr(fmt.Sprintf("chain.cross_per_hop[%d]", i), "must not be negative, got %d", n)
		}
	}
	if c.LongFlows > 0 {
		if err := checkCC("chain.long_cc", c.LongCC); err != nil {
			return err
		}
	}
	if len(c.CrossCCs) != c.Hops {
		return vErr("chain.cross_ccs", "wants one entry per hop (%d), got %d", c.Hops, len(c.CrossCCs))
	}
	for i, cc := range c.CrossCCs {
		if err := checkCC(fmt.Sprintf("chain.cross_ccs[%d]", i), cc); err != nil {
			return err
		}
	}
	if err := checkPositiveRate("chain.rate", c.Rate); err != nil {
		return err
	}
	if err := checkBuffer("chain.buffer_bytes", c.BufferBytes); err != nil {
		return err
	}
	if err := checkDuration("chain.duration", c.Duration); err != nil {
		return err
	}
	if err := checkDelay("chain.link_delay", c.LinkDelay, c.Duration); err != nil {
		return err
	}
	if err := checkDelay("chain.access_delay", c.AccessDelay, c.Duration); err != nil {
		return err
	}
	if err := checkQdisc("chain.qdisc", "chain", c.Qdisc); err != nil {
		return err
	}
	return checkNonNegativeDur("chain.cebinae_rtt", c.CebinaeRTT)
}

func validateBackbone(b *BackboneSpec) error {
	if b.Flows <= 0 {
		return vErr("backbone.flows", "must be positive, got %d", b.Flows)
	}
	switch b.Scale {
	case "quick", "medium", "full":
	default:
		return vErr("backbone.scale", "unknown scale %q (known: quick, medium, full)", b.Scale)
	}
	if b.Qdisc != "" {
		return checkQdisc("backbone.qdisc", "backbone", b.Qdisc)
	}
	return nil
}

func validateGraph(g *GraphSpec) error {
	if len(g.Switches) == 0 {
		return vErr("graph.switches", "at least one switch required")
	}
	// switches maps each switch to its parent in a union-find over the
	// links: two switches are connected when they share a root.
	switches := map[string]string{}
	root := func(sw string) string {
		for switches[sw] != sw {
			sw = switches[sw]
		}
		return sw
	}
	for i, sw := range g.Switches {
		p := fmt.Sprintf("graph.switches[%d].name", i)
		if sw.Name == "" {
			return vErr(p, "required")
		}
		if switches[sw.Name] != "" {
			return vErr(p, "duplicate switch %q", sw.Name)
		}
		switches[sw.Name] = sw.Name
	}
	if err := checkDuration("graph.duration", g.Duration); err != nil {
		return err
	}
	for i, l := range g.Links {
		p := fmt.Sprintf("graph.links[%d]", i)
		if switches[l.A] == "" {
			return vErr(p+".a", "unknown switch %q", l.A)
		}
		if switches[l.B] == "" {
			return vErr(p+".b", "unknown switch %q", l.B)
		}
		switches[root(l.A)] = root(l.B)
		if l.A == l.B {
			return vErr(p, "self-link on switch %q", l.A)
		}
		if err := checkPositiveRate(p+".rate", l.Rate); err != nil {
			return err
		}
		if err := checkDelay(p+".delay", l.Delay, g.Duration); err != nil {
			return err
		}
		if err := checkPortQdisc(p+".qdisc_ab", "graph", l.QdiscAB); err != nil {
			return err
		}
		if err := checkPortQdisc(p+".qdisc_ba", "graph", l.QdiscBA); err != nil {
			return err
		}
	}
	if len(g.Hosts) == 0 {
		return vErr("graph.hosts", "at least one host group required")
	}
	hosts := map[string]string{} // host group → the switch it attaches to
	for i, h := range g.Hosts {
		p := fmt.Sprintf("graph.hosts[%d]", i)
		if h.Name == "" {
			return vErr(p+".name", "required")
		}
		if hosts[h.Name] != "" {
			return vErr(p+".name", "duplicate host group %q", h.Name)
		}
		hosts[h.Name] = h.Attach
		if h.Count <= 0 {
			return vErr(p+".count", "must be positive, got %d", h.Count)
		}
		if switches[h.Attach] == "" {
			return vErr(p+".attach", "unknown switch %q", h.Attach)
		}
		if err := checkPositiveRate(p+".rate", h.Rate); err != nil {
			return err
		}
		if err := checkDelay(p+".delay", h.Delay, g.Duration); err != nil {
			return err
		}
		if err := checkPortQdisc(p+".down_qdisc", "graph", h.DownQdisc); err != nil {
			return err
		}
	}
	if len(g.Flows) == 0 {
		return vErr("graph.flows", "at least one flow group required")
	}
	for i, f := range g.Flows {
		p := fmt.Sprintf("graph.flows[%d]", i)
		from, to := hosts[f.From], hosts[f.To]
		if from == "" {
			return vErr(p+".from", "unknown host group %q", f.From)
		}
		if to == "" {
			return vErr(p+".to", "unknown host group %q", f.To)
		}
		if root(from) != root(to) {
			return vErr(p+".to", "host group %q (switch %q) is unreachable from host group %q (switch %q)", f.To, to, f.From, from)
		}
		if err := checkCC(p+".cc", f.CC); err != nil {
			return err
		}
		if err := checkNonNegativeDur(p+".start_at", f.StartAt); err != nil {
			return err
		}
	}
	if g.WarmupFraction < 0 || g.WarmupFraction >= 1 {
		return vErr("graph.warmup_fraction", "must be in [0, 1), got %v", g.WarmupFraction)
	}
	if err := checkMinRTO("graph.min_rto", g.MinRTO, g.Duration); err != nil {
		return err
	}
	for i, f := range g.Flows {
		if err := checkStart(fmt.Sprintf("graph.flows[%d].start_at", i), f.StartAt, g.Duration); err != nil {
			return err
		}
	}
	return nil
}

func validateTournament(t *TournamentSpec) error {
	if len(t.CCAs) == 0 {
		return vErr("tournament.ccas", "at least one CCA required")
	}
	for i, cc := range t.CCAs {
		if err := checkCC(fmt.Sprintf("tournament.ccas[%d]", i), cc); err != nil {
			return err
		}
	}
	if t.FlowsPerCCA <= 0 {
		return vErr("tournament.flows_per_cca", "must be positive, got %d", t.FlowsPerCCA)
	}
	if err := checkPositiveRate("tournament.rate", t.Rate); err != nil {
		return err
	}
	if err := checkRTT("tournament.base_rtt", t.BaseRTT); err != nil {
		return err
	}
	if len(t.RTTRatios) == 0 {
		return vErr("tournament.rtt_ratios", "at least one ratio required")
	}
	for i, r := range t.RTTRatios {
		p := fmt.Sprintf("tournament.rtt_ratios[%d]", i)
		if r <= 0 {
			return vErr(p, "must be positive, got %v", r)
		}
		// The cell's RTT truncates the product, so it is under the floor iff the product is.
		if float64(t.BaseRTT)*r < float64(experiments.MinRTT) {
			return vErr(p, "base_rtt %v × %v is below the dumbbell's %v floor (twice its bottleneck delay)", time.Duration(t.BaseRTT), r, time.Duration(experiments.MinRTT))
		}
	}
	if err := checkBufList("tournament.buffer_bytes", t.BufferBytes); err != nil {
		return err
	}
	if err := checkQdiscList("tournament.qdiscs", "tournament", t.Qdiscs); err != nil {
		return err
	}
	if err := checkNonNegativeDur("tournament.min_rto", t.MinRTO); err != nil {
		return err
	}
	if err := checkDuration("tournament.duration", t.Duration); err != nil {
		return err
	}
	for i, r := range t.RTTRatios {
		if float64(t.BaseRTT)*r > float64(t.Duration) {
			return vErr(fmt.Sprintf("tournament.rtt_ratios[%d]", i), "base_rtt %v × %v is longer than the run's %v duration", time.Duration(t.BaseRTT), r, time.Duration(t.Duration))
		}
	}
	return checkMinRTO("tournament.min_rto", t.MinRTO, t.Duration)
}

func validateBufferSweep(b *BufferSweepSpec) error {
	if err := checkGroups("buffer_sweep.groups", b.Groups); err != nil {
		return err
	}
	if err := checkPositiveRate("buffer_sweep.rate", b.Rate); err != nil {
		return err
	}
	if err := checkBufList("buffer_sweep.buffer_bytes", b.BufferBytes); err != nil {
		return err
	}
	if err := checkQdiscList("buffer_sweep.qdiscs", "buffer_sweep", b.Qdiscs); err != nil {
		return err
	}
	if err := checkNonNegativeDur("buffer_sweep.min_rto", b.MinRTO); err != nil {
		return err
	}
	if err := checkDuration("buffer_sweep.duration", b.Duration); err != nil {
		return err
	}
	if err := checkMinRTO("buffer_sweep.min_rto", b.MinRTO, b.Duration); err != nil {
		return err
	}
	return checkHorizon("buffer_sweep.groups", b.Groups, b.Duration)
}

func checkBufList(path string, bufs []int) error {
	if len(bufs) == 0 {
		return vErr(path, "at least one buffer depth required")
	}
	for i, b := range bufs {
		if err := checkBuffer(fmt.Sprintf("%s[%d]", path, i), b); err != nil {
			return err
		}
	}
	return nil
}

func checkQdiscList(path, kind string, qs []string) error {
	if len(qs) == 0 {
		return vErr(path, "at least one qdisc required")
	}
	for i, q := range qs {
		if err := checkQdisc(fmt.Sprintf("%s[%d]", path, i), kind, q); err != nil {
			return err
		}
	}
	return nil
}
