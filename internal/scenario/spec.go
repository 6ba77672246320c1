// Package scenario defines the declarative workload format: a versioned,
// validated JSON spec that lowers onto the experiments builders, so new
// topologies and CCA mixes are data files instead of recompiles. The
// format's correctness contract is byte-identity — a canonical spec file
// compiles to the same construction, and therefore the same report bytes,
// as the hand-built Go scenario it mirrors. Loading is stdlib-only
// (encoding/json with unknown fields rejected), emission is canonical
// (Emit ∘ Load is the identity on canonical files), and both directions
// are fuzzed.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Version is the current (and only) spec format version.
const Version = 1

// Spec is one scenario file: common identity plus exactly one populated
// kind section matching Kind.
type Spec struct {
	Version int    `json:"version"`
	Name    string `json:"name"`
	// Kind selects the scenario family: dumbbell, chain, backbone, graph,
	// tournament, or buffer_sweep.
	Kind string `json:"kind"`
	Seed uint64 `json:"seed,omitempty"`

	Dumbbell    *DumbbellSpec    `json:"dumbbell,omitempty"`
	Chain       *ChainSpec       `json:"chain,omitempty"`
	Backbone    *BackboneSpec    `json:"backbone,omitempty"`
	Graph       *GraphSpec       `json:"graph,omitempty"`
	Tournament  *TournamentSpec  `json:"tournament,omitempty"`
	BufferSweep *BufferSweepSpec `json:"buffer_sweep,omitempty"`
}

// GroupSpec declares a homogeneous flow group in a dumbbell-family
// scenario.
type GroupSpec struct {
	CC      string `json:"cc"`
	Count   int    `json:"count"`
	RTT     Dur    `json:"rtt"`
	StartAt Dur    `json:"start_at,omitempty"`
}

// DumbbellSpec is the single-bottleneck scenario (experiments.Scenario).
type DumbbellSpec struct {
	Rate        Rate        `json:"rate"`
	BufferBytes int         `json:"buffer_bytes"`
	Groups      []GroupSpec `json:"groups"`
	Duration    Dur         `json:"duration"`
	Qdisc       string      `json:"qdisc"`
	// Tau overrides Cebinae's τ (nil = DefaultParams' 0.01); only a cebinae
	// qdisc reads it, and the validator refuses it beside any other.
	Tau            *float64 `json:"tau,omitempty"`
	MinRTO         Dur      `json:"min_rto,omitempty"`
	WarmupFraction float64  `json:"warmup_fraction,omitempty"`
	SampleInterval Dur      `json:"sample_interval,omitempty"`
}

// ChainSpec is the multi-bottleneck parking lot
// (experiments.ChainConfig).
type ChainSpec struct {
	Hops        int      `json:"hops"`
	LongFlows   int      `json:"long_flows"`
	CrossPerHop []int    `json:"cross_per_hop"`
	LongCC      string   `json:"long_cc"`
	CrossCCs    []string `json:"cross_ccs"`
	Rate        Rate     `json:"rate"`
	BufferBytes int      `json:"buffer_bytes"`
	LinkDelay   Dur      `json:"link_delay"`
	AccessDelay Dur      `json:"access_delay"`
	Qdisc       string   `json:"qdisc"`
	// CebinaeRTT seeds Cebinae's parameters at every hop; omitted, it is
	// 40 ms, the graph ports' default (the chain runs as a graph).
	CebinaeRTT Dur `json:"cebinae_rtt,omitempty"`
	Duration   Dur `json:"duration"`
}

// BackboneSpec is the trace-replay backbone tier
// (experiments.BackboneTier): the standing-flow population plus the run
// scale, with an optional core-discipline override. The spec's seed, when
// given, seeds the synthetic trace; omitted, the tier's seed 1 stands.
type BackboneSpec struct {
	Flows int `json:"flows"`
	// Scale is quick, medium, or full.
	Scale string `json:"scale"`
	Qdisc string `json:"qdisc,omitempty"`
}

// PortQdiscSpec configures one port's discipline in a graph scenario.
type PortQdiscSpec struct {
	Kind        string `json:"kind"`
	BufferBytes int    `json:"buffer_bytes,omitempty"`
	CebinaeRTT  Dur    `json:"cebinae_rtt,omitempty"`
}

// SwitchSpec declares one named switch.
type SwitchSpec struct {
	Name string `json:"name"`
}

// LinkSpec declares a full-duplex switch-to-switch link with an optional
// qdisc per direction (a→b and b→a ports).
type LinkSpec struct {
	A       string         `json:"a"`
	B       string         `json:"b"`
	Rate    Rate           `json:"rate"`
	Delay   Dur            `json:"delay"`
	QdiscAB *PortQdiscSpec `json:"qdisc_ab,omitempty"`
	QdiscBA *PortQdiscSpec `json:"qdisc_ba,omitempty"`
}

// HostGroupSpec declares hosts attached to one switch; DownQdisc guards
// the switch→host port.
type HostGroupSpec struct {
	Name      string         `json:"name"`
	Count     int            `json:"count"`
	Attach    string         `json:"attach"`
	Rate      Rate           `json:"rate"`
	Delay     Dur            `json:"delay"`
	DownQdisc *PortQdiscSpec `json:"down_qdisc,omitempty"`
}

// FlowGroupSpec declares one flow per sender host of From toward To.
type FlowGroupSpec struct {
	From    string `json:"from"`
	To      string `json:"to"`
	CC      string `json:"cc"`
	StartAt Dur    `json:"start_at,omitempty"`
}

// GraphSpec is the generic switch/host topology
// (experiments.GraphConfig).
type GraphSpec struct {
	Switches       []SwitchSpec    `json:"switches"`
	Links          []LinkSpec      `json:"links"`
	Hosts          []HostGroupSpec `json:"hosts"`
	Flows          []FlowGroupSpec `json:"flows"`
	Duration       Dur             `json:"duration"`
	WarmupFraction float64         `json:"warmup_fraction,omitempty"`
	MinRTO         Dur             `json:"min_rto,omitempty"`
}

// TournamentSpec is the CCA tournament matrix: every unordered CCA pair ×
// RTT ratio × buffer depth × discipline, one experiments.GridCell each.
type TournamentSpec struct {
	CCAs        []string  `json:"ccas"`
	FlowsPerCCA int       `json:"flows_per_cca"`
	Rate        Rate      `json:"rate"`
	BaseRTT     Dur       `json:"base_rtt"`
	RTTRatios   []float64 `json:"rtt_ratios"`
	BufferBytes []int     `json:"buffer_bytes"`
	Qdiscs      []string  `json:"qdiscs"`
	Duration    Dur       `json:"duration"`
	MinRTO      Dur       `json:"min_rto,omitempty"`
}

// BufferSweepSpec is the buffer-depth fairness sweep: one fixed CC mix
// across buffer depths and disciplines, one experiments.GridCell each.
// MinRTO clamps the senders' retransmission timers (0 = the runner's 1 s
// RFC 6298 default; 200 ms approximates Linux): the BBR-fairness grid
// needs the Linux-like clamp, as with 1 s stalls the buffer-depth
// signature washes out.
type BufferSweepSpec struct {
	Groups      []GroupSpec `json:"groups"`
	Rate        Rate        `json:"rate"`
	BufferBytes []int       `json:"buffer_bytes"`
	Qdiscs      []string    `json:"qdiscs"`
	Duration    Dur         `json:"duration"`
	MinRTO      Dur         `json:"min_rto,omitempty"`
}

// Parse decodes and validates a spec from bytes. Unknown fields are
// rejected, so typos surface as errors instead of silently-defaulted
// knobs.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		if name := unknownField(err); removedFields[name] != "" {
			return nil, vErr(name, "%s", removedFields[name])
		}
		return nil, fmt.Errorf("scenario: parse: %s", jsonErr(err))
	}
	// A spec is one JSON object; trailing content is a second document.
	if dec.More() {
		return nil, fmt.Errorf("scenario: parse: trailing data after spec object")
	}
	if err := Validate(&s); err != nil {
		return nil, err
	}
	return &s, nil
}

// jsonErr strips the decoder's position-free wrapping down to a stable
// message the diagnostics goldens can pin.
func jsonErr(err error) string {
	return strings.TrimPrefix(err.Error(), "json: ")
}

// unknownField names the field a strict decode refused, or "" when the
// decode failed for another reason.
func unknownField(err error) string {
	quoted, ok := strings.CutPrefix(err.Error(), "json: unknown field ")
	if !ok {
		return ""
	}
	// A name that does not unquote comes back "", which is no field.
	name, _ := strconv.Unquote(quoted)
	return name
}

// Load reads and parses a spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return s, nil
}

// Emit renders a spec in canonical form: two-space indentation, fields
// in declaration order, scalar types in their preferred spellings, and a
// trailing newline. Canonical files are stored in this form, so
// Emit(Load(file)) == file byte-for-byte.
func Emit(s *Spec) ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: emit: %w", err)
	}
	return append(b, '\n'), nil
}
