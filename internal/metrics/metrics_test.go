package metrics

import (
	"encoding/binary"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"cebinae/internal/sim"
)

func TestJFIExtremes(t *testing.T) {
	if JFI([]float64{5, 5, 5, 5}) != 1 {
		t.Fatal("equal allocation must give JFI 1")
	}
	got := JFI([]float64{10, 0, 0, 0})
	if math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("single-flow capture of n=4 must give 1/n: %v", got)
	}
	if JFI(nil) != 0 || JFI([]float64{0, 0}) != 0 {
		t.Fatal("degenerate inputs must give 0")
	}
}

// TestJFIRange: JFI ∈ [1/n, 1] for any non-negative non-zero input, and is
// scale-invariant.
func TestJFIRange(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		var sum float64
		for i, v := range raw {
			vals[i] = float64(v)
			sum += vals[i]
		}
		if sum == 0 {
			return JFI(vals) == 0
		}
		j := JFI(vals)
		if j < 1/float64(len(vals))-1e-12 || j > 1+1e-12 {
			return false
		}
		scaled := make([]float64, len(vals))
		for i := range vals {
			scaled[i] = vals[i] * 1e6
		}
		return math.Abs(JFI(scaled)-j) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizedJFI(t *testing.T) {
	// Perfect tracking of an uneven ideal ⇒ 1.0.
	if got := NormalizedJFI([]float64{6.25, 25, 12.5}, []float64{6.25, 25, 12.5}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("perfect normalised JFI should be 1, got %v", got)
	}
	if NormalizedJFI([]float64{1}, []float64{1, 2}) != 0 {
		t.Fatal("length mismatch must give 0")
	}
	if NormalizedJFI([]float64{1}, []float64{0}) != 0 {
		t.Fatal("zero ideal must give 0")
	}
}

func TestFlowMeterRates(t *testing.T) {
	var m FlowMeter
	m.Mark(0, sim.Duration(1e9), sim.Duration(3e9))
	// 1000 bytes at t=1s, 2000 at t=2s, 3000 at t=3s.
	m.Record(sim.Duration(1e9), 1000)
	m.Record(sim.Duration(2e9), 2000)
	m.Record(sim.Duration(3e9), 3000)
	if m.Total() != 6000 {
		t.Fatalf("total = %d", m.Total())
	}
	// Over [0,3s]: 6000 bytes / 3 s.
	if got := m.RateOver(0, sim.Duration(3e9)); math.Abs(got-2000) > 1e-9 {
		t.Fatalf("rate over full window = %v", got)
	}
	// Over (1s,3s]: 5000 bytes / 2s.
	if got := m.RateOver(sim.Duration(1e9), sim.Duration(3e9)); math.Abs(got-2500) > 1e-9 {
		t.Fatalf("rate over tail = %v", got)
	}
	if m.RateOver(sim.Duration(3e9), sim.Duration(3e9)) != 0 {
		t.Fatal("empty window must give 0")
	}
}

func TestFlowMeterSeries(t *testing.T) {
	var m FlowMeter
	m.Mark(SeriesInstants(sim.Duration(1e9), sim.Duration(2e9))...)
	m.Record(sim.Duration(0.5e9), 100)
	m.Record(sim.Duration(1.5e9), 300)
	s := m.Series(sim.Duration(1e9), sim.Duration(2e9))
	if len(s) != 2 {
		t.Fatalf("series length %d", len(s))
	}
	if math.Abs(s[0]-100) > 1e-9 || math.Abs(s[1]-300) > 1e-9 {
		t.Fatalf("series wrong: %v", s)
	}
	if m.Series(0, sim.Duration(1e9)) != nil {
		t.Fatal("invalid interval must give nil")
	}
}

// TestFlowMeterMonotonicity: cumulative bytes at increasing times never
// decrease, and rates over any window are non-negative.
func TestFlowMeterMonotonicity(t *testing.T) {
	f := func(deltas []uint8) bool {
		var m FlowMeter
		ts := sim.Time(0)
		for _, d := range deltas {
			ts += sim.Time(d)*1e6 + 1
		}
		m.Mark(ts)
		for w := sim.Time(0); w < ts; w += ts/7 + 1 {
			m.Mark(w)
		}
		ts = 0
		for _, d := range deltas {
			ts += sim.Time(d)*1e6 + 1
			m.Record(ts, int64(d))
		}
		for w := sim.Time(0); w < ts; w += ts/7 + 1 {
			if m.RateOver(w, ts) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// refMeter is the meter as it was before the block log: one 16-byte sample
// per record and two binary searches per window. It is the reference the
// differential tests and the fuzz target hold FlowMeter to.
type refMeter struct {
	total   int64
	samples []sample // cumulative bytes at time t
}

type sample struct {
	t     sim.Time
	bytes int64 // cumulative
}

func (m *refMeter) Record(t sim.Time, newBytes int64) {
	m.total += newBytes
	m.samples = append(m.samples, sample{t, m.total})
}

func (m *refMeter) Total() int64 { return m.total }

func (m *refMeter) RateOver(from, to sim.Time) float64 {
	if to <= from {
		return 0
	}
	return float64(m.bytesAt(to)-m.bytesAt(from)) / (to - from).Seconds()
}

func (m *refMeter) bytesAt(t sim.Time) int64 {
	idx := sort.Search(len(m.samples), func(i int) bool { return m.samples[i].t > t })
	if idx == 0 {
		return 0
	}
	return m.samples[idx-1].bytes
}

func (m *refMeter) Series(interval, horizon sim.Time) []float64 {
	if interval <= 0 || horizon <= 0 {
		return nil
	}
	n := int((horizon + interval - 1) / interval)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		from := sim.Time(i) * interval
		to := from + interval
		if to > horizon {
			to = horizon
		}
		out[i] = m.RateOver(from, to)
	}
	return out
}

// rec is one Record call of a generated stream: dt after the previous one.
type rec struct {
	dt    sim.Time
	bytes int64
}

// checkEquivalent holds both kinds of meter to the reference on recs.
func checkEquivalent(t testing.TB, recs []rec) {
	t.Helper()
	checkLogged(t, recs)
	checkMarked(t, recs)
}

// checkLogged feeds recs to an unmarked FlowMeter, which keeps the block
// log, and to the reference and requires every query to answer with the
// same bits: Total, RateOver on windows between probe times — the log's
// ends, every block boundary and the first sample after it, each ±1 ns,
// and a sample of record stamps — and Series at intervals from far below a
// block's span to beyond the horizon.
func checkLogged(t testing.TB, recs []rec) {
	t.Helper()
	var m FlowMeter
	var ref refMeter
	var now sim.Time
	for _, r := range recs {
		now += r.dt
		m.Record(now, r.bytes)
		ref.Record(now, r.bytes)
	}
	if m.Total() != ref.Total() {
		t.Fatalf("Total = %d, reference %d", m.Total(), ref.Total())
	}

	var probes []sim.Time
	around := func(ts sim.Time) { probes = append(probes, ts-1, ts, ts+1) }
	around(0)
	around(now)
	around(now / 2)
	for _, b := range m.blocks {
		around(b.t0)
		dt, _ := binary.Uvarint(b.data[:b.n]) // the block's first sample
		around(b.t0 + sim.Time(dt))
	}
	if n := len(ref.samples); n > 0 {
		for i := 0; i < n; i += n/16 + 1 {
			around(ref.samples[i].t)
		}
	}
	// A window from before the log to a probe reads the cumulative count
	// at the probe alone; the other two windows give each probe both roles.
	check := func(from, to sim.Time) {
		if got, want := m.RateOver(from, to), ref.RateOver(from, to); got != want {
			t.Fatalf("RateOver(%d, %d) = %v, reference %v (%d records, %d blocks)", from, to, got, want, len(recs), len(m.blocks))
		}
	}
	for i, p := range probes {
		check(-1, p)
		check(p, now+1)
		check(p, probes[(i+1)%len(probes)])
		check(p, probes[(i+7)%len(probes)])
	}

	for _, horizon := range []sim.Time{now, now + 1, now/2 + 1, 2*now + 3} {
		for _, interval := range []sim.Time{horizon/2000 + 1, horizon/7 + 1, horizon, horizon + 5} {
			got, want := m.Series(interval, horizon), ref.Series(interval, horizon)
			if len(got) != len(want) {
				t.Fatalf("Series(%d, %d) has %d intervals, reference %d", interval, horizon, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("Series(%d, %d)[%d] = %v, reference %v", interval, horizon, i, got[i], want[i])
				}
			}
		}
	}
}

// checkMarked feeds recs to a marked FlowMeter and to the reference and
// requires every query to answer with the same bits: Total, RateOver on
// windows between probe times — 0, the log's end and middle, and a sample
// of record stamps, each ±1 ns — and Series at intervals from far below
// the record spacing to beyond the horizon. The meter's instants are
// declared as a run declares them, before the records reach them: those
// up to the middle record's stamp before any record, the rest at the
// middle record.
func checkMarked(t testing.TB, recs []rec) {
	t.Helper()
	stamps := make([]sim.Time, len(recs))
	var now sim.Time
	for i, r := range recs {
		now += r.dt
		stamps[i] = now
	}

	var probes []sim.Time
	around := func(ts sim.Time) {
		for _, p := range []sim.Time{ts - 1, ts, ts + 1} {
			if p >= 0 {
				probes = append(probes, p)
			}
		}
	}
	around(0)
	around(now)
	around(now / 2)
	for i := 0; i < len(stamps); i += len(stamps)/16 + 1 {
		around(stamps[i])
	}
	type grid struct{ interval, horizon sim.Time }
	var grids []grid
	for _, horizon := range []sim.Time{now, now + 1, now/2 + 1, 2*now + 3} {
		for _, interval := range []sim.Time{horizon/2000 + 1, horizon/7 + 1, horizon, horizon + 5} {
			grids = append(grids, grid{interval, horizon})
		}
	}

	var m FlowMeter
	var ref refMeter
	mid := len(recs) / 2
	var midStamp sim.Time
	if mid < len(stamps) {
		midStamp = stamps[mid]
	}
	instants := append(probes, now+1)
	for _, g := range grids {
		instants = append(instants, SeriesInstants(g.interval, g.horizon)...)
	}
	var late []sim.Time
	for _, p := range instants {
		if p <= midStamp {
			m.Mark(p)
		} else {
			late = append(late, p)
		}
	}
	declareLate := func() { m.Mark(late...) }
	for i, r := range recs {
		if i == mid {
			declareLate()
		}
		m.Record(stamps[i], r.bytes)
		ref.Record(stamps[i], r.bytes)
	}
	if len(recs) == 0 {
		declareLate()
	}
	if m.Total() != ref.Total() {
		t.Fatalf("Total = %d, reference %d", m.Total(), ref.Total())
	}

	// A window from 0 to a probe reads the cumulative count at the probe
	// and at 0; the other windows give each probe both roles.
	check := func(from, to sim.Time) {
		if got, want := m.RateOver(from, to), ref.RateOver(from, to); got != want {
			t.Fatalf("RateOver(%d, %d) = %v, reference %v (%d records, %d marks)", from, to, got, want, len(recs), len(m.marks))
		}
	}
	for i, p := range probes {
		check(0, p)
		check(p, now+1)
		check(p, probes[(i+1)%len(probes)])
		check(p, probes[(i+7)%len(probes)])
	}

	for _, g := range grids {
		got, want := m.Series(g.interval, g.horizon), ref.Series(g.interval, g.horizon)
		if len(got) != len(want) {
			t.Fatalf("Series(%d, %d) has %d intervals, reference %d", g.interval, g.horizon, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Series(%d, %d)[%d] = %v, reference %v", g.interval, g.horizon, i, got[i], want[i])
			}
		}
	}
}

// TestFlowMeterMatchesReference drives the block log, the marked meter and
// the reference with streams built to hit the encoding's edges, and the
// marks' — records in one instant, long silences, negative credits.
func TestFlowMeterMatchesReference(t *testing.T) {
	// Every length a uvarint Δt and a zig-zag varint Δbytes can take, from
	// both sides of each boundary.
	var dts []sim.Time
	var dbs []int64
	for k := uint(7); k <= 56; k += 7 {
		dts = append(dts, 1<<k-1, 1<<k)
	}
	for k := uint(6); k <= 48; k += 7 {
		dbs = append(dbs, 1<<k-1, 1<<k, -(1 << k), -(1<<k)-1)
	}
	rng := sim.NewRand(7)
	streams := map[string][]rec{
		"empty":       nil,
		"one at zero": {{0, 1448}},
		"one":         {{12_000, 1448}},
	}
	{
		// A dumbbell flow: one MSS every 12 µs, long enough for many blocks.
		var s []rec
		for i := 0; i < 5000; i++ {
			s = append(s, rec{12_000, 1448})
		}
		streams["steady"] = s
	}
	{
		// Bursts of records in one instant, some long enough to fill
		// whole blocks with Δt = 0, between quiet spells.
		var s []rec
		for burst := 0; burst < 40; burst++ {
			s = append(s, rec{sim.Time(rng.Intn(1e9)), 1448})
			for i, n := 0, rng.Intn(3000); i < n; i++ {
				s = append(s, rec{0, 1448})
			}
		}
		streams["bursts"] = s
	}
	{
		// Gaps far longer than the span of a block, so windows fall
		// between, inside and across blocks.
		var s []rec
		for i := 0; i < 6000; i++ {
			dt := sim.Time(rng.Intn(2000))
			if i%700 == 0 {
				dt = sim.Time(3e9)
			}
			s = append(s, rec{dt, int64(rng.Intn(3000))})
		}
		streams["gaps"] = s
	}
	// The long Δts are rationed so the clock stays inside int64.
	budget := sim.Time(1 << 61)
	ration := func(dt sim.Time) sim.Time {
		if dt > budget/8 {
			dt = 127
		}
		budget -= dt
		return dt
	}
	{
		var s []rec
		for i := 0; i < 4000; i++ {
			s = append(s, rec{ration(dts[rng.Intn(len(dts))]), dbs[rng.Intn(len(dbs))]})
		}
		streams["varint lengths"] = s
	}
	{
		// Sample lengths in a fixed rotation: blocks
		// end at every possible fill, and samples of every length land on
		// both sides of a block boundary.
		budget = 1 << 61
		var s []rec
		for i := 0; i < 9000; i++ {
			s = append(s, rec{ration(dts[i%len(dts)]), dbs[(i/3)%len(dbs)]})
		}
		streams["rotating lengths"] = s
	}
	for name, s := range streams {
		t.Run(name, func(t *testing.T) { checkEquivalent(t, s) })
	}
}

// fuzzStream decodes fuzz input into a record stream, five bytes a group:
// Δt = mantissa << shift (less one on the shift byte's top bit, to reach
// both sides of every varint length), Δbytes likewise and signed, and a
// repeat count so short inputs still fill blocks. Decoding stops before
// the clock could overflow.
func fuzzStream(data []byte) []rec {
	var out []rec
	var now sim.Time
	for ; len(data) >= 5 && len(out) < 20_000; data = data[5:] {
		dt := sim.Time(data[1]) << (data[0] % 48)
		if data[0]&0x80 != 0 && dt > 0 {
			dt--
		}
		db := (int64(data[3]) - 128) << (data[2] % 40)
		for i := 0; i <= int(data[4]); i++ {
			if now+dt > 1<<61 {
				return out
			}
			now += dt
			out = append(out, rec{dt, db})
		}
	}
	return out
}

func FuzzFlowMeterEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 128, 0})
	f.Add([]byte{7, 47, 4, 220, 255, 0x87, 1, 13, 0, 255, 20, 255, 39, 255, 255, 0, 0, 0, 129, 255})
	f.Add([]byte(strings.Repeat("\x0e\x01\x03\xb5\xff\x96\x40\x0a\x02\x09", 8)))
	f.Fuzz(func(t *testing.T, data []byte) { checkEquivalent(t, fuzzStream(data)) })
}

// TestFlowMeterRecordOrder: Record's one precondition is checked, and what
// is legal round-trips.
func TestFlowMeterRecordOrder(t *testing.T) {
	cases := []struct {
		name      string
		recs      [][2]int64 // (stamp, bytes)
		wantPanic string
		wantTotal int64
	}{
		{"equal stamps", [][2]int64{{5, 100}, {5, 200}, {5, 300}, {9, 1}}, "", 601},
		{"decreasing stamp", [][2]int64{{5, 100}, {9, 100}, {8, 100}}, "at 8 ns after a record at 9 ns", 0},
		{"negative stamp", [][2]int64{{-1, 100}}, "at -1 ns after a record at 0 ns", 0},
		{"negative bytes", [][2]int64{{5, 1000}, {7, -300}, {9, 50}}, "", 750},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if c.wantPanic == "" {
					if r != nil {
						t.Fatalf("unexpected panic: %v", r)
					}
					return
				}
				if msg, _ := r.(string); !strings.Contains(msg, c.wantPanic) {
					t.Fatalf("panic %v, want one naming both stamps (%q)", r, c.wantPanic)
				}
			}()
			var m FlowMeter
			var stream []rec
			var prev int64
			for _, r := range c.recs {
				m.Record(sim.Time(r[0]), r[1])
				stream = append(stream, rec{sim.Time(r[0] - prev), r[1]})
				prev = r[0]
			}
			if m.Total() != c.wantTotal {
				t.Fatalf("Total = %d, want %d", m.Total(), c.wantTotal)
			}
			checkEquivalent(t, stream)
		})
	}
	// Several records in one instant all count at that instant, none
	// before it; a negative record takes back what it says.
	var m FlowMeter
	m.Mark(4, 5, 6, 7, 8)
	m.Record(5, 100)
	m.Record(5, 200)
	m.Record(7, -50)
	for _, q := range []struct {
		t    sim.Time
		want int64
	}{{4, 0}, {5, 300}, {6, 300}, {7, 250}, {8, 250}} {
		if got := m.bytesAt(q.t); got != q.want {
			t.Fatalf("bytesAt(%d) = %d, want %d", q.t, got, q.want)
		}
	}
}

// TestFlowMeterBytesPerRecord pins the meter's memory per record at a
// 1 Gbps flow's spacing. Once its instants are declared (a one-second
// sample grid over a ten-second run), a million records allocate nothing.
// With none declared, the block log costs at most 6 bytes a record, block
// headers and the block table's growth included (the []sample log cost 88).
func TestFlowMeterBytesPerRecord(t *testing.T) {
	const records = 1_000_000
	perRecord := func(m *FlowMeter) float64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < records; i++ {
			m.Record(sim.Time(i)*12_000, 1448)
		}
		runtime.ReadMemStats(&m1)
		if m.Total() != records*1448 {
			t.Fatalf("Total = %d", m.Total())
		}
		return float64(m1.TotalAlloc-m0.TotalAlloc) / records
	}

	var marked FlowMeter
	marked.Mark(SeriesInstants(sim.Duration(1e9), sim.Duration(10e9))...)
	if allocs := testing.AllocsPerRun(1000, func() { marked.Record(0, 0) }); allocs != 0 {
		t.Fatalf("Record on a marked meter allocates %v objects, want 0", allocs)
	}
	// The runtime may allocate a few bytes meanwhile; a record of its own
	// would show as a whole byte or more.
	if per := perRecord(&marked); per > 0.01 {
		t.Fatalf("a marked FlowMeter allocated %.3f B per record, want 0", per)
	}
	for k, r := range marked.Series(sim.Duration(1e9), sim.Duration(10e9)) {
		// 12 µs spacing: every second of [0, 10 s) holds 83 333 or
		// 83 334 records.
		if r < 83_333*1448 || r > 83_334*1448 {
			t.Fatalf("Series[%d] = %v B/s", k, r)
		}
	}

	var logged FlowMeter
	per := perRecord(&logged)
	t.Logf("%.2f B per record in %d blocks", per, len(logged.blocks))
	if per > 6 {
		t.Fatalf("FlowMeter allocated %.1f B per record, want ≤ 6", per)
	}
}

// TestFlowMeterUndeclared: a marked meter answers only at declared
// instants and says which instant it was asked for; an instant the records
// have already passed cannot be declared.
func TestFlowMeterUndeclared(t *testing.T) {
	panics := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			msg, _ := recover().(string)
			if !strings.Contains(msg, want) {
				t.Errorf("%s: panic %q, want one containing %q", name, msg, want)
			}
		}()
		f()
	}
	var m FlowMeter
	m.Mark(10, 20)
	m.Record(15, 100)
	if got := m.RateOver(10, 20); got != 100/(10e-9) {
		t.Fatalf("RateOver(10, 20) = %v", got)
	}
	panics("RateOver", "at 17 ns, an instant never declared", func() { m.RateOver(10, 17) })
	panics("RateOver", "at 3 ns, an instant never declared", func() { m.RateOver(3, 20) })
	panics("Series", "at 0 ns, an instant never declared", func() { m.Series(10, 20) })
	panics("Mark behind", "Mark at 14 ns behind a record at 15 ns", func() { m.Mark(10, 25, 14) })
	panics("Mark negative", "Mark at -1 ns", func() { new(FlowMeter).Mark(-1) })
	// The instant at the latest record's stamp still counts records there.
	m.Mark(15)
	m.Record(15, 1)
	m.Record(30, 5)
	if a, b := m.bytesAt(15), m.bytesAt(25); a != 101 || b != 101 {
		t.Fatalf("bytesAt(15) = %d, bytesAt(25) = %d, want 101 each", a, b)
	}
	// A meter with no marks answers at any instant from its log.
	var z FlowMeter
	z.Record(1, 7)
	z.Record(1e9, 8)
	if z.Total() != 15 || z.bytesAt(17) != 7 || z.RateOver(0, 1e9) != 15 {
		t.Fatalf("unmarked meter: Total %d, bytesAt(17) %d, RateOver(0, 1 s) %v", z.Total(), z.bytesAt(17), z.RateOver(0, 1e9))
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if Percentile(vals, 50) != 5 {
		t.Fatalf("p50 = %v", Percentile(vals, 50))
	}
	if Percentile(vals, 0) != 1 || Percentile(vals, 100) != 10 {
		t.Fatal("extreme percentiles wrong")
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("empty percentile should be NaN")
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean wrong")
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean should be 0")
	}
}
