# Developer entry points. `make check` is the gate every change must pass:
# it builds all packages, lints them (go vet + the cebinae-vet determinism
# & ownership analyzers, see STATIC_ANALYSIS.md), refuses unformatted
# files, and runs the full test suite with the race detector on (the fleet
# orchestrator and the parallel bench paths are concurrent code).

GO ?= go

.PHONY: check build vet lint fmt-check test race race-shard fastforward-smoke scenario-conformance cli-smoke mem-smoke cover bench bench-smoke ab report-diff report sweep clean

check: build vet lint fmt-check race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis beyond go vet: the repo's own invariant analyzers
# (detsource/mapiter/pktown/simtime — the determinism contract), plus
# staticcheck when it is installed (it is not vendored: this build
# environment is offline, so it stays an optional layer; CI installs it).
lint:
	$(GO) run ./cmd/cebinae-vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
	  staticcheck ./...; \
	else \
	  echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@2024.1.1 — the version CI pins)"; \
	fi

# Formatting gate: fails, naming the files, when gofmt would change
# anything in the tree (analyzer fixtures included).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
	  echo "gofmt -l found unformatted files:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The sharded-engine determinism gate under the race detector: the SPSC
# handoff queues rely on barrier happens-before rather than atomics, so
# these are the tests that catch a reintroduced data race. The two
# experiments differentials (the parking lot and the backbone, the only
# runners that still partition) run the min-cut auto-partitioned path,
# including the backbone's 3-shard cut-access-link case. CI runs this as
# its own cached job; `make race` still covers the whole tree.
race-shard:
	$(GO) test -race ./internal/shard
	$(GO) test -race -run 'TestShardDifferentialParkingLot|TestBackboneShardDifferential' ./experiments

# The fluid fast-forward gate: the short fluid-vs-packet differentials
# (error bound, determinism, forced-off byte-identity for an ineligible
# qdisc), the golden of three arming cells, and the clock they rest on
# (Engine.Local stands still during a skip; an FQ-CoDel sojourn excludes
# skipped time), plus the 10-minute
# scored cell, which must run ≥ 5× faster wall-clock with ≤ 1% per-flow
# goodput error against the exact packet-level run.
fastforward-smoke:
	$(GO) test -run 'TestFastForward|TestLocal|TestFQCoDelSojourn' ./experiments/ ./internal/fluid/ ./internal/sim/ ./internal/qdisc/
	CEBINAE_FASTFORWARD_SMOKE=1 $(GO) test -run 'TestFastForwardLongHorizon' -v ./experiments/

# The declarative-scenario gate (mirrors the scenario-conformance CI
# job): canonical spec files stay byte-identical with their hand-built Go
# twins, validation diagnostics match their goldens, the CCA tournament /
# buffer sweeps hold the BBR-fairness signature, and short fuzz runs hold
# the parse→emit→parse round-trip law and the goodput meter's
# equivalence, logged and marked, with a plain sample slice.
scenario-conformance:
	$(GO) test -run 'TestCanonicalFiles|TestEmitLoadIdentity|TestDifferential|TestDiagnosticsGolden|TestTournamentConformance|TestBufferSweepConformance' ./internal/scenario/
	$(GO) test -run '^$$' -fuzz FuzzScenarioLoad -fuzztime 25s ./internal/scenario/
	$(GO) test -run '^$$' -fuzz FuzzFlowMeterEquivalence -fuzztime 10s ./internal/metrics/

# The four CLIs end to end on tiny inputs (scripts/cli_smoke.sh):
# cebinae-sim -scenario on scenarios/dumbbell.json and scenarios/chain.json,
# cebinae-sim -flows … -tau and -backbone 1000, cebinae-sweep on a two-cell
# grid and on -backbone 1000, cebinae-trace -stats, -trials 1 and -replay
# -standing 500 -duration 40ms, cebinae-bench -only table3,fig13, then the
# five examples on short horizons. Each must exit 0 with a non-empty report
# on stdout. cebinae-sim -flows htcp:1, cebinae-sweep -qdiscs fifo,red and
# cebinae-trace -interval 0 must each exit nonzero, naming the unknown CC or
# qdisc or the bad interval on stderr.
cli-smoke:
	@sh scripts/cli_smoke.sh

# The memory and event pins: what a run allocates must grow with the
# window, not with the packets delivered — a marked goodput meter at
# nothing a record (an unmarked one's log at ≤ 6 B), the TCP scoreboard's
# blocks at about one per 32 segments of the first climb and nothing on the
# next, the scoreboard and FQ-CoDel's flow queues at nothing once warm, the
# backbone's max-min scoring at as many allocations for 8 000 flows as for
# 1 000, water-filling at as many in 2 000 rounds as in 8, and a whole
# experiments.Run at ≤ 4 B per delivered segment — plus the zero-alloc
# hot paths: engine dispatch, timer re-arm, one-hop
# forwarding (alone and with thousands of packets on the wire), a
# steady-state TCP round trip, the 10⁵-flow replay send path at ≤ 0.01
# allocs a packet, and the flow cache's poll-and-reset. The packet pool
# rides along: one allocation per 64 fresh packets (the slab), and every
# packet back in the pool once a run drains, FQ-CoDel's overflow victims
# and CoDel drops included and counted as the port's drops, and the drop
# ledger: every packet a switch of a congested dumbbell received was
# transmitted, dropped, queued or unroutable, under each of the six port
# disciplines. So does the event budget: one event per
# uncontended hop and one more per queued packet, and ≤ 8.1 events per
# delivered segment on the dumbbell_fifo_1g traffic.
mem-smoke:
	$(GO) test -run 'TestFlowMeterBytesPerRecord|TestScoreboardSteadyStateZeroAlloc|TestScoreboardFollowsWindow|TestBackboneScoringAllocs|TestAllocateAllocsIndependentOfRounds|TestFQCoDelChurnZeroAlloc|TestRunBytesPerSegment|TestRunEventsPerSegment|TestEngineDispatchZeroAlloc|TestTimerChurnZeroAlloc|TestNetemForwardZeroAlloc|TestNetemForwardEvents|TestNetemForwardInFlightZeroAlloc|TestTCPRTTZeroAlloc|TestBackboneSteadyStateAllocs|TestPollZeroAlloc|TestPoolSlab|TestPoolCustodyFQCoDel|TestDropLedger' -v ./internal/metrics/ ./internal/tcp/ ./internal/qdisc/ ./internal/sim/ ./internal/netem/ ./internal/replay/ ./internal/hhcache/ ./internal/packet/ ./internal/maxmin/ ./experiments/

# Statement coverage over the library packages, gated at a ratcheted
# minimum (raise COVER_MIN when coverage improves; never lower it). The
# profile is left at coverage.out for `go tool cover -html` and the CI
# artifact upload.
COVER_MIN ?= 89.0

cover:
	$(GO) test -coverprofile=coverage.out ./internal/...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (minimum $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit (t+0 < min+0) ? 1 : 0 }' || \
	  { echo "coverage $$total% fell below the ratcheted minimum $(COVER_MIN)%"; exit 1; }

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# One iteration of every benchmark — the CI bit-rot gate for the
# Benchmark functions.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# The one recorded performance number is `go run ./benchmark`
# (BENCHMARK.json's workloads); a claimed gain is alternating
# parent/change pairs of one workload, with the quartiles, win count and
# verdict the claim needs:
#   make ab REV=HEAD~1 W=dumbbell_fifo_1g [PAIRS=10] [SECONDS=7]
PAIRS ?= 10
SECONDS ?= 7

ab:
	sh scripts/ab.sh $(REV) $(W) $(PAIRS) $(SECONDS)

# The byte gate for a change that may move only event counts: the quick
# report of REV and of this tree, each with scenarios/*.json appended as
# sections, cmp-identical once every `events=N` and `events: N` is masked.
# Prints nothing and exits 0 when they match:
#   make report-diff REV=HEAD~1
report-diff:
	@sh scripts/report_diff.sh $(REV)

# Regenerate the quick evaluation report on all cores with checkpointing.
report:
	$(GO) run ./cmd/cebinae-bench -scale quick -resume bench_quick.jsonl -o bench_report_quick.txt

# Default parameter sweep (Fig.12 family): JSONL + CSV.
sweep:
	$(GO) run ./cmd/cebinae-sweep -store sweep.jsonl -csv sweep.csv -resume

clean:
	rm -f bench_quick.jsonl bench_report_quick.txt sweep.jsonl sweep.csv
