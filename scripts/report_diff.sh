#!/bin/sh
# The quick report of REV against this tree's, with every shipped spec file
# (scenarios/*.json) appended as its section, event counts masked: the gate
# for a change that is allowed to move how many events a run dispatches and
# nothing else. The spec sections carry the chain, graph, backbone and grid
# kinds, which the quick report alone does not run.
#
#   scripts/report_diff.sh REV        (or: make report-diff REV=…)
#
# REV is exported with `git archive` into .bench_build/<sha> (git-ignored;
# no worktree is registered, so `rm -rf .bench_build` is the whole clean-up),
# as scripts/ab.sh does. cebinae-bench is built on both sides and runs
# `-scale quick -p 2 -scenario 'scenarios/*.json'` from its own root (≈ 12 s
# a side on a 2-core host); every `events=N` and `events: N` in
# the two reports becomes `events=*` / `events: *`, and the masked reports
# must match byte for byte. cebinae-sweep is built on both sides too, and
# two grids run on each (≈ 50 ms a side): the dumbbell grid
# `-qdiscs fifo,fq,cebinae -thresholds 5,7 -scales 0.02` and the backbone
# grid `-backbone 1000 -scales 0.02`. Their stdout and CSV must match
# unmasked, byte for byte. So must the stdout of
# `cebinae-sweep -scenario 'scenarios/*.json'` (≈ 3 s a side) and, with its
# `wall:` line masked, of `cebinae-sim -scenario scenarios/dumbbell.json`,
# both run from each side's root (cebinae-sim is built on both sides for
# it). On a match it prints nothing and exits 0; otherwise it prints the
# diff and exits 1.
set -eu

[ $# -ge 1 ] || { echo "usage: $0 REV" >&2; exit 2; }
rev=$1

root=$(git rev-parse --show-toplevel)
cd "$root"
sha=$(git rev-parse --short "$rev^{commit}")
build=$root/.bench_build
parent=$build/$sha
rm -rf "$parent"
mkdir -p "$parent"
git archive "$sha" | tar -xf - -C "$parent"
(cd "$parent" && go build -o "$build/rd-parent" ./cmd/cebinae-bench && go build -o "$build/rs-parent" ./cmd/cebinae-sweep &&
	go build -o "$build/rm-parent" ./cmd/cebinae-sim)
go build -o "$build/rd-change" ./cmd/cebinae-bench
go build -o "$build/rs-change" ./cmd/cebinae-sweep
go build -o "$build/rm-change" ./cmd/cebinae-sim

# report SIDE DIR BINARY: the masked quick report of one side.
report() {
	(cd "$2" && "$3" -scale quick -p 2 -scenario 'scenarios/*.json' >"$build/rd-$1.raw" 2>"$build/rd-$1.log") ||
		{ echo "report_diff: the $1 report failed (stderr in $build/rd-$1.log)" >&2; exit 1; }
	sed -e 's/events=[0-9][0-9]*/events=*/g' -e 's/events: [0-9][0-9]*/events: */g' "$build/rd-$1.raw" >"$build/rd-$1.txt"
}
# sweep SIDE GRID ARGS…: one grid of one side, stdout then CSV in one file.
sweep() {
	side=$1 grid=$2
	shift 2
	out=$build/rs-$side-$grid
	rm -f "$out.jsonl" "$out.csv"
	"$build/rs-$side" -p 2 -store "$out.jsonl" -csv "$out.csv" "$@" >"$out.txt" 2>"$out.log" ||
		{ echo "report_diff: the $side $grid grid failed (stderr in $out.log)" >&2; exit 1; }
	cat "$out.csv" >>"$out.txt"
}
# specs SIDE DIR: from DIR, the sweep's -scenario grid over every shipped
# spec file, and cebinae-sim -scenario on the dumbbell spec with its wall
# time masked.
specs() {
	out=$build/rs-$1-specs
	rm -f "$out.jsonl"
	(cd "$2" && "$build/rs-$1" -p 2 -store "$out.jsonl" -scenario 'scenarios/*.json' >"$out.txt" 2>"$out.log") ||
		{ echo "report_diff: the $1 -scenario grid failed (stderr in $out.log)" >&2; exit 1; }
	out=$build/rm-$1
	(cd "$2" && "$build/rm-$1" -scenario scenarios/dumbbell.json >"$out.raw" 2>"$out.log") ||
		{ echo "report_diff: the $1 cebinae-sim -scenario run failed (stderr in $out.log)" >&2; exit 1; }
	sed -e 's/^wall: .*/wall: */' "$out.raw" >"$out.txt"
}
for side in parent change; do
	sweep "$side" dumbbell -qdiscs fifo,fq,cebinae -thresholds 5,7 -scales 0.02
	sweep "$side" backbone -backbone 1000 -scales 0.02
done
specs parent "$parent"
specs change "$root"

report parent "$parent" "$build/rd-parent"
report change "$root" "$build/rd-change"
status=0
diff "$build/rd-parent.txt" "$build/rd-change.txt" || status=1
for grid in dumbbell backbone specs; do
	diff "$build/rs-parent-$grid.txt" "$build/rs-change-$grid.txt" || status=1
done
diff "$build/rm-parent.txt" "$build/rm-change.txt" || status=1
exit $status
