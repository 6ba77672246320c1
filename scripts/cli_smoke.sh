#!/bin/sh
# The four CLIs end to end on tiny inputs — cebinae-sim's flag path
# (experiments.Run, RunBackbone) and its -scenario path on a dumbbell and a
# chain (whose stored record goes through JSON, strict decode and Report),
# the sweep and bench sections through the fleet (fig11's parking lot and
# fig12's threshold sweep among them), cebinae-trace's trace statistics,
# one-trial accuracy point and live replay — then the three examples on
# short horizons: every run must exit 0 and print a non-empty
# report on stdout. Eight absurd inputs must be refused: two unknown CCs
# given to cebinae-sim (htcp, and dctcp, which the transport no longer
# has: the refusal must list the five known CCs) and an unknown qdisc given
# to cebinae-sweep (by the scenario validator), a zero poll interval given
# to cebinae-trace, three dumbbell specs given to cebinae-sim -scenario
# that leave a 1 s run nothing to measure (a group starting at 3 s, a 5 s
# RTT, a 2562047 h RTT), and a 1 s chain spec whose link delay is
# 2562047 h; each must exit nonzero naming the flag or field on stderr.
#
#   scripts/cli_smoke.sh              (or: make cli-smoke)
#
# The binaries, stores and CSVs go to a temporary directory that is removed
# on exit; nothing is written in the tree.
set -eu

root=$(git rev-parse --show-toplevel)
cd "$root"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/" ./cmd/cebinae-sim ./cmd/cebinae-sweep ./cmd/cebinae-bench ./cmd/cebinae-trace ./examples/...

# smoke NAME CMD...: run CMD, fail on a nonzero exit or an empty stdout.
smoke() {
	name=$1
	shift
	"$@" >"$tmp/out" 2>"$tmp/err" || { cat "$tmp/err" >&2; echo "cli-smoke: $name exited nonzero" >&2; exit 1; }
	[ -s "$tmp/out" ] || { cat "$tmp/err" >&2; echo "cli-smoke: $name printed nothing" >&2; exit 1; }
	echo "cli-smoke: $name ok ($(wc -l <"$tmp/out") lines)"
}

# refuse NAME WANT CMD...: run CMD, fail unless it exits nonzero with WANT
# on stderr.
refuse() {
	name=$1
	want=$2
	shift 2
	if "$@" >"$tmp/out" 2>"$tmp/err"; then
		echo "cli-smoke: $name was accepted" >&2
		exit 1
	fi
	grep -qF -- "$want" "$tmp/err" || { cat "$tmp/err" >&2; echo "cli-smoke: $name did not say $want" >&2; exit 1; }
	echo "cli-smoke: $name refused ok"
}

smoke "cebinae-sim -scenario" "$tmp/cebinae-sim" -scenario scenarios/dumbbell.json
smoke "cebinae-sim -scenario chain" "$tmp/cebinae-sim" -scenario scenarios/chain.json
smoke "cebinae-sim -flows" "$tmp/cebinae-sim" -flows newreno:2,cubic:1 -rtt 20ms,40ms -qdisc cebinae -tau 0.05 -duration 2s
smoke "cebinae-sim -backbone" "$tmp/cebinae-sim" -backbone 1000 -duration 40ms
smoke "cebinae-sweep grid" "$tmp/cebinae-sweep" -qdiscs fifo,cebinae -thresholds 5 -scales 0.02 \
	-store "$tmp/grid.jsonl" -csv "$tmp/grid.csv"
smoke "cebinae-sweep -backbone" "$tmp/cebinae-sweep" -backbone 1000 -scales 0.02 \
	-store "$tmp/backbone.jsonl" -csv "$tmp/backbone.csv"
refuse "cebinae-sim -flows htcp:1" 'unknown CC "htcp"' "$tmp/cebinae-sim" -flows htcp:1 -duration 1s
refuse "cebinae-sim -flows dctcp:1" 'unknown CC "dctcp" (known: bbr, bic, cubic, newreno, vegas)' \
	"$tmp/cebinae-sim" -flows dctcp:1 -duration 1s
refuse "cebinae-sweep -qdiscs fifo,red" 'unknown qdisc "red"' "$tmp/cebinae-sweep" -qdiscs fifo,red \
	-store "$tmp/red.jsonl" -csv "$tmp/red.csv"
# horizon NAME GROUP: a 1 s dumbbell spec whose one flow group is GROUP.
horizon() {
	cat >"$tmp/$1.json" <<-EOF
	{"version": 1, "name": "$1", "kind": "dumbbell", "dumbbell": {"rate": "50M", "buffer_bytes": 150000,
	  "duration": "1s", "qdisc": "fifo", "groups": [$2]}}
	EOF
}
horizon late '{"cc": "newreno", "count": 1, "rtt": "20ms", "start_at": "3s"}'
horizon slow '{"cc": "newreno", "count": 1, "rtt": "5s"}'
horizon huge '{"cc": "newreno", "count": 1, "rtt": "2562047h"}'
refuse "cebinae-sim -scenario (start after the horizon)" 'dumbbell.groups[0].start_at: must be before' \
	"$tmp/cebinae-sim" -scenario "$tmp/late.json"
refuse "cebinae-sim -scenario (5s RTT in a 1s run)" 'dumbbell.groups[0].rtt: longer than' "$tmp/cebinae-sim" -scenario "$tmp/slow.json"
refuse "cebinae-sim -scenario (2562047h RTT)" 'dumbbell.groups[0].rtt: longer than' "$tmp/cebinae-sim" -scenario "$tmp/huge.json"
cat >"$tmp/slowlink.json" <<-EOF
	{"version": 1, "name": "slowlink", "kind": "chain", "chain": {"hops": 1, "long_flows": 1, "cross_per_hop": [1],
	  "long_cc": "newreno", "cross_ccs": ["cubic"], "rate": "100M", "buffer_bytes": 1275000,
	  "link_delay": "2562047h", "access_delay": "5ms", "qdisc": "fifo", "duration": "1s"}}
	EOF
refuse "cebinae-sim -scenario (2562047h link delay)" 'chain.link_delay: longer than' "$tmp/cebinae-sim" -scenario "$tmp/slowlink.json"
smoke "cebinae-trace -stats" "$tmp/cebinae-trace" -stats
smoke "cebinae-trace -trials 1" "$tmp/cebinae-trace" -trials 1
smoke "cebinae-trace -replay" "$tmp/cebinae-trace" -replay -standing 500 -duration 40ms
refuse "cebinae-trace -interval 0" 'interval must be positive' "$tmp/cebinae-trace" -interval 0
smoke "cebinae-bench -only table3,fig13" "$tmp/cebinae-bench" -scale quick -only table3,fig13
smoke "cebinae-bench -only fig11,fig12" "$tmp/cebinae-bench" -scale 0.02 -only fig11,fig12
for ex in blind_udp quickstart vegas_starvation; do
	smoke "examples/$ex" "$tmp/$ex" -seconds 2
done
