#!/bin/sh
# Alternating parent/change runs of one benchmark workload: the ten pairs a
# claimed gain needs (benchmark/README.md, "Steadiness and the A/A result").
#
#   scripts/ab.sh REV WORKLOAD [PAIRS=10] [SECONDS=7]     (or: make ab REV=… W=…)
#
# REV is exported with `git archive` into .bench_build/<sha>, and the
# working tree (its tracked files plus the untracked ones .gitignore does
# not name) is copied into .bench_build/working-tree, so both sides are
# built and run the same way: ./benchmark is built in each export and each
# binary runs from its own export, where it reads its own
# benchmark/workloads. Both exports are git-ignored and no worktree is
# registered, so `rm -rf .bench_build` is the whole clean-up. Pair i runs
# `--workload W --seed i --seconds S --trace 0` once per side, and odd and
# even pairs swap which side goes first. Printed per end-to-end metric of
# BENCHMARK.json: every pair, each side's q1/median/q3, the pairs the change
# won (ties count for neither side), and the verdict of the measurement
# rule: better (or worse) only with at least nine tenths of the pairs won
# and medians further apart than the parent's own quartile distance. The
# simulated metrics (goodput_frac) are means over however many repeats fit
# into SECONDS, so the faster side averages over more seeds: read them for
# size, not for wins; `benchmark -compare` pairs two saved runs seed for seed.
# A claimed gain cites, beside its run, an A/A run of the same workload on
# the same host (REV=HEAD with a clean tree), which shows the host's bias.
set -eu

[ $# -ge 2 ] || { echo "usage: $0 REV WORKLOAD [PAIRS=10] [SECONDS=7]" >&2; exit 2; }
rev=$1
workload=$2
pairs=${3:-10}
secs=${4:-7}

root=$(git rev-parse --show-toplevel)
cd "$root"
sha=$(git rev-parse --short "$rev^{commit}")
build=$root/.bench_build
parent=$build/$sha
change=$build/working-tree
rm -rf "$parent" "$change"
mkdir -p "$parent" "$change"
git archive "$sha" | tar -xf - -C "$parent"
# The working tree's files as git would see them: a tracked file deleted
# from the tree is left out.
git ls-files -z --cached --others --exclude-standard |
	xargs -0 sh -c 'for f; do [ -e "$f" ] && printf "%s\0" "$f"; done' sh |
	tar --null -T - -cf - | tar -xf - -C "$change"
(cd "$parent" && go build -o "$build/ab-parent" ./benchmark)
(cd "$change" && go build -o "$build/ab-change" ./benchmark)

runs=$build/ab-runs.txt
log=$build/ab-stderr.log
: >"$runs"
: >"$log"
# one SIDE DIR BINARY PAIR: a run's last output line is its JSON result.
one() {
	line=$(cd "$2" && "$3" --workload "$workload" --seed "$4" --seconds "$secs" --trace 0 2>>"$log" | tail -n 1)
	case $line in
	*'"correct":true'*'"failed":0'*) ;;
	*) echo "ab: $1 run of pair $4 is not correct (stderr in $log): $line" >&2; exit 1 ;;
	esac
	echo "$1 $4 $line" >>"$runs"
}
i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		one parent "$parent" "$build/ab-parent" "$i"
		one change "$change" "$build/ab-change" "$i"
	else
		one change "$change" "$build/ab-change" "$i"
		one parent "$parent" "$build/ab-parent" "$i"
	fi
	echo "pair $i/$pairs done" >&2
	i=$((i + 1))
done

echo "$workload: parent $sha vs working tree, $pairs pairs, seeds 1..$pairs, --seconds $secs"
awk -v runs="$runs" '
# quartile p of the sorted v[1..n], linear interpolation between ranks
function quart(v, n, p,    h, lo) {
	h = (n - 1) * p + 1; lo = int(h)
	return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
}
function sorted(src, dst, n,    i, j, t) {
	for (i = 1; i <= n; i++) dst[i] = src[i]
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) { t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t }
}
# the end_to_end block of BENCHMARK.json: metric names and their direction
/"end_to_end"/ { inside = 1 }
inside && /"name"/ { split($0, q, "\""); name = q[4] }
inside && /"better"/ { split($0, q, "\""); names[++m] = name; better[name] = q[4] }
inside && /\]/ { inside = 0 }
END {
	while ((getline line <runs) > 0) {
		split(line, f, " ")
		for (k = 1; k <= m; k++) {
			pat = "\"" names[k] "\":{\"value\":"
			at = index(line, pat)
			if (!at) continue
			val[f[1], names[k], f[2]] = substr(line, at + length(pat)) + 0
		}
		if (f[2] > n) n = f[2]
	}
	for (k = 1; k <= m; k++) {
		name = names[k]; sign = better[name] == "lower" ? 1 : -1
		printf "\n%s (%s is better)\n  parent/change:", name, better[name]
		wins = losses = 0
		for (i = 1; i <= n; i++) {
			a[i] = val["parent", name, i]; b[i] = val["change", name, i]
			printf " %.4g/%.4g", a[i], b[i]
			if (sign * b[i] < sign * a[i]) wins++
			if (sign * b[i] > sign * a[i]) losses++
		}
		sorted(a, sa, n); sorted(b, sb, n)
		am = quart(sa, n, .5); bm = quart(sb, n, .5); iqr = quart(sa, n, .75) - quart(sa, n, .25)
		printf "\n  parent q1/med/q3 %.4g/%.4g/%.4g   change %.4g/%.4g/%.4g", quart(sa, n, .25), am, quart(sa, n, .75), quart(sb, n, .25), bm, quart(sb, n, .75)
		if (am != 0) printf "   median %+.1f %%", 100 * (bm - am) / am
		verdict = "no difference shown"
		if (wins >= .9 * n && sign * (am - bm) > iqr) verdict = "better"
		if (losses >= .9 * n && sign * (bm - am) > iqr) verdict = "worse"
		printf "\n  change wins %d/%d, loses %d: %s\n", wins, n, losses, verdict
	}
}' BENCHMARK.json
