#!/bin/sh
# The defect gauntlet: which check catches which bug. Each patch under
# scripts/gauntlet/ re-applies one known defect (its first line says
# which): a byte count taken after the packet was pushed or handed off, a
# sort removed from a map-ordered result, FQ-CoDel's drop victim picked by
# a map scan, a read after Put, a double Put and a missing Put.
# (hhcache.Poll, once a map-ordered result too, walks bitmaps now, so it
# has no patch.) For each defect the script exports REV, applies the patch
# and runs three layers:
#
#   tier-1       go test over every package but internal/analysis and
#                cmd/cebinae-vet (the analyzers' own tests);
#   packetdebug  the same tests under -tags packetdebug (the poisoned pool);
#   cebinae-vet  go run ./cmd/cebinae-vet ./... (the static analyzers).
#
# A layer catches a defect when it reports a failure the unpatched tree
# does not: a failing test, a package that no longer builds, a panic, or
# an analyzer finding. The script prints one table row per defect naming
# what each layer reported ("-" for nothing new), and a patch that no
# longer applies at REV (its code is gone) says so.
#
#   scripts/gauntlet.sh [REV]       (or: make gauntlet [REV=…]; REV defaults to HEAD)
#
# REV is exported with `git archive` into .bench_build/gauntlet-<sha>
# (git-ignored), as scripts/ab.sh does, and every layer's output is kept
# beside it in .bench_build/gauntlet-<sha>.logs/. Unchanged packages hit
# the test cache, so a defect costs about a tier-1 run and a packetdebug
# run (≈ 1 min a defect, ≈ 13 min in all on a 2-core host).
set -eu

rev=${1:-HEAD}
root=$(git rev-parse --show-toplevel)
cd "$root"
sha=$(git rev-parse --short "$rev^{commit}")
tree=$root/.bench_build/gauntlet-$sha
logs=$tree.logs
rm -rf "$tree" "$logs"
mkdir -p "$tree" "$logs"
git archive "$sha" | tar -xf - -C "$tree"
cd "$tree"
pkgs=$(go list ./... | grep -v -e '/internal/analysis' -e '/cmd/cebinae-vet$')

# run LAYER LOG: run one layer over the tree as it stands, output to LOG.
run() {
	case $1 in
	tier-1) go test -timeout 10m $pkgs >"$2" 2>&1 ;;
	packetdebug) go test -tags packetdebug -timeout 10m $pkgs >"$2" 2>&1 ;;
	cebinae-vet) go run ./cmd/cebinae-vet ./... >"$2" 2>&1 ;;
	esac
}

# failures LOG: what a layer's log reports, one item a line, sorted: the
# top-level tests that failed, packages that did not build, "panic" when a
# test binary panicked, and each analyzer finding as "[analyzer] file:line".
failures() {
	{
		sed -n 's/^--- FAIL: \([^ ]*\).*/\1/p' "$1"
		sed -n 's/^FAIL[[:space:]]*\([^[:space:]]*\) \[build failed\].*/build failed: \1/p' "$1"
		grep -q '^panic: ' "$1" && echo panic
		sed -n "s|^$tree/\\([^:]*:[0-9]*\\):[0-9]*: \\(\\[[a-z-]*\\]\\).*|\\2 \\1|p" "$1"
	} | sort -u
}

# cell LAYER NAME: run LAYER, and print what it reports beyond the
# unpatched tree's baseline, comma-separated ("-" for nothing).
cell() {
	run "$1" "$logs/$2.$1.log" || true
	new=$(failures "$logs/$2.$1.log" | comm -13 "$logs/baseline.$1.list" -)
	if [ -z "$new" ]; then
		printf -- '-'
	else
		printf '%s' "$new" | paste -sd, - | sed 's/,/, /g'
	fi
}

for layer in tier-1 packetdebug cebinae-vet; do
	run $layer "$logs/baseline.$layer.log" || true
	failures "$logs/baseline.$layer.log" >"$logs/baseline.$layer.list"
done
echo "gauntlet at $sha; the unpatched tree already reports (subtracted below):"
for layer in tier-1 packetdebug cebinae-vet; do
	printf '  %s: %s\n' $layer "$(paste -sd, "$logs/baseline.$layer.list" | sed 's/,/, /g; s/^$/-/')"
done
echo
echo "| defect | tier-1 | packetdebug | cebinae-vet |"
echo "|---|---|---|---|"
for patch in "$root"/scripts/gauntlet/*.patch; do
	name=$(basename "$patch" .patch)
	if ! patch -s -p1 --dry-run <"$patch" >/dev/null 2>&1; then
		echo "| $name | the patch does not apply at $sha: its code is gone | | |"
		continue
	fi
	patch -s -p1 --no-backup-if-mismatch <"$patch"
	row="| $name"
	for layer in tier-1 packetdebug cebinae-vet; do
		row="$row | $(cell $layer "$name")"
	done
	echo "$row |"
	patch -s -p1 -R --no-backup-if-mismatch <"$patch"
done
