#!/usr/bin/env bash
# Compares what titancc prints at a git revision with the working tree's:
#
#   bash testdata/compare-dumps.sh <rev>
#
# For every program of the corpus (testdata/*.c) and of
# benchmark/programs/*.c, under each
# of -O0, the default options, -inline and -inline -vector -parallel, it
# runs `titancc -dump-after=all -S` (the IL at every pass boundary, then
# the scheduled assembly) with both builds and requires the two outputs
# to be byte-identical. titan.Func.Disassemble prints the labels that
# share an address in name order, but older revisions printed them in map
# order, so each run of consecutive label lines is sorted before the
# comparison; nothing else is normalized. It prints
# one line per differing run and a summary, and exits 1 if any run
# differs.
set -euo pipefail
rev=${1:?usage: compare-dumps.sh <rev>}
root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/old"
git -C "$root" archive "$rev" | tar -x -C "$work/old"
(cd "$work/old" && go build -o "$work/titancc.old" ./cmd/titancc)
(cd "$root" && go build -o "$work/titancc.new" ./cmd/titancc)

# sortlabels sorts each run of consecutive ".label:" lines.
sortlabels() {
	awk '/^\.[^ ]*:$/ { run[n++] = $0; next }
		{ flush(); print }
		END { flush() }
		function flush(  i, j, t) {
			for (i = 1; i < n; i++)
				for (j = i; j > 0 && run[j-1] > run[j]; j--) { t = run[j]; run[j] = run[j-1]; run[j-1] = t }
			for (i = 0; i < n; i++) print run[i]
			n = 0
		}'
}

optsets=("-O0" "" "-inline" "-inline -vector -parallel")
runs=0
diffs=0
cd "$root"
for prog in testdata/*.c benchmark/programs/*.c; do
	for opts in "${optsets[@]}"; do
		runs=$((runs + 1))
		# shellcheck disable=SC2086 # opts is a list of flags
		"$work/titancc.old" $opts -dump-after=all -S "$prog" 2>&1 | sortlabels >"$work/old.out" || true
		# shellcheck disable=SC2086
		"$work/titancc.new" $opts -dump-after=all -S "$prog" 2>&1 | sortlabels >"$work/new.out" || true
		if ! cmp -s "$work/old.out" "$work/new.out"; then
			diffs=$((diffs + 1))
			echo "DIFF $prog [${opts:-default}]"
		fi
	done
done
echo "runs: $runs, differing: $diffs"
[ "$diffs" -eq 0 ]
