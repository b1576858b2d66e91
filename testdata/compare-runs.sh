#!/usr/bin/env bash
# Compares the run rows of testdata/titan.golden.json at a git revision
# with the working tree's:
#
#   bash testdata/compare-runs.sh <rev>
#
# Every run row ("<program>/<options>/p<n>/<engine>") must be present in
# both and have the same exit_code, output, flops and globals (the digest
# of the final globals image): what a program computes may not move, only
# how fast. It prints each row's cycles and instrs before -> after, then the
# geometric mean of both per configuration ("<options>/p<n>/<engine>"),
# and exits 1 on any missing row or mismatch.
set -euo pipefail
rev=${1:?usage: compare-runs.sh <rev>}
dir=$(cd "$(dirname "$0")" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
git -C "$dir" show "$rev:./titan.golden.json" >"$work/old.json"
echo "comparing $rev:testdata/titan.golden.json with the working tree"

jq -rn --slurpfile old "$work/old.json" --slurpfile new "$dir/titan.golden.json" '
  def runs: with_entries(select(.value | type == "object"));
  def config: split("/") | .[-3:] | join("/");
  def same: {exit_code, output, flops, globals};
  def gm(f): if length == 0 then 0 else (map(f | log) | add / length | exp) end;
  ($old[0] | runs) as $o
  | ($new[0] | runs) as $n
  | [ (($o | keys) - ($n | keys) | .[] | "FAIL \(.): row missing from the working tree"),
      (($n | keys) - ($o | keys) | .[] | "FAIL \(.): row missing from the revision"),
      ($n | keys[] | select($o[.] != null) as $k
       | if ($n[$k] | same) != ($o[$k] | same)
         then "FAIL \($k): \($o[$k] | same | tojson) -> \($n[$k] | same | tojson)"
         else "\($k): cycles \($o[$k].cycles) -> \($n[$k].cycles), instrs \($o[$k].instrs) -> \($n[$k].instrs)" end) ]
  | .[],
    ([$n | keys[] | select($o[.] != null)] | group_by(config)[]
     | . as $ks
     | "geomean \($ks[0] | config): cycles \($ks | map($o[.]) | gm(.cycles) | . * 100 | round / 100) -> \($ks | map($n[.]) | gm(.cycles) | . * 100 | round / 100), instrs \($ks | map($o[.]) | gm(.instrs) | . * 100 | round / 100) -> \($ks | map($n[.]) | gm(.instrs) | . * 100 | round / 100) (\($ks | length) rows)"),
    (if any(.[]; startswith("FAIL")) then "RESULT: FAIL" else "RESULT: every row holds" end)
' | tee "$work/report"
! grep -q '^RESULT: FAIL' "$work/report"
