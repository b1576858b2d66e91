#!/usr/bin/env bash
# Compares the tuner goldens of a git revision with the working tree's:
#
#   bash internal/tune/testdata/compare-decisions.sh <rev>
#
# For every search ("unit@processors") it requires the same schedules,
# default_cycles and tuned_cycles; every decision of the working tree's
# golden to be one of the revision's, identical in loop, schedule,
# default_cycles and cycles; and every decision the working tree drops to
# be a default-schedule decision that saved nothing. It prints the dropped
# decisions and the measured and simulated totals of both goldens, and
# exits 1 if any search breaks a rule.
set -euo pipefail
rev=${1:?usage: compare-decisions.sh <rev>}
dir=$(cd "$(dirname "$0")" && pwd)
rel=$(git -C "$dir" rev-parse --show-prefix)
old=$(mktemp -d)
trap 'rm -rf "$old"' EXIT
git -C "$dir" show "$rev:./decisions.golden.json" >"$old/decisions.json"
git -C "$dir" show "$rev:./simulated.golden.json" >"$old/simulated.json"
echo "comparing $rev:${rel}*.golden.json with the working tree"

jq -rn --slurpfile old "$old/decisions.json" --slurpfile new "$dir/decisions.golden.json" '
  def id: "\(.name)@\(.processors)";
  def key: "\(.loop.proc):\(.loop.line):\(.loop.col)";
  def byid: map({key: id, value: (.decisions //= [])}) | from_entries;
  def bykey: map({key: key, value: .}) | from_entries;
  def same: {loop, schedule, default_cycles, cycles};
  def check($id; $s; $t):
    (if $s.schedules != $t.schedules then "FAIL \($id): schedules differ" else empty end),
    (if $s.default_cycles != $t.default_cycles or $s.tuned_cycles != $t.tuned_cycles
     then "FAIL \($id): default/tuned cycles \($s.default_cycles)/\($s.tuned_cycles), were \($t.default_cycles)/\($t.tuned_cycles)"
     else empty end),
    (($t.decisions | bykey) as $td
     | $s.decisions[] | key as $k
     | if $td[$k] == null then "FAIL \($id) \($k): decision not in the revision"
       elif ($td[$k] | same) != same then "FAIL \($id) \($k): decision differs"
       else empty end),
    (($s.decisions | bykey) as $sd
     | $t.decisions[] | key as $k | select($sd[$k] == null)
     | if .schedule == {vl: 32, unroll: 1} and .default_cycles == .cycles
       then "dropped \($id) \($k): default schedule, \(.candidates) candidates"
       else "FAIL \($id) \($k): dropped a decision that chose \(.schedule)" end);
  ($old[0] | byid) as $o
  | ($new[0] | byid) as $n
  | [ (($o | keys) - ($n | keys) | .[] | "FAIL \(.): search missing from the working tree"),
      (($n | keys) - ($o | keys) | .[] | "FAIL \(.): search missing from the revision"),
      ($n | keys[] | select($o[.] != null) as $id | check($id; $n[$id]; $o[$id])) ]
  | .[],
    "searches: \($n | length) (revision \($o | length))",
    "decisions: \([$n[].decisions[]] | length) (revision \([$o[].decisions[]] | length))",
    "measured: \([$o[].measured] | add) -> \([$n[].measured] | add)",
    (if any(.[]; startswith("FAIL")) then "RESULT: FAIL" else "RESULT: every search holds" end)
' | tee "$old/report"
jq -rn --slurpfile old "$old/simulated.json" --slurpfile new "$dir/simulated.golden.json" \
  '"simulated: \([$old[0][]] | add) -> \([$new[0][]] | add)"'
! grep -q '^RESULT: FAIL' "$old/report"
