#!/usr/bin/env bash
# Seeded must-fail legs: run every workload with one expected value
# corrupted (a one-shot digest, an interpreter result, a confirmation's
# return value) and require the checker to fire: exit 1 and "correct": false.
# Run from the repository root:  bash perfbench/must_fail.sh
set -uo pipefail
status=0
for w in serve-cold-summary serve-warm-fetch fig5-run attack-dse; do
  out=$(bash perfbench/run.sh --workload "$w" --seed 7 --seconds 1 --trace 0 --must-fail)
  rc=$?
  if [ "$rc" -eq 1 ] && tail -n 1 <<<"$out" | grep -q '"correct": false'; then
    echo "must-fail $w: checker fired ($(grep -m1 'FAILED' <<<"$out" | sed 's/^ *//'))"
  else
    echo "must-fail $w: checker did NOT fire (exit $rc)"
    status=1
  fi
done
exit $status
