#!/usr/bin/env bash
# bench.sh — the tracked end-to-end benchmark (make bench).
#
# For every workload BENCHMARK.json lists, runs perfbench $runs times at
# its run_seconds and keeps each end-to-end metric's median, quartiles,
# spread (interquartile range over median) and bound, then runs one traced
# seed-41 ledger. It writes the result to BENCH.json.new and gates it
# against the committed BENCH.json: a (workload, metric) pair is judged
# only when the baseline's and the fresh spread are both within the bound,
# and fails when its fresh median exceeds the baseline's by more than the
# bound. The traced ledger's simulated counts (the `exact` list below)
# must equal the baseline's exactly. Pass or fail, BENCH.json stays as it
# is, so the baseline never
# creeps up by a series of passes within the bound; a failure exits 1.
# Re-baseline deliberately with `mv BENCH.json.new BENCH.json`. With no
# BENCH.json yet, the fresh run becomes it. Run it from anywhere on an
# otherwise idle host.
set -euo pipefail
cd "$(dirname "$0")/.."

runs=5
seconds=$(jq -r .run_seconds BENCHMARK.json)

# The spread table's header row is skipped; every other row is one metric:
# name, unit, median, q1, q3, spread, bound.
table_json='[inputs | select(startswith("metric ") | not) | [splits(" +")]
  | {(.[0]): {unit: .[1], median: (.[2] | tonumber), q1: (.[3] | tonumber),
      q3: (.[4] | tonumber), spread: (.[5] | tonumber), bound: (.[6] | tonumber)}}] | add'

results='{}'
for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
  echo "bench: $w: $runs runs of ${seconds}s" >&2
  e2e=$(bash perfbench/run.sh --spread "$runs" --workload "$w" --seconds "$seconds" | jq -Rn "$table_json")
  echo "bench: $w: traced ledger, seed 41" >&2
  last=$(bash perfbench/run.sh --workload "$w" --seed 41 --seconds "$seconds" --trace 1 | tail -n 1)
  if ! jq -e '.correct and .failed == 0' <<<"$last" >/dev/null; then
    echo "bench: $w: the traced run failed: $last" >&2
    exit 1
  fi
  results=$(jq --arg w "$w" --argjson e "$e2e" --argjson l "$last" \
    '.[$w] = {end_to_end: $e, ledger: $l.metrics}' <<<"$results")
done

jq -n --arg rev "$(git describe --always --dirty 2>/dev/null || echo unknown)" \
  --arg ts "$(date -u +%Y-%m-%dT%H:%M:%SZ)" --arg go "$(go env GOVERSION)" \
  --argjson nproc "$(nproc)" --argjson runs "$runs" --argjson seconds "$seconds" \
  --argjson w "$results" \
  '{git_rev: $rev, timestamp: $ts, go_version: $go, nproc: $nproc,
    runs: $runs, seconds: $seconds, workloads: $w}' >BENCH.json.new

if [ ! -f BENCH.json ]; then
  mv BENCH.json.new BENCH.json
  echo "bench: no baseline; wrote BENCH.json" >&2
  exit 0
fi

# One verdict line per pair: ok, unresolved, FAIL, or new (not judged).
verdicts=$(jq -r --slurpfile base BENCH.json '
  ($base[0].workloads // {}) as $b
  | .workloads | to_entries[] | .key as $w
  | if $b[$w] == null then "new         \($w): not in the baseline, not judged"
    else .value.end_to_end | to_entries[] | .key as $m | .value as $n
      | $b[$w].end_to_end[$m] as $o
      | "\($w) \($m)" as $pair
      | if $o == null then "new         \($pair): not in the baseline, not judged"
        elif $o.spread > $n.bound or $n.spread > $n.bound then
          "unresolved  \($pair): spread \($o.spread) -> \($n.spread), bound \($n.bound)"
        else ($n.median / $o.median - 1) as $d
          | (if $d > $n.bound then "FAIL      " else "ok        " end)
            + "  \($pair): median \($o.median) -> \($n.median) \($n.unit)"
            + " (\($d * 1000 | round / 10)%, bound \($n.bound * 100)%)"
        end
    end' BENCH.json.new)

# The ledger's simulated counts come from each workload's fixed point
# set: they depend on neither seed nor host, so a tree that simulates
# the same machine reports them bit for bit. Any difference is a change
# in simulated behaviour, which a speed-up must not make.
exact='["sim.events", "sim.offchip_requests", "sim.remote_requests",
  "sim.makespan_cycles", "memctrl.mean_wait_cycles", "memctrl.row_hit_ratio",
  "memctrl.peak_utilization", "workload.refs"]'
verdicts+=$'\n'$(jq -r --slurpfile base BENCH.json --argjson exact "$exact" '
  ($base[0].workloads // {}) as $b
  | .workloads | to_entries[] | .key as $w | select($b[$w] != null)
  | .value.ledger as $l | $b[$w].ledger as $o
  | [$exact[] | select($o[.] != null)] as $judged
  | [$judged[] | select($l[.].value != $o[.].value)
      | "\(.) \($o[.].value) -> \($l[.].value)"] as $diff
  | if $diff == [] then "ok          \($w) ledger: \($judged | length) simulated counts identical"
    else "FAIL        \($w) ledger: \($diff | join(", ")); must be identical"
    end' BENCH.json.new)
echo "$verdicts"

if grep -q '^FAIL' <<<"$verdicts"; then
  echo "bench: a regression or a changed simulated count; fresh results in BENCH.json.new, BENCH.json untouched" >&2
  exit 1
fi
echo "bench: pass; fresh results in BENCH.json.new, BENCH.json untouched" >&2
echo "bench: to re-baseline: mv BENCH.json.new BENCH.json" >&2
