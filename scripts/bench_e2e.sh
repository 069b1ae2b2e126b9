#!/usr/bin/env bash
# bench_e2e.sh — one entry of BENCH_e2e.json, the end-to-end performance
# trajectory, from one paired table of scripts/bench_pair.sh.
#
#   scripts/bench_e2e.sh TABLE [OUT]
#
# TABLE is a results/prNN_bench_pair.json (bench_pair.sh's JSON=<path>) or a
# results/prNN_bench_pair.txt holding its markdown verdict table; from a .txt
# the first table with an end-to-end row is read. NN, from the file name, is
# the entry's PR. The entry holds the PR, the table's base and head revisions
# as the table names them, its pair count, and per workload × end-to-end metric
# of BENCHMARK.json both medians, Δ % and the verdict. It is written into OUT
# (default BENCH_e2e.json at the root), replacing an entry of the same PR, and
# the entries are kept in PR order.
#
# Both medians of an entry come from one session, which is all a comparison
# can rest on: the same code has read 54–72 % apart in two sessions on the
# same host (ROADMAP.md). So the trajectory is the chain of each entry's Δ %
# and verdicts, and a median is never compared with another entry's.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
table="${1:?usage: bench_e2e.sh TABLE [OUT]}"
out="${2:-$root/BENCH_e2e.json}"
pr="$(basename "$table" | sed -n 's/^pr\([0-9][0-9]*\)_.*/\1/p')"
[ -n "$pr" ] || { echo "bench_e2e.sh: $table: the file name must start with prNN_" >&2; exit 2; }

# The end-to-end metric names, from the manifest.
metrics="$(sed -n '/"end_to_end"/,/\]/p' "$root/BENCHMARK.json" | sed -n 's/.*"name": *"\([^"]*\)".*/\1/p' | jq -R . | jq -sc .)"

case "$table" in
*.json)
  entry="$(jq --argjson pr "$pr" --arg src "$table" --argjson metrics "$metrics" '{
    pr: $pr, source: $src, base: .base, head: .change, pairs: .pairs,
    rows: [.rows[] | select(.metric as $m | $metrics | index($m)) |
      {workload, metric, base_median: .base.median, head_median: .change.median, delta_pct, verdict}]
  }' "$table")"
  ;;
*)
  # One tab-separated line per row of the first end-to-end table, after a line
  # with the revisions and pairs of the "base X vs change Y, N alternating
  # pairs" heading above it.
  entry="$(awk -v metrics="$metrics" '
    function trim(s) { gsub(/^ +| +$/, "", s); return s }
    function median(s) { s = trim(s); sub(/ .*/, "", s); return s ~ /^[-0-9.e+]+$/ ? s : "null" }
    /^base [^ ]+ vs change [^ ]+, [0-9]+ alternating pairs/ {
      if (done) exit
      c = $5; sub(/,$/, "", c); head = c "\t" $2 "\t" $6
      next
    }
    /^\| / {
      n = split($0, f, "|")
      m = trim(f[3])
      if (index(metrics, "\"" m "\"") == 0) { if (done) exit; next }
      if (!done) print head
      done = 1
      d = trim(f[6])
      printf "%s\t%s\t%s\t%s\t%s\t%s\n", trim(f[2]), m, median(f[4]), median(f[5]), d == "" ? "null" : d + 0, trim(f[9])
      next
    }
    done && !/^\|/ { exit }
  ' "$table" | jq -R -s --argjson pr "$pr" --arg src "$table" '
    split("\n") | map(select(length > 0) | split("\t")) as $l |
    if ($l | length) == 0 then error("no end-to-end table in " + $src) else . end |
    {pr: $pr, source: $src, base: $l[0][1], head: $l[0][0], pairs: ($l[0][2] | tonumber),
     rows: [$l[1:][] | {workload: .[0], metric: .[1], base_median: (.[2] | fromjson),
       head_median: (.[3] | fromjson), delta_pct: (.[4] | fromjson), verdict: .[5]}]}
  ')"
  ;;
esac

[ -s "$out" ] || jq -n '{about: "One entry per PR, from one bench-pair table whose two sides ran in one session (scripts/bench_e2e.sh). Read the chain of Δ % and verdicts; never compare a median with another entry'"'"'s.", entries: []}' >"$out"
jq --argjson e "$entry" '.entries = ([.entries[] | select(.pr != $e.pr)] + [$e] | sort_by(.pr))' "$out" >"$out.tmp"
mv "$out.tmp" "$out"
echo "bench_e2e.sh: PR $pr, $(jq '.rows | length' <<<"$entry") rows from $table into $out" >&2
