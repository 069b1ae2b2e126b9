#!/usr/bin/env bash
# bench_pair.sh — paired runs of the end-to-end benchmark (benchmark/, see
# BENCHMARK.json), or with MICRO=1 of internal/core's delegation
# micro-benchmarks: a base revision against this working tree. Single runs of
# the benchmark differ by 5–10 % on their own and the build host drifts
# between a fast and a slow state for minutes at a time, so a before/after
# taken once proves nothing; this is the comparison PRs 12 and 14 ran by hand.
#
#   scripts/bench_pair.sh BASE [WORKLOAD|all] [PAIRS] [SECONDS]
#   make bench-pair BASE=<rev> [WORKLOAD=<name>] [PAIRS=10] [SECONDS=18] [JSON=<path>]
#   make bench-pair BASE=<rev> MICRO=1 [PAIRS=10] [JSON=<path>]
#
# BASE is cloned (git clone, not a worktree) into a mktemp directory that is
# removed on exit, both benchmark binaries are built once the way
# benchmark/run.sh builds them, and then pair i runs every workload on both
# sides with seed i, back to back, the side that goes first alternating from
# pair to pair. The report has one row per workload × end-to-end metric of
# BENCHMARK.json: each side's median and quartiles, the change's Δ % against
# the base median, the pairs the change won (ties count for neither side), the
# base's inter-quartile distance as a share of its median, and the verdict of
# the choosing-metrics rule —
#
#   gain        the change won ≥ 9/10 of the pairs and its median is better
#               by more than the base's inter-quartile distance
#   worse       the mirror image
#   unresolved  anything else: report it as that, not as "unchanged"
#
# — with " >bound" appended when the change's median is worse by more than the
# metric's bound. Every run's values follow the table. Failed operations are
# totalled per side, and every run whose last line does not say "correct":true
# is listed; either makes the exit status 1. Nothing is gated on the verdicts.
# With JSON=<path> set, the table is also written to that file as JSON: the
# two revisions, the pair count, and one object per row with each side's
# median and quartiles, Δ %, wins, the base's inter-quartile distance as a
# share of its median, and the verdict (null figures for a row with no
# complete pair).
#
# MICRO=1 runs the same loop and the same table over the ring tier instead:
# both sides' internal/core test binaries are built once, a run is
# `-bench 'BenchmarkDelegation|BenchmarkIdle|BenchmarkServePass' -benchmem`
# (1 s per benchmark, about 40 s per run), a row is one benchmark, the metric
# is ns/op (no bound is declared for it, so nothing is flagged >bound), and
# every benchmark that allocates on the change but not on the base is listed —
# except the IdleCPUBurn rows, whose B/op is the whole process's mallocs over
# a sleep window (one new OS thread lifts it); TestIdleAllocPins holds both of
# their loops at 0 allocations instead. A second table gives each row's
# path per operation, the median over the pairs of what its benchmark reports
# as remote/op (ring sends) and inline/op (operations run on their sender
# toward another locality), so a row that never crosses a ring shows it; a
# side whose benchmarks do not report them reads "-".
# MICRO=1 is a gate, which `make bench-gate` runs: a row resolved worse or a
# row whose B/op left 0 makes the exit status 1. WORKLOAD and SECONDS are not
# used.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
base="${1:?usage: bench_pair.sh BASE [WORKLOAD|all] [PAIRS] [SECONDS]}"
workload="${2:-all}"
pairs="${3:-10}"
seconds="${4:-18}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# The manifest names the workloads, and each end-to-end metric's direction
# and bound; one object per line, as BENCHMARK.json is written.
field() { sed -n "s/.*\"$1\": *\"\{0,1\}\([^\",}]*\).*/\1/p"; }
micro="${MICRO:-}"
if [ -n "$micro" ]; then
  workloads=micro # one run covers every row; the rows are read off its output
  echo "ns/op lower 1e9" >"$tmp/metrics"
  per="internal/core micro-benchmarks, -benchtime 1s"
else
  workloads="$workload"
  [ "$workload" != all ] || workloads="$(sed -n '/"workloads"/,/\]/p' "$root/BENCHMARK.json" | field name)"
  sed -n '/"end_to_end"/,/\]/p' "$root/BENCHMARK.json" | grep '"name"' |
    while read -r line; do
      echo "$(field name <<<"$line") $(field better <<<"$line") $(field bound <<<"$line")"
    done >"$tmp/metrics"
  per="-seconds $seconds, seed i for pair i"
fi

git clone -q "$root" "$tmp/base"
git -C "$tmp/base" checkout -q --detach "$base"
base_rev="$(git -C "$tmp/base" rev-parse --short HEAD)"
change_rev="$(git -C "$root" rev-parse --short HEAD)"
[ -z "$(git -C "$root" status --porcelain)" ] || change_rev="$change_rev+uncommitted"

declare -A dir=([base]="$tmp/base" [change]="$root")

# benchmark/run.sh's build (MICRO: the core test binary), once per side.
for side in base change; do
  if [ -n "$micro" ]; then
    (cd "${dir[$side]}/internal/core" && go test -c -o "$tmp/$side.bin" .)
  else
    (cd "${dir[$side]}/benchmark" &&
      GOCACHE="$tmp/go-cache" XDG_CONFIG_HOME="$tmp/config" GOTOOLCHAIN=local go build -o "$tmp/$side.bin" .)
  fi
done

# run_micro SIDE _ PAIR — one pass over the micro-benchmarks; every result line
# is a row's value, and a non-zero B/op outside IdleCPUBurn is noted for the
# allocation check.
run_micro() {
  (cd "${dir[$1]}/internal/core" && "$tmp/$1.bin" -test.run '^$' -test.benchmem -test.timeout 20m \
    -test.bench 'BenchmarkDelegation|BenchmarkIdle|BenchmarkServePass') 2>&1 |
    awk -v side="$1" -v pair="$3" -v allocs="$tmp/allocs" -v paths="$tmp/paths" '/^Benchmark.* ns\/op/ {
      row = $1; sub(/^Benchmark/, "", row); sub(/-[0-9]+$/, "", row)
      for (i = 2; i < NF; i++) {
        if ($(i + 1) == "ns/op") print row, "ns/op", pair, side, $i
        if ($(i + 1) == "B/op" && $i > 0 && row !~ /^IdleCPUBurn\//) print side, row >>allocs
        if ($(i + 1) == "remote/op" || $(i + 1) == "inline/op") print row, $(i + 1), side, $i >>paths
      }
    }' >>"$tmp/values"
}

# run SIDE WORKLOAD PAIR — one untraced run; its last line is the result.
run() {
  local log="$tmp/$1.$2.$3.log" last
  (cd "${dir[$1]}/benchmark" && "$tmp/$1.bin" -workload "$2" -seed "$3" -seconds "$seconds" -trace 0) >"$log" 2>&1 || true
  last="$(tail -n 1 "$log")"
  case "$last" in
  *'"correct":true'*) ;;
  *) echo "$1 $2 seed $3: $last" >>"$tmp/incorrect" ;;
  esac
  echo "$1 $(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' <<<"$last")" >>"$tmp/failed"
  while read -r m _; do
    echo "$2 $m $3 $1 $(sed -n "s/.*\"$m\":{\"value\":\([^,}]*\).*/\1/p" <<<"$last")"
  done <"$tmp/metrics" >>"$tmp/values"
}

echo "bench-pair: base $base_rev vs change $change_rev; $pairs alternating pairs, $per" >&2
: >"$tmp/incorrect" >"$tmp/failed" >"$tmp/values" >"$tmp/allocs" >"$tmp/worse" >"$tmp/paths"
for i in $(seq 1 "$pairs"); do
  order="base change"
  [ $((i % 2)) -eq 1 ] || order="change base"
  for w in $workloads; do
    for side in $order; do
      "run${micro:+_micro}" "$side" "$w" "$i"
    done
    echo "bench-pair: pair $i $w done" >&2
  done
done

# MICRO: the rows of the table are the benchmarks the runs reported.
[ -z "$micro" ] || workloads="$(awk '!seen[$1]++ { print $1 }' "$tmp/values")"

echo "base $base_rev vs change $change_rev, $pairs alternating pairs, $per"
echo
echo "| workload | metric | base median [q1, q3] | change median [q1, q3] | Δ % | wins | base IQR % | verdict |"
echo "|---|---|---|---|---|---|---|---|"
awk -v workloads="$workloads" -v worse="$tmp/worse" -v json="${JSON:-}" \
  -v base_rev="$base_rev" -v change_rev="$change_rev" -v per="$per" '
# quartile of the sorted values v[1..n] at share p, interpolating linearly
function q(v, n, p,    h, lo) {
  h = (n - 1) * p + 1; lo = int(h)
  return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
}
function sorted(src, n, dst,    i, j, t) {
  for (i = 1; i <= n; i++) dst[i] = src[i]
  for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
}
function num(x) { return x >= 1000 ? sprintf("%.0f", x) : sprintf("%.4g", x) }
function jside(m, q1, q3) { return sprintf("{\"median\": %.6g, \"q1\": %.6g, \"q3\": %.6g}", m, q1, q3) }
function jrow(w, m, rest) { rows = rows (rows == "" ? "" : ",\n") sprintf("    {\"workload\": \"%s\", \"metric\": \"%s\", %s}", w, m, rest) }
FILENAME == ARGV[1] { order[++nm] = $1; better[$1] = $2; bound[$1] = $3; next }
$5 != "" { val[$1, $2, $3, $4] = $5; if ($3 > pairs) pairs = $3 }
END {
  nw = split(workloads, ws, " ")
  for (wi = 1; wi <= nw; wi++) for (mi = 1; mi <= nm; mi++) {
    w = ws[wi]; m = order[mi]; n = wins = losses = 0
    for (i = 1; i <= pairs; i++) {
      if (!((w, m, i, "base") in val) || !((w, m, i, "change") in val)) continue
      b[++n] = val[w, m, i, "base"]; c[n] = val[w, m, i, "change"]
      d = better[m] == "higher" ? c[n] - b[n] : b[n] - c[n]
      if (d > 0) wins++; else if (d < 0) losses++
    }
    if (n == 0) {
      printf "| %s | %s | no complete pair | | | | | unresolved |\n", w, m
      jrow(w, m, "\"base\": null, \"change\": null, \"delta_pct\": null, \"wins\": 0, \"pairs\": 0, \"base_iqr_pct\": null, \"verdict\": \"unresolved\"")
      continue
    }
    sorted(b, n, sb); sorted(c, n, sc)
    bm = q(sb, n, .5); cm = q(sc, n, .5); iqr = q(sb, n, .75) - q(sb, n, .25)
    gain = better[m] == "higher" ? cm - bm : bm - cm
    verdict = "unresolved"
    if (wins >= .9 * n && gain > iqr) verdict = "gain"
    if (losses >= .9 * n && -gain > iqr) { verdict = "worse"; print "  " w " " m >worse }
    if (-gain > bound[m] * bm) verdict = verdict " >bound"
    printf "| %s | %s | %s [%s, %s] | %s [%s, %s] | %+.1f | %d/%d | %.1f | %s |\n", w, m,
      num(bm), num(q(sb, n, .25)), num(q(sb, n, .75)), num(cm), num(q(sc, n, .25)), num(q(sc, n, .75)),
      100 * (cm - bm) / bm, wins, n, 100 * iqr / bm, verdict
    jrow(w, m, sprintf("\"base\": %s, \"change\": %s, \"delta_pct\": %.4g, \"wins\": %d, \"pairs\": %d, \"base_iqr_pct\": %.4g, \"verdict\": \"%s\"",
      jside(bm, q(sb, n, .25), q(sb, n, .75)), jside(cm, q(sc, n, .25), q(sc, n, .75)), 100 * (cm - bm) / bm, wins, n, 100 * iqr / bm, verdict))
  }
  if (json != "") {
    printf "{\n  \"base\": \"%s\",\n  \"change\": \"%s\",\n  \"pairs\": %d,\n  \"runs\": \"%s\",\n  \"rows\": [\n%s\n  ]\n}\n", base_rev, change_rev, pairs, per, rows >json
  }
  print "\nevery run, pair 1 -> " pairs
  for (wi = 1; wi <= nw; wi++) for (mi = 1; mi <= nm; mi++) for (si = 1; si <= 2; si++) {
    side = si == 1 ? "base" : "change"
    printf "%-16s %-10s %-6s", ws[wi], order[mi], side
    for (i = 1; i <= pairs; i++) printf " %s", ((ws[wi], order[mi], i, side) in val) ? num(val[ws[wi], order[mi], i, side]) : "-"
    print ""
  }
}' "$tmp/metrics" "$tmp/values"

echo
if [ -n "$micro" ]; then
  echo "path per operation, median over the pairs (- where a side does not report it):"
  echo
  echo "| row | remote/op base | remote/op change | inline/op base | inline/op change |"
  echo "|---|---|---|---|---|"
  awk -v rows="$workloads" '
    function med(s,    a, n, i, j, t) {
      n = split(s, a, " ")
      if (n == 0) return "-"
      for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] + 0 > t + 0; j--) a[j + 1] = a[j]; a[j + 1] = t }
      return sprintf("%.4g", n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2)
    }
    { v[$1, $2, $3] = v[$1, $2, $3] " " $4 }
    END {
      n = split(rows, r, " ")
      for (i = 1; i <= n; i++)
        printf "| %s | %s | %s | %s | %s |\n", r[i], med(v[r[i], "remote/op", "base"]), med(v[r[i], "remote/op", "change"]),
          med(v[r[i], "inline/op", "base"]), med(v[r[i], "inline/op", "change"])
    }' "$tmp/paths"
  echo
  # A row whose B/op left 0: it allocates on the change and never did on the base.
  left="$(awk '$1 == "base" { base[$2] } $1 == "change" { change[$2] } END { for (r in change) if (!(r in base)) print "  " r }' "$tmp/allocs")"
  status=0
  if [ -n "$left" ]; then
    echo "rows whose B/op left 0:"
    echo "$left"
    status=1
  else
    echo "no row's B/op left 0"
  fi
  if [ -s "$tmp/worse" ]; then
    echo "rows resolved worse:"
    cat "$tmp/worse"
    status=1
  else
    echo "no row resolved worse"
  fi
  exit "$status"
fi
awk '{ n[$1] += $2 } END { printf "failed operations: base %d, change %d\n", n["base"], n["change"] }' "$tmp/failed"
if [ -s "$tmp/incorrect" ]; then
  echo "runs whose last line is not \"correct\":true:"
  sed 's/^/  /' "$tmp/incorrect"
else
  echo "every run ended in \"correct\":true"
fi
! [ -s "$tmp/incorrect" ] && awk '{ n += $2 } END { exit n > 0 }' "$tmp/failed"
