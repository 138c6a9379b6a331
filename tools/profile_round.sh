#!/usr/bin/env bash
# Cache profile of the probe hot path (DESIGN.md §17).
#
# Runs one full Verfploeter round (`vpctl gen --probe`) at 120k, 1.3M and
# 6.4M /24 blocks under `perf stat -e cache-misses,LLC-load-misses` and
# prints a per-scale table, so the effect of the block-ordered probe runs
# and the SoA reply rows shows up as counter deltas instead of vibes.
# Containers without perf (or without perf_event_paranoid access) fall
# back to `/usr/bin/time -v`, which still reports wall time and page
# faults. Compare a before/after pair by running the script on both
# builds:
#
#   tools/profile_round.sh build-release/cli/vpctl > /tmp/after.txt
#
# The 6.4M run generates the paper-scale topology in-process; its peak
# RSS is about 1.2 GB. Trim SCALES for a quick look.
set -u

VPCTL="${1:-build-release/cli/vpctl}"
SCALES="${SCALES:-120000 1300000 6400000}"
EVENTS="cache-misses,LLC-load-misses"

if [[ ! -x "$VPCTL" ]]; then
  echo "error: vpctl not found at '$VPCTL'" >&2
  echo "usage: $0 [path/to/vpctl]   (build the Release tree first)" >&2
  exit 2
fi

profiler=wall
if command -v perf >/dev/null 2>&1 &&
   perf stat -e cache-misses true >/dev/null 2>&1; then
  profiler=perf
elif [[ -x /usr/bin/time ]]; then
  profiler=gnutime
fi

echo "probe-round cache profile: $VPCTL"
case "$profiler" in
  perf)
    echo "profiler: perf stat -e $EVENTS"
    printf '%-10s %14s %16s %12s\n' \
      "blocks" "cache-misses" "LLC-load-misses" "elapsed_s"
    ;;
  gnutime)
    echo "profiler: /usr/bin/time -v (perf unavailable — counters limited" \
         "to faults + wall time)"
    printf '%-10s %14s %16s %12s\n' \
      "blocks" "major_faults" "minor_faults" "elapsed_s"
    ;;
  wall)
    echo "profiler: wall clock only (neither perf nor /usr/bin/time found)"
    printf '%-10s %12s\n' "blocks" "elapsed_s"
    ;;
esac

for blocks in $SCALES; do
  # 13 blocks per AS mirrors bench_scale_sweep's paper-like allocation.
  ases=$((blocks / 13))
  cmd=("$VPCTL" gen --gen-ases "$ases" --gen-blocks "$blocks" --probe)
  log="$(mktemp)"
  case "$profiler" in
    perf)
      perf stat -e "$EVENTS" -x, -o "$log" -- "${cmd[@]}" >/dev/null 2>&1
      status=$?
      # perf -x, CSV: value,unit,event,... ; elapsed appears as
      # "<nanoseconds>,,duration_time" on recent perf; fall back to "-".
      misses=$(awk -F, '$3 == "cache-misses" {print $1}' "$log")
      llc=$(awk -F, '$3 == "LLC-load-misses" {print $1}' "$log")
      secs=$(awk -F, '$3 == "duration_time" {printf "%.2f", $1 / 1e9}' "$log")
      printf '%-10s %14s %16s %12s\n' \
        "$blocks" "${misses:--}" "${llc:--}" "${secs:--}"
      ;;
    gnutime)
      /usr/bin/time -v "${cmd[@]}" >/dev/null 2>"$log"
      status=$?
      major=$(awk -F: '/Major .*page faults/ {gsub(/ /,"",$2); print $2}' "$log")
      minor=$(awk -F: '/Minor .*page faults/ {gsub(/ /,"",$2); print $2}' "$log")
      secs=$(awk -F'): ' '/Elapsed \(wall clock\)/ {print $2}' "$log")
      printf '%-10s %14s %16s %12s\n' \
        "$blocks" "${major:--}" "${minor:--}" "${secs:--}"
      ;;
    wall)
      start=$(date +%s.%N)
      "${cmd[@]}" >/dev/null 2>"$log"
      status=$?
      secs=$(awk -v a="$start" -v b="$(date +%s.%N)" \
               'BEGIN {printf "%.2f", b - a}')
      printf '%-10s %12s\n' "$blocks" "$secs"
      ;;
  esac
  rm -f "$log"
  if [[ $status -ne 0 ]]; then
    echo "warning: run at $blocks blocks exited with status $status" >&2
  fi
done
