#!/usr/bin/env bash
# Runs the deterministic programs of two build trees and diffs their stdout.
#
# Usage:
#   tools/compare_stdout.sh OLD_BUILD NEW_BUILD
#
# OLD_BUILD and NEW_BUILD are CMake build directories with benches and
# examples built (the default). Each program runs once from each tree with
# the same arguments; stderr is not compared. Three lines that change from
# run to run are masked before the diff:
#   * trace_replay's "wrote N packets to PATH" line (its trace file lives
#     under each build tree), down to the packet count;
#   * fleet_coordinator's "trace <id>:" line, whose id is random;
#   * the rlir_stage_ns samples of `fleet_top --prom`, which are timings.
#
# Prints one verdict per program ("same" or "DIFFERS", the latter followed
# by a unified diff, old first) and exits non-zero if any program's output
# differs, is missing, or the program exits non-zero.
set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 OLD_BUILD NEW_BUILD" >&2
  exit 2
fi
old=$(cd "$1" && pwd) || exit 2
new=$(cd "$2" && pwd) || exit 2

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# name | binary (relative to the build tree) | arguments
programs=(
  "fig4a_mean_random|bench/bench_fig4a_mean_random|"
  "fig4b_stddev_random|bench/bench_fig4b_stddev_random|"
  "fig4c_bursty_vs_random|bench/bench_fig4c_bursty_vs_random|"
  "fig5_loss_interference|bench/bench_fig5_loss_interference|"
  "ablation_demux|bench/bench_ablation_demux|"
  "ablation_estimators|bench/bench_ablation_estimators|"
  "ablation_sync_error|bench/bench_ablation_sync_error|"
  "table_placement|bench/bench_table_placement|"
  "table_trace_stats|bench/bench_table_trace_stats|"
  "quickstart|examples/quickstart|"
  "cross_traffic_study|examples/cross_traffic_study|"
  "fattree_localization|examples/fattree_localization|"
  "fleet_query|examples/fleet_query|"
  "placement_planner|examples/placement_planner|"
  "remote_fleet_query|examples/remote_fleet_query|"
  "fleet_coordinator|examples/fleet_coordinator|"
  "fleet_top_prom|examples/fleet_top|--prom"
  "trace_replay|examples/trace_replay|@BUILD@/compare_stdout_trace.bin"
)

# Masks the known volatile lines of one program's stdout.
mask() {
  case "$1" in
    trace_replay) sed -E 's|^(wrote [0-9]+ packets to ).*|\1<path>|' ;;
    fleet_coordinator) sed -E 's|^trace [0-9a-f]+:|trace <id>:|' ;;
    fleet_top_prom) grep -v '^rlir_stage_ns' ;;
    *) cat ;;
  esac
}

# Runs one program from one build tree; its masked stdout goes to $4.
run() {
  local build=$1 binary=$2 args=$3 out=$4 name=$5
  if [ ! -x "$build/$binary" ]; then
    echo "missing: $build/$binary" >"$out"
    return 1
  fi
  local -a argv=()
  [ -n "$args" ] && read -r -a argv <<<"${args//@BUILD@/$build}"
  "$build/$binary" "${argv[@]}" 2>/dev/null | mask "$name" >"$out"
  return "${PIPESTATUS[0]}"
}

failed=0
for entry in "${programs[@]}"; do
  IFS='|' read -r name binary args <<<"$entry"
  run "$old" "$binary" "$args" "$work/$name.old" "$name"
  old_status=$?
  run "$new" "$binary" "$args" "$work/$name.new" "$name"
  new_status=$?
  if [ "$old_status" -ne 0 ] || [ "$new_status" -ne 0 ]; then
    printf '%-24s FAILED (exit old %d, new %d)\n' "$name" "$old_status" "$new_status"
    failed=1
  elif diff -q "$work/$name.old" "$work/$name.new" >/dev/null; then
    printf '%-24s same\n' "$name"
    continue
  else
    printf '%-24s DIFFERS\n' "$name"
    failed=1
  fi
  diff -u --label "old/$name" --label "new/$name" "$work/$name.old" "$work/$name.new"
done
exit "$failed"
