#!/usr/bin/env bash
# Regenerate BENCH_sim.json, the committed performance baseline.
#
# Seven benches feed it, all built in a Release (-O3) tree. The first
# four:
#  - bench_route_compute: compiled-table vs virtual-dispatch route
#    compute on the standard 8x8, 2-VC mesh plus one fixed
#    latency-sweep point with the table on and off. Exits non-zero on
#    a table/virtual mismatch or any table-path heap allocation.
#  - bench_cycle_rate: whole-sim-loop throughput (cycles/s and
#    flit-moves/s over exactly the measurement window, best of three
#    identical runs) with a global allocation hook proving the
#    steady-state loop performs zero heap allocations. Exits non-zero
#    on any steady-state allocation or a regression against the
#    previously committed baseline.
#  - bench_sched_mode: cycle- vs event-driven scheduler backends on a
#    16x16 mesh, gating the >=5x event-mode win at near-idle load and
#    a 10% cycle-mode regression bound at saturation.
#  - bench_protocol_deadlock: request–reply delivery vs reply-buffer
#    depth on a Dally-clean 4x4 mesh, gating the messageClasses=2
#    escape (>= 0.99 delivery, watchdog-clean) and the protocol
#    classification of every one-class wedge.
#
# A fifth bench, bench_shard_scaling, measures the sharded cycle
# backend at shards {1,2,4,8} on the 32x32 saturation point (speedup
# gates are enforced only on hosts with enough hardware threads; the
# bit-identity and determinism gates always are).
#
# A sixth, bench_sweep_engine, times the binary result store: warm
# start vs a legacy JSONL parse (>= 10x), all-hit sweep serving
# (>= 100k jobs/s), and the cost-ordered straggler-tail makespan
# (enforced only with >= 4 hardware threads; the bit-identity check
# between spec- and cost-ordered rows always runs).
#
# A seventh, bench_checker_scaling, times the verification side: Dally
# vs Mendlovic–Matias wall-clock per verdict across mesh, torus,
# dragonfly and full-mesh fabrics, plus the Section-2 turn-model space
# (65,536 combinations on a 4x4 2-VC mesh), and two within-run ratios
# of the state walk's source classes against one class per source. It
# exits non-zero when the checkers disagree, the pinned enumeration
# counts drift or a ratio misses its gate.
#
# The route bench writes the top-level JSON; the cycle, sched,
# protocol, shard, sweep, and checker benches' summaries are merged in
# as the `sim_loop`, `sched_mode`, `protocol`, `shard_scaling`,
# `sweep_engine`, and `checker` members.
# Any bench failing aborts the script, so a stale or regressed
# baseline can never be committed from a broken build.
#
# After the merge the script compares the fresh sim_loop rate against
# the PREVIOUS committed baseline and prints a loud warning when they
# drift more than 10% in either direction: the bench's own gate only
# fails on a >25% regression, so silent drift used to accumulate
# (489,829 committed vs 441,933 measured, pass:true). The warning is
# the cue to either find the slowdown or re-commit the refreshed
# figures — never to leave a baseline the host can no longer produce.
#
# Usage: scripts/perf_baseline.sh [build-dir]   (default: build-perf)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-perf}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)" \
    --target bench_route_compute bench_cycle_rate bench_sched_mode \
    bench_protocol_deadlock bench_shard_scaling bench_sweep_engine \
    bench_checker_scaling

EBDA_ROUTE_BENCH_JSON="BENCH_sim.json" \
    "$BUILD_DIR/bench/bench_route_compute"

# Gate the sim loop against the PREVIOUS committed baseline (if any),
# then merge its summary into the fresh BENCH_sim.json.
SIM_LOOP_JSON="$(mktemp)"
SCHED_MODE_JSON="$(mktemp)"
PROTOCOL_JSON="$(mktemp)"
SHARD_JSON="$(mktemp)"
SWEEP_JSON="$(mktemp)"
CHECKER_JSON="$(mktemp)"
PREV_BASELINE="$(mktemp)"
trap 'rm -f "$SIM_LOOP_JSON" "$SCHED_MODE_JSON" "$PROTOCOL_JSON" \
    "$SHARD_JSON" "$SWEEP_JSON" "$CHECKER_JSON" "$PREV_BASELINE"' EXIT
if git show HEAD:BENCH_sim.json > "$PREV_BASELINE" 2>/dev/null; then
    export EBDA_SIM_BASELINE_JSON="$PREV_BASELINE"
fi
EBDA_CYCLE_BENCH_JSON="$SIM_LOOP_JSON" \
    "$BUILD_DIR/bench/bench_cycle_rate"

# Scheduler backends: >=5x event win at idle, <=10% cycle regression
# at saturation (gated against the previous baseline's sched_mode), and
# faulted and request-reply runs at 1e-4 waking for < 1/4 of cycles.
EBDA_SCHED_BENCH_JSON="$SCHED_MODE_JSON" \
    "$BUILD_DIR/bench/bench_sched_mode"

# Protocol layer: delivery vs reply-buffer depth, wedge classification
# gate (the bench exits non-zero if the reply-class escape ever fails).
EBDA_PROTOCOL_BENCH_JSON="$PROTOCOL_JSON" \
    "$BUILD_DIR/bench/bench_protocol_deadlock"

# Sharded cycle backend: scaling curve at shards {1,2,4,8} on the
# 32x32 saturation point. Speedup gates self-skip (loudly) on hosts
# with too few hardware threads; bit-identity and determinism gates
# always run.
EBDA_SHARD_BENCH_JSON="$SHARD_JSON" \
    "$BUILD_DIR/bench/bench_shard_scaling"

# Sweep engine: warm-start and all-hit serving gates always run; the
# straggler-tail makespan gate self-skips (loudly) below 4 hardware
# threads, but spec- vs cost-ordered rows must stay byte-identical
# everywhere.
EBDA_SWEEP_ENGINE_JSON="$SWEEP_JSON" \
    "$BUILD_DIR/bench/bench_sweep_engine"

# Checkers: verdict wall-clock and the turn-model enumeration; the
# google-benchmark timings are skipped, the JSON summary is what lands.
EBDA_CHECKER_BENCH_JSON="$CHECKER_JSON" \
    "$BUILD_DIR/bench/bench_checker_scaling" --benchmark_filter=NONE

# Splice `"sim_loop"`, `"sched_mode"`, `"protocol"`, `"shard_scaling"`,
# `"sweep_engine"`, and `"checker"` onto the route bench's object, then
# diff the fresh sim_loop rate against the previous committed baseline:
# a drift beyond 10% in EITHER direction gets a loud warning, because
# the bench's own gate only fails on a >25% regression and anything
# inside that band silently rots the committed figure otherwise.
python3 - "$SIM_LOOP_JSON" "$SCHED_MODE_JSON" "$PROTOCOL_JSON" \
    "$SHARD_JSON" "$SWEEP_JSON" "$CHECKER_JSON" "$PREV_BASELINE" <<'EOF'
import json, os, sys
with open("BENCH_sim.json") as f:
    doc = json.load(f)
with open(sys.argv[1]) as f:
    doc["sim_loop"] = json.load(f)
with open(sys.argv[2]) as f:
    doc["sched_mode"] = json.load(f)
with open(sys.argv[3]) as f:
    doc["protocol"] = json.load(f)
with open(sys.argv[4]) as f:
    doc["shard_scaling"] = json.load(f)
with open(sys.argv[5]) as f:
    doc["sweep_engine"] = json.load(f)
with open(sys.argv[6]) as f:
    doc["checker"] = json.load(f)
with open("BENCH_sim.json", "w") as f:
    json.dump(doc, f, separators=(",", ":"))
    f.write("\n")

prev_path = sys.argv[7]
try:
    with open(prev_path) as f:
        prev = json.load(f).get("sim_loop", {}).get("cycles_per_sec", 0)
except (OSError, ValueError):
    prev = 0
fresh = doc["sim_loop"]["cycles_per_sec"]
if prev and fresh:
    drift = fresh / prev - 1.0
    if abs(drift) > 0.10:
        bar = "!" * 66
        print(bar, file=sys.stderr)
        print(f"!! WARNING: sim_loop drifted {drift:+.1%} from the "
              f"committed baseline", file=sys.stderr)
        print(f"!!   committed {prev:,.0f} cycles/s -> measured "
              f"{fresh:,.0f} cycles/s", file=sys.stderr)
        print("!!   BENCH_sim.json has been refreshed with the "
              "measured figure; commit it", file=sys.stderr)
        print("!!   only after confirming the change is expected "
              "(host or code, not noise).", file=sys.stderr)
        print(bar, file=sys.stderr)
    else:
        print(f"sim_loop drift vs committed baseline: {drift:+.1%} "
              f"(within 10%)", file=sys.stderr)
EOF

echo "wrote BENCH_sim.json"
