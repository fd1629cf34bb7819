#!/bin/sh
# Replay recorded ebda_tool invocations and diff them against the
# golden files in cli_golden/: each file holds the command's stdout
# followed by a final "[exit N]" line with its exit code. Stderr is not
# recorded, so diagnostics may be reworded freely.
#
#   cli_golden.sh TOOL            replay and diff every case
#   cli_golden.sh TOOL --record   rewrite the golden files from TOOL
#
# simulate prints the scheduling backend it resolved, so the replay
# runs with EBDA_SCHED_MODE unset.

tool=$1
mode=$2
dir=$(cd "$(dirname "$0")" && pwd)/cli_golden
unset EBDA_SCHED_MODE
failed=0

run_case() {
    name=$1
    shift
    actual=$("$tool" "$@" 2>/dev/null; echo "[exit $?]")
    if [ "$mode" = "--record" ]; then
        printf '%s\n' "$actual" > "$dir/$name.out"
    elif ! printf '%s\n' "$actual" | diff -u "$dir/$name.out" - ; then
        echo "MISMATCH: $name: ebda_tool $*"
        failed=1
    fi
}

S='{X+ X- Y-} -> {Y+}'
S2='{X1+ Y1+ Y1-} -> {X1- Y2+ Y2-}'

# Runtime commands, text and --json.
run_case simulate_text simulate --scheme "$S" --mesh 4x4 --rate 0.05 \
    --cycles 600
run_case simulate_json simulate --scheme "$S" --mesh 4x4 --rate 0.05 \
    --cycles 600 --json
run_case simulate_sharded simulate --scheme "$S" --mesh 4x4 --rate 0.2 \
    --cycles 400 --sched cycle --shards 2 --pattern transpose
run_case simulate_event_8x8 simulate --scheme "$S2" --rate 0.1 \
    --cycles 300 --sched event --watchdog 500 --recovery-passes 2 --json
run_case simulate_torus_vcs simulate --scheme "$S" --mesh 4x4 --vcs 1,2 \
    --torus --rate 0.05 --cycles 300 --json
run_case forensics_scheme_vcs forensics --scheme "$S" --vcs 2,2 \
    --cycles 300
run_case simulate_rejected simulate --scheme '{X+ X- Y+ Y-}'
run_case forensics_deadlock forensics --router minimal --torus \
    --mesh 4x4 --vcs 1,1 --rate 0.6 --cycles 4000 --watchdog 500
run_case forensics_scheme forensics --scheme "$S" --rate 0.1 --cycles 400
run_case faults_text faults --link-faults 2
run_case faults_json faults --link-faults 2 --json
run_case faults_event_json faults --mesh 8x8 --rate 0.001 --link-faults 1 \
    --node-faults 1 --json
run_case faults_events faults --events '100:link:0->1;200:node:5' \
    --cycles 1000 --pattern transpose
run_case protocol_wedge protocol --classes 1 --depth 1
run_case protocol_wedge_json protocol --classes 1 --depth 1 --json
run_case protocol_escape_json protocol --classes 2 --cycles 1000 --json

# Checkers and topology views.
run_case verify_mesh verify --scheme "$S" --mesh 6x6
run_case verify_torus verify --scheme "$S2" --torus --mesh 4x4
run_case verify_torus_northlast verify --scheme "$S" --torus --mesh 4x4
run_case verify_rejected verify --scheme '{X+ X- Y+ Y-}'
run_case topo_dragonfly topo --dragonfly 4,2,2
run_case topo_fullmesh topo --fullmesh 8
run_case topo_map topo --map 'A--B
|  |
C--D'
run_case topo_map_file topo --map-file "$dir/square.map" --router updown
run_case topo_mesh topo --mesh 4x4
run_case topo_torus topo --mesh 4x4 --torus --vcs 2,2
run_case turns turns --scheme "$S2"
run_case space space --dims 3

# Usage errors exit 2 (after the command's own output when the error
# is an option the command never read).
run_case usage_no_command
run_case usage_unknown_command frobnicate
run_case usage_bad_pattern simulate --scheme "$S" --pattern zigzag
run_case usage_bad_mesh simulate --scheme "$S" --mesh 4x
run_case usage_bad_rate simulate --scheme "$S" --rate fast
run_case usage_faults_without_faults faults --cycles 200
run_case usage_unread_option verify --scheme "$S" --mesh 4x4 --rate 0.1
run_case usage_bad_vcs design --vcs x

exit $failed
