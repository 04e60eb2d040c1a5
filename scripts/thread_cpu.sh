#!/usr/bin/env bash
# Per-thread CPU of one rig run.
#
#   scripts/thread_cpu.sh <rig-binary> <workload> [seed]
#
# Starts one untraced run (`--seconds 10 --trace 0`, seed 3073 by default),
# waits for the engine's threads to appear, lets the oracle check and the
# two-second warm-up pass (LEAD seconds), and then reads
# /proc/<pid>/task/*/{comm,stat} twice, SPAN seconds apart. It prints, per
# thread name, the CPU share of one core over that interval (utime + stime
# ticks / (CLK_TCK * seconds)); threads sharing a name are summed. Run nothing
# else on the host meanwhile. The run is stopped once sampled; its output goes
# to a temporary directory that is removed.
#
# The engine's roles, as the kernel names them (it keeps 15 bytes):
#   cjoin-scan-w<i>   scan worker i
#   cjoin-distribut   every Distributor shard, summed: each runs the Filter
#                     chain and aggregates its own lane
#   cjoin-superviso   the supervisor (failures, deadlines, Filter reordering)
# There is no Stage and no manager thread. The rig's own threads (client
# drivers, the server) appear under their own names.
set -euo pipefail

if [[ $# -lt 2 ]]; then
    echo "usage: $0 <rig-binary> <workload> [seed]" >&2
    exit 64
fi
rig=$1
workload=$2
seed=${3:-3073}
readonly LEAD=5 SPAN=4

out=$(mktemp -d)
"$rig" --workload "$workload" --seed "$seed" --seconds 10 --trace 0 --out "$out" \
    >/dev/null 2>&1 &
pid=$!
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$out"' EXIT

# One line per live thread: "<tid> <comm> <utime+stime ticks>". The comm field
# of stat is parenthesised and may hold spaces, so fields are counted after it.
sample() {
    local task comm rest
    for task in /proc/"$pid"/task/*; do
        comm=$(cat "$task/comm" 2>/dev/null) || continue
        rest=$(cat "$task/stat" 2>/dev/null) || continue
        rest=${rest##*) }
        # shellcheck disable=SC2086
        set -- $rest
        echo "${task##*/} ${comm// /_} $((${12} + ${13}))"
    done
}

# The engine's supervisor thread; the kernel keeps 15 bytes of a thread name.
until grep -qsx 'cjoin-superviso' /proc/"$pid"/task/*/comm; do
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "rig exited before the engine started" >&2
        exit 1
    fi
    sleep 0.1
done
sleep "$LEAD"

before=$(sample)
t0=$(date +%s.%N)
sleep "$SPAN"
after=$(sample)
t1=$(date +%s.%N)

echo "# $workload seed $seed: share of one core, ${LEAD}s to $((LEAD + SPAN))s after engine start"
awk -v hz="$(getconf CLK_TCK)" -v t0="$t0" -v t1="$t1" '
    BEGIN { secs = t1 - t0 }
    NR == FNR { start[$1] = $3; next }
    ($1 in start) { used[$2] += $3 - start[$1] }
    END {
        for (name in used) printf "%-18s %6.1f %%\n", name, 100 * used[name] / (hz * secs)
    }
' <(echo "$before") <(echo "$after") | sort -k2 -rn
