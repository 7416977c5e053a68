#!/usr/bin/env bash
# journal_smoke.sh — crash-safety acceptance test for journaled runs.
#
# Usage: journal_smoke.sh resume   # diag-fault and diag-difftest campaigns
#        journal_smoke.sh explore  # a small diag-explore space
#
# For each tool: run an uninterrupted reference with -journal (its
# journal size tells us where "about half way" lands on disk), SIGKILL a
# second identical run once its journal passes that mark — no drain, no
# atexit flush, exactly the crash the journal exists for — then -resume
# at a different -parallel and require every output to be byte-identical
# to the reference. The explore mode then also checks determinism
# across -parallel values without a journal.
#
# If the victim finishes before the kill lands (fast machine), that is
# not a failure: resuming a complete journal is a pure replay and must
# still reproduce the outputs byte for byte.
set -eu

GO=${GO:-go}
MODE=${1:-}
WORK=$(mktemp -d /tmp/journal-smoke.XXXXXX)
trap 'rm -rf "$WORK"' EXIT

cd "$(dirname "$0")/.."

# journal_size FILE — byte size, 0 while the victim has not created it yet.
journal_size() {
    { wc -c < "$1"; } 2>/dev/null || echo 0
}

# kill_at_half PID JOURNAL HALF — SIGKILL once the journal reaches HALF
# bytes (or the process exits first).
kill_at_half() {
    local pid=$1 jour=$2 half=$3
    while kill -0 "$pid" 2>/dev/null; do
        if [ "$(journal_size "$jour")" -ge "$half" ]; then
            kill -9 "$pid" 2>/dev/null || true
            break
        fi
        sleep 0.01
    done
    wait "$pid" 2>/dev/null || true
}

# crash_resume RUN P_REF P_VICTIM P_RESUME EXT... — RUN is one of the
# run functions below, called as `RUN TAG JOURNAL PARALLEL [FLAGS...]`;
# it writes its outputs to $WORK/TAG.EXT. The reference runs at P_REF,
# the victim at P_VICTIM, the resume at P_RESUME; each EXT is compared.
crash_resume() {
    local run=$1 p_ref=$2 p_victim=$3 p_resume=$4 ext
    shift 4
    echo "=== $run: kill at ~50%, resume at -parallel $p_resume, compare ==="
    "$run" "$run-ref" "$WORK/$run-ref.journal" "$p_ref"
    local half=$(( $(journal_size "$WORK/$run-ref.journal") / 2 ))

    "$run" "$run-victim" "$WORK/$run.journal" "$p_victim" 2> "$WORK/$run-victim.err" &
    kill_at_half $! "$WORK/$run.journal" "$half"
    local got=$(journal_size "$WORK/$run.journal") ref=$(journal_size "$WORK/$run-ref.journal")
    echo "killed at $(( 100 * got / ref ))% ($got/$ref journal bytes)"

    "$run" "$run-resumed" "$WORK/$run.journal" "$p_resume" -resume
    for ext in "$@"; do
        cmp "$WORK/$run-ref.$ext" "$WORK/$run-resumed.$ext"
    done
    echo "$run: outputs byte-identical after SIGKILL + resume"
}

# Run functions: TAG JOURNAL PARALLEL [FLAGS...]. explore also takes an
# empty JOURNAL, to run without one.
fault() {
    "$WORK/diag-fault" -workload hotspot -n 120 -seed 42 -parallel "$3" \
        -journal "$2" "${@:4}" > "$WORK/$1.txt"
}

difftest() {
    "$WORK/diag-difftest" -seed 1 -n 150 -parallel "$3" \
        -journal "$2" "${@:4}" > "$WORK/$1.txt"
}

# -scale 16 makes each of the 8 evaluations long (tens of ms at
# -parallel 1) next to the 10 ms journal poll, so the kill lands near
# the half-way mark instead of after most of the space has finished.
SPACE='{"name":"smoke","isa":["RV32I"],"pes_per_cluster":[8,16],"clusters":[2,4],"l1d":{"sizes":[32768,65536]},"l2":{"sizes":[0]}}'
explore() {
    "$WORK/diag-explore" -space "$SPACE" -workloads pathfinder -scale 16 \
        -parallel "$3" ${2:+-journal "$2"} "${@:4}" \
        -frontier-out "$WORK/$1.csv" -o "$WORK/$1.txt" 2> "$WORK/$1.err"
}

case "$MODE" in
resume)
    $GO build -o "$WORK/diag-fault" ./cmd/diag-fault
    $GO build -o "$WORK/diag-difftest" ./cmd/diag-difftest
    crash_resume fault 4 4 2 txt
    crash_resume difftest 4 4 8 txt
    ;;
explore)
    $GO build -o "$WORK/diag-explore" ./cmd/diag-explore
    crash_resume explore 4 1 8 csv txt
    echo "=== explore: determinism across -parallel ==="
    explore explore-p2 "" 2
    cmp "$WORK/explore-ref.csv" "$WORK/explore-p2.csv"
    cmp "$WORK/explore-ref.txt" "$WORK/explore-p2.txt"
    echo "frontier byte-identical at -parallel 4 vs 2"
    ;;
*)
    echo "usage: $0 resume|explore" >&2
    exit 2
    ;;
esac

echo "$MODE journal smoke: OK"
