#!/usr/bin/env bash
# Kill -9 crash/resume smoke test for the crash-consistent checkpoint
# protocol (CI's `chaos-smoke` job; also runnable locally).
#
# 1. Start a long `lbmib` run with periodic checkpointing and SIGKILL it
#    the moment a checkpoint file appears — so the kill can land
#    anywhere, including mid-save, which the temp-file + atomic-rename +
#    `.prev` rotation protocol must survive.
# 2. Resume from whatever survived on disk and advance to a fixed target
#    step.
# 3. Run the same simulation fresh and uninterrupted to the same target.
# 4. The two final checkpoints must be byte-identical: resume is bit-exact,
#    not merely approximately right.
#
# With `--supervise` (or SUPERVISE=1) both the killed run and the resumed
# run go through the self-healing supervisor, which then owns the periodic
# checkpoint commits and the rollback anchor — proving supervised runs
# survive kill -9 with the same byte-exactness as bare ones.
set -euo pipefail

cd "$(dirname "$0")/.."

SOLVER=${SOLVER:-cube}
THREADS=${THREADS:-4}
EVERY=${EVERY:-25}
BIN=${LBMIB_BIN:-target/release/lbmib}
SUPERVISE=${SUPERVISE:-0}
[ "${1:-}" = "--supervise" ] && SUPERVISE=1
SUP_FLAGS=()
if [ "$SUPERVISE" = 1 ]; then
    SUP_FLAGS=(--supervise --backoff-ms 1)
    echo "running the kill -9 smoke under --supervise"
fi

[ -x "$BIN" ] || cargo build --release --bin lbmib

DIR=$(mktemp -d)
BG=
trap '[ -n "$BG" ] && kill -9 "$BG" 2>/dev/null; rm -rf "$DIR"' EXIT

"$BIN" --preset quick --solver "$SOLVER" --threads "$THREADS" \
    --steps 100000000 --report-every "$EVERY" \
    --checkpoint-every "$EVERY" --checkpoint-path "$DIR/crash.ckpt" \
    ${SUP_FLAGS[@]+"${SUP_FLAGS[@]}"} \
    >"$DIR/crash.log" 2>&1 &
BG=$!

# Each save after the first renames crash.ckpt to crash.ckpt.prev and
# then the new file to crash.ckpt, so between the two renames only .prev
# exists; --resume falls back to it. Wait for either file, and decide
# once: a second look could land between the renames of a later save.
found=0
for _ in $(seq 1 600); do
    if [ -f "$DIR/crash.ckpt" ] || [ -f "$DIR/crash.ckpt.prev" ]; then
        found=1
        break
    fi
    kill -0 "$BG" 2>/dev/null || { echo "FAIL: run died early:"; cat "$DIR/crash.log"; exit 1; }
    sleep 0.1
done
[ "$found" = 1 ] || { echo "FAIL: no checkpoint appeared within 60s"; exit 1; }

kill -9 "$BG"
wait "$BG" 2>/dev/null || true
BG=

# A --steps 0 invocation just loads (with .prev fallback if the kill tore
# the primary) and reports where the surviving snapshot left us.
S=$("$BIN" --resume "$DIR/crash.ckpt" --steps 0 | sed -n 's/^resumed at step \([0-9]*\)$/\1/p')
[ -n "$S" ] || { echo "FAIL: could not parse the resumed step"; exit 1; }
T=$((S + 40))
echo "killed run survived at step $S; driving both runs to step $T"

"$BIN" --resume "$DIR/crash.ckpt" --solver "$SOLVER" --threads "$THREADS" \
    --steps 40 --report-every 40 --save "$DIR/final_resumed.ckpt" \
    ${SUP_FLAGS[@]+"${SUP_FLAGS[@]}"} >/dev/null

"$BIN" --preset quick --solver "$SOLVER" --threads "$THREADS" \
    --steps "$T" --report-every "$T" --save "$DIR/final_fresh.ckpt" >/dev/null

cmp "$DIR/final_resumed.ckpt" "$DIR/final_fresh.ckpt"
echo "OK: final state after kill -9 + resume is byte-identical to the uninterrupted run"
