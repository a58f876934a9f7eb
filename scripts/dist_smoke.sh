#!/usr/bin/env bash
# Distributed training smoke test: train the same `.vbin` cache image
# twice through a real `veroctl` — once on the single-process simulation,
# once as three OS processes meshed over loopback TCP — and require the
# two model files to be byte-identical, for `-system vero` (QD4) and for
# `-system lightgbm` (QD2, histogram reduce-scatter). Also asserts each
# distributed run reports its measured payload equal to the alpha-beta
# model's accounted volume, that an armed `cluster.tcp.write` failpoint
# aborts training at a tree boundary instead of hanging or writing a
# model, and that a deployment killed mid-run resumes from checkpoints.
# Run from the repo root; used by CI and reproducible locally with
# `bash scripts/dist_smoke.sh`.
set -euo pipefail

DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

TRAIN_ARGS=(-data "$DIR/train.vbin" -classes 2 -trees 12 -layers 5 -system vero)

fail() { echo "FAIL: $1"; shift; for f in "$@"; do echo "--- $f:"; cat "$f"; done; exit 1; }

echo "== build"
go build -o "$DIR/veroctl" ./cmd/veroctl
go build -o "$DIR/datagen" ./cmd/datagen

echo "== generate a .vbin cache image"
"$DIR/datagen" -n 20000 -d 300 -c 2 -density 0.3 -informative 0.3 \
  -format vbin -out "$DIR/train.vbin"

# three_ranks SYSTEM trains SYSTEM on the simulation with 3 workers and
# as a 3-rank loopback deployment, and requires byte-identical models and
# measured payload equal to the accounted volume.
three_ranks() {
  local sys="$1" args=("${TRAIN_ARGS[@]}" -system "$1") # the last -system wins
  echo "== $sys: single-process simulated reference run (3 workers)"
  "$DIR/veroctl" train "${args[@]}" -workers 3 -model "$DIR/sim-$sys.json" >"$DIR/sim-$sys.log" \
    || fail "simulated run failed" "$DIR/sim-$sys.log"

  local base=$(( (RANDOM % 20000) + 20000 ))
  local peers="127.0.0.1:$base,127.0.0.1:$((base+1)),127.0.0.1:$((base+2))"
  echo "== $sys: 3-rank loopback deployment on $peers"
  "$DIR/veroctl" train "${args[@]}" -workers "$peers" -rank 1 \
    -model "$DIR/rank1-$sys.json" >"$DIR/rank1-$sys.log" 2>&1 & local pid1=$!
  "$DIR/veroctl" train "${args[@]}" -workers "$peers" -rank 2 \
    -model "$DIR/rank2-$sys.json" >"$DIR/rank2-$sys.log" 2>&1 & local pid2=$!
  "$DIR/veroctl" train "${args[@]}" -workers "$peers" -rank 0 \
    -model "$DIR/dist-$sys.json" >"$DIR/dist-$sys.log" 2>&1 \
    || fail "rank 0 failed" "$DIR/dist-$sys.log" "$DIR/rank1-$sys.log" "$DIR/rank2-$sys.log"
  wait "$pid1" || fail "rank 1 failed" "$DIR/rank1-$sys.log"
  wait "$pid2" || fail "rank 2 failed" "$DIR/rank2-$sys.log"

  cmp -s "$DIR/sim-$sys.json" "$DIR/dist-$sys.json" \
    || fail "socket-trained model differs from the simulation" "$DIR/sim-$sys.log" "$DIR/dist-$sys.log"
  grep -q "bytes agree" "$DIR/dist-$sys.log" \
    || fail "measured payload does not match the accounted volume" "$DIR/dist-$sys.log"
  # Only the coordinating rank persists the model.
  [ -f "$DIR/rank1-$sys.json" ] && fail "rank 1 wrote a model file" "$DIR/rank1-$sys.log"
  echo "   models byte-identical; $(grep 'measured:' "$DIR/dist-$sys.log")"
}

three_ranks vero
three_ranks lightgbm

echo "== injected transport write failure aborts at a tree boundary"
BASE=$(( (RANDOM % 20000) + 20000 ))
PEERS="127.0.0.1:$BASE,127.0.0.1:$((BASE+1))"
set +e
VERO_FAILPOINTS='cluster.tcp.write=20*error' \
  "$DIR/veroctl" train "${TRAIN_ARGS[@]}" -workers "$PEERS" -rank 1 \
  -model "$DIR/faulted1.json" >"$DIR/fault1.log" 2>&1 & PIDF=$!
VERO_FAILPOINTS='cluster.tcp.write=20*error' \
  "$DIR/veroctl" train "${TRAIN_ARGS[@]}" -workers "$PEERS" -rank 0 \
  -model "$DIR/faulted0.json" >"$DIR/fault0.log" 2>&1
STATUS=$?
wait "$PIDF"
STATUS1=$?
set -e
[ "$STATUS" -ne 0 ] || fail "rank 0 succeeded with a broken transport" "$DIR/fault0.log"
[ "$STATUS1" -ne 0 ] || fail "rank 1 succeeded with a broken transport" "$DIR/fault1.log"
grep -q "aborted during round" "$DIR/fault0.log" \
  || fail "injected-fault error is not the tree-boundary abort" "$DIR/fault0.log"
[ -f "$DIR/faulted0.json" ] && fail "model written despite injected write failures"
echo "   aborted with: $(tail -1 "$DIR/fault0.log")"

echo "== SIGKILL one rank mid-run, restart the deployment, resume from checkpoints"
"$DIR/veroctl" train "${TRAIN_ARGS[@]}" -workers 2 -model "$DIR/sim2.json" >"$DIR/sim2.log" \
  || fail "2-worker simulated reference failed" "$DIR/sim2.log"

CKPT="$DIR/ckpt"
BASE=$(( (RANDOM % 20000) + 20000 ))
PEERS="127.0.0.1:$BASE,127.0.0.1:$((BASE+1))"
set +e
"$DIR/veroctl" train "${TRAIN_ARGS[@]}" -workers "$PEERS" -rank 1 \
  -checkpoint-dir "$CKPT" -checkpoint-every 4 \
  -model "$DIR/crash1.json" >"$DIR/crash1.log" 2>&1 & PIDK=$!
"$DIR/veroctl" train "${TRAIN_ARGS[@]}" -workers "$PEERS" -rank 0 \
  -checkpoint-dir "$CKPT" -checkpoint-every 4 \
  -model "$DIR/crash0.json" >"$DIR/crash0.log" 2>&1 & PID0=$!
# Kill rank 1 the moment its first checkpoint lands, so the deployment
# dies mid-training with resumable state on disk.
for _ in $(seq 1 600); do
  [ -f "$CKPT/train-rank1.vckp" ] && break
  kill -0 "$PIDK" 2>/dev/null || break
  sleep 0.05
done
[ -f "$CKPT/train-rank1.vckp" ] || fail "rank 1 never checkpointed" "$DIR/crash1.log"
kill -9 "$PIDK"
wait "$PIDK" 2>/dev/null
wait "$PID0"
STATUS0=$?
set -e
[ "$STATUS0" -ne 0 ] || fail "rank 0 survived its peer's SIGKILL" "$DIR/crash0.log"
[ -f "$CKPT/train-rank0.vckp" ] || fail "rank 0 aborted without leaving its checkpoint" "$DIR/crash0.log"
[ -f "$DIR/crash0.json" ] && fail "model written despite the crashed deployment"

BASE=$(( (RANDOM % 20000) + 20000 ))
PEERS="127.0.0.1:$BASE,127.0.0.1:$((BASE+1))"
"$DIR/veroctl" train "${TRAIN_ARGS[@]}" -workers "$PEERS" -rank 1 \
  -checkpoint-dir "$CKPT" -checkpoint-every 4 \
  -model "$DIR/resume1.json" >"$DIR/resume1.log" 2>&1 & PIDR=$!
"$DIR/veroctl" train "${TRAIN_ARGS[@]}" -workers "$PEERS" -rank 0 \
  -checkpoint-dir "$CKPT" -checkpoint-every 4 \
  -model "$DIR/resume0.json" >"$DIR/resume0.log" 2>&1 \
  || fail "resumed rank 0 failed" "$DIR/resume0.log" "$DIR/resume1.log"
wait "$PIDR" || fail "resumed rank 1 failed" "$DIR/resume1.log"
grep -q "resumed from checkpoint at round" "$DIR/resume0.log" \
  || fail "restarted deployment trained from scratch instead of resuming" "$DIR/resume0.log"
cmp -s "$DIR/sim2.json" "$DIR/resume0.json" \
  || fail "resumed model differs from the uninterrupted reference" "$DIR/sim2.log" "$DIR/resume0.log"
echo "   $(grep 'resumed from checkpoint' "$DIR/resume0.log"); model byte-identical"

echo "dist smoke OK"
