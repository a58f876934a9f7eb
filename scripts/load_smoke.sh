#!/usr/bin/env bash
# End-to-end micro-batching soak smoke: train a model, serve it with
# cross-request batching, fire a short veroload
# burst, and assert the server coalesced requests (non-zero batching
# factor) with zero errors. Run from the repo root; used by CI and
# reproducible locally with `bash scripts/load_smoke.sh`.
set -euo pipefail

ADDR="127.0.0.1:${SMOKE_PORT:-18109}"
DIR="$(mktemp -d)"
trap 'kill "${SERVER_PID:-}" 2>/dev/null || true; rm -rf "$DIR"' EXIT

echo "== build"
go build -o "$DIR/veroctl" ./cmd/veroctl
go build -o "$DIR/veroserve" ./cmd/veroserve
go build -o "$DIR/veroload" ./cmd/veroload
go build -o "$DIR/datagen" ./cmd/datagen

echo "== train"
"$DIR/datagen" -n 2000 -d 30 -c 2 -density 0.4 -informative 0.4 -out "$DIR/train.libsvm"
"$DIR/veroctl" train -data "$DIR/train.libsvm" -classes 2 -trees 5 -layers 4 \
  -model "$DIR/model.json" >/dev/null

echo "== start veroserve with micro-batching"
"$DIR/veroserve" -model "default=$DIR/model.json" -addr "$ADDR" \
  -batch-deadline 500us -batch-rows 32 \
  2>"$DIR/server.log" &
SERVER_PID=$!
for i in $(seq 1 50); do
  curl -sf "http://$ADDR/healthz" >/dev/null 2>&1 && break
  [ "$i" = 50 ] && { echo "server never came up"; cat "$DIR/server.log"; exit 1; }
  sleep 0.2
done

fail() { echo "FAIL: $1"; echo "--- server log:"; cat "$DIR/server.log"; exit 1; }

echo "== closed-loop burst"
OUT=$("$DIR/veroload" -url "http://$ADDR" -clients 32 -duration 5s -features 30 -density 0.4) \
  || fail "veroload reported errors: $OUT"
echo "$OUT"
echo "$OUT" | grep -q ' 0 errors' || fail "burst had errors: $OUT"
# The batching factor line reads "server batching: factor F (...)"; at 32
# concurrent closed-loop clients against a sub-millisecond deadline the
# server must have coalesced something, so F > 1 (i.e. not "factor 0.00"
# or "factor 1.00").
echo "$OUT" | grep -q 'server batching: factor' || fail "no batching factor reported: $OUT"
echo "$OUT" | grep -Eq 'server batching: factor (0\.|1\.00)' \
  && fail "batching factor not > 1: $OUT"

echo "== /metricz exposes batching counters"
MET=$(curl -sf "http://$ADDR/metricz")
echo "$MET" | grep -q '"batching"' || fail "metricz missing batching section: $MET"
echo "$MET" | grep -q '"flush_deadline"' || fail "metricz missing flush causes: $MET"
echo "$MET" | grep -q '"queue_wait_ms"' || fail "metricz missing queue wait: $MET"
echo "$MET" | grep -q '"errors":0' || fail "server-side errors recorded: $MET"

echo "== graceful shutdown drains"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
grep -q 'draining micro-batches' "$DIR/server.log" || fail "shutdown drain log line missing"
SERVER_PID=""

echo "load smoke OK"
