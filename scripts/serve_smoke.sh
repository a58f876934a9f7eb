#!/usr/bin/env bash
# End-to-end veroserve smoke test: train two small models, serve one,
# predict, hot-swap to the other without restarting, predict again, and
# scrape /metricz. Run from the repo root; used by CI and reproducible
# locally with `bash scripts/serve_smoke.sh`.
set -euo pipefail

ADDR="127.0.0.1:${SMOKE_PORT:-18099}"
DIR="$(mktemp -d)"
trap 'kill "${SERVER_PID:-}" 2>/dev/null || true; rm -rf "$DIR"' EXIT

echo "== build"
go build -o "$DIR/veroctl" ./cmd/veroctl
go build -o "$DIR/veroserve" ./cmd/veroserve
go build -o "$DIR/datagen" ./cmd/datagen

echo "== train two model versions"
"$DIR/datagen" -n 2000 -d 30 -c 2 -density 0.4 -informative 0.4 -out "$DIR/train.libsvm"
"$DIR/veroctl" train -data "$DIR/train.libsvm" -classes 2 -trees 5 -layers 4 \
  -model "$DIR/model_v1.json" >/dev/null
"$DIR/veroctl" train -data "$DIR/train.libsvm" -classes 2 -trees 8 -layers 4 \
  -model "$DIR/model_v2.json" >/dev/null

echo "== start veroserve"
"$DIR/veroserve" -model "default=$DIR/model_v1.json" -admin -addr "$ADDR" \
  2>"$DIR/server.log" &
SERVER_PID=$!
for i in $(seq 1 50); do
  curl -sf "http://$ADDR/readyz" >/dev/null 2>&1 && break
  [ "$i" = 50 ] && { echo "server never became ready"; cat "$DIR/server.log"; exit 1; }
  sleep 0.2
done

fail() { echo "FAIL: $1"; echo "--- server log:"; cat "$DIR/server.log"; exit 1; }

echo "== predict on v1"
OUT=$(curl -sf -d '{"rows":[{"indices":[0,3],"values":[1.5,-2]}],"proba":true}' \
  "http://$ADDR/v1/models/default/predict")
echo "$OUT" | grep -q '"version":1' || fail "predict did not report version 1: $OUT"
echo "$OUT" | grep -q '"probabilities"' || fail "no probabilities: $OUT"

echo "== hot-swap to v2"
OUT=$(curl -sf -d "{\"path\":\"$DIR/model_v2.json\"}" "http://$ADDR/v1/models/default")
echo "$OUT" | grep -q '"version":2' || fail "swap did not bump version: $OUT"
echo "$OUT" | grep -q '"num_trees":8' || fail "swap did not load the new forest: $OUT"
grep -q 'hot-swapped model "default" v1 -> v2' "$DIR/server.log" \
  || fail "swap rationale missing from server log"

echo "== predict on v2"
OUT=$(curl -sf -d '{"rows":[{"indices":[0,3],"values":[1.5,-2]}]}' "http://$ADDR/v1/models/default/predict")
echo "$OUT" | grep -q '"version":2' || fail "predict still on old version: $OUT"

echo "== scrape /metricz"
OUT=$(curl -sf "http://$ADDR/metricz")
echo "$OUT" | grep -q '"model":"default"' || fail "metricz missing model: $OUT"
echo "$OUT" | grep -q '"requests":2' || fail "metricz request count wrong: $OUT"
echo "$OUT" | grep -Eq '"p50":[0-9.]+' || fail "metricz missing p50: $OUT"

echo "== list models"
curl -sf "http://$ADDR/v1/models" | grep -q '"version":2' || fail "model list stale"

echo "== corrupt model is rejected before swap"
echo '{"trees": "garbage"}' >"$DIR/corrupt.json"
CODE=$(curl -s -o "$DIR/swap_err.json" -w '%{http_code}' \
  -d "{\"path\":\"$DIR/corrupt.json\"}" "http://$ADDR/v1/models/default")
[ "$CODE" = 400 ] || fail "corrupt model swap answered $CODE, want 400"
curl -sf "http://$ADDR/v1/models/default" | grep -q '"version":2' \
  || fail "corrupt model replaced the serving version"

echo "== SIGTERM drains: /readyz goes 503 (or the listener closes), never stays ready"
kill -TERM "$SERVER_PID"
for i in $(seq 1 50); do
  CODE=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/readyz" 2>/dev/null) || CODE=000
  # 503 = draining, 000 = drain already finished; both mean traffic stopped.
  { [ "$CODE" = 503 ] || [ "$CODE" = 000 ]; } && break
  [ "$i" = 50 ] && fail "/readyz still ready after SIGTERM"
  sleep 0.05
done
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

echo "serve smoke OK"
