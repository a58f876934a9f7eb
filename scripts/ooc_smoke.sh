#!/usr/bin/env bash
# Out-of-core training smoke test: train the same `.vbin` cache image
# twice through a real `veroctl` — once fully in memory, once streamed
# through the mmap-backed view under a small memory budget with a hard
# `GOMEMLIMIT` backstop — and require the two model files to be
# byte-identical. The same comparison then runs under every quadrant
# (`-quadrant qd1..qd4`) on a smaller image: QD1 and QD3 read their
# columns through one code path wherever the columns live, QD2 and QD4
# switch algorithms. Also asserts the streamed run reports its peak heap
# and that an armed `ingest.mmap.read` failpoint aborts with a
# descriptive error instead of producing a model. Run from the repo
# root; used by CI and reproducible locally with
# `bash scripts/ooc_smoke.sh`.
set -euo pipefail

DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

TRAIN_ARGS=(-data "$DIR/train.vbin" -classes 2 -trees 12 -layers 5 -workers 4 -system vero)

fail() { echo "FAIL: $1"; shift; for f in "$@"; do echo "--- $f:"; cat "$f"; done; exit 1; }

echo "== build"
go build -o "$DIR/veroctl" ./cmd/veroctl
go build -o "$DIR/datagen" ./cmd/datagen

echo "== generate a .vbin cache image"
"$DIR/datagen" -n 20000 -d 300 -c 2 -density 0.3 -informative 0.3 \
  -format vbin -out "$DIR/train.vbin"

echo "== in-memory reference run"
"$DIR/veroctl" train "${TRAIN_ARGS[@]}" -model "$DIR/mem.json" >"$DIR/mem.log" \
  || fail "in-memory run failed" "$DIR/mem.log"

echo "== streamed run under a 32 MiB budget (GOMEMLIMIT backstop)"
GOMEMLIMIT=256MiB "$DIR/veroctl" train "${TRAIN_ARGS[@]}" \
  -out-of-core -mem-budget-mb 32 -model "$DIR/ooc.json" >"$DIR/ooc.log" \
  || fail "out-of-core run failed" "$DIR/ooc.log"
grep -q "peak heap" "$DIR/ooc.log" \
  || fail "out-of-core run did not report peak heap" "$DIR/ooc.log"
cmp -s "$DIR/mem.json" "$DIR/ooc.json" \
  || fail "streamed model differs from in-memory run" "$DIR/mem.log" "$DIR/ooc.log"
echo "   models byte-identical; $(grep 'peak heap' "$DIR/ooc.log")"

echo "== in-memory vs streamed under every quadrant (small image)"
"$DIR/datagen" -n 4000 -d 60 -c 2 -density 0.3 -informative 0.3 \
  -format vbin -out "$DIR/small.vbin"
for Q in qd1 qd2 qd3 qd4; do
  QARGS=(-data "$DIR/small.vbin" -classes 2 -trees 6 -layers 5 -workers 4 -quadrant "$Q")
  "$DIR/veroctl" train "${QARGS[@]}" -model "$DIR/mem-$Q.json" >"$DIR/mem-$Q.log" \
    || fail "$Q in-memory run failed" "$DIR/mem-$Q.log"
  "$DIR/veroctl" train "${QARGS[@]}" -out-of-core -mem-budget-mb 1 \
    -model "$DIR/ooc-$Q.json" >"$DIR/ooc-$Q.log" \
    || fail "$Q out-of-core run failed" "$DIR/ooc-$Q.log"
  cmp -s "$DIR/mem-$Q.json" "$DIR/ooc-$Q.json" \
    || fail "$Q: streamed model differs from in-memory run" "$DIR/mem-$Q.log" "$DIR/ooc-$Q.log"
done
echo "   qd1..qd4 models byte-identical"

echo "== injected mmap read failure aborts descriptively"
set +e
VERO_FAILPOINTS='ingest.mmap.read=error' \
  "$DIR/veroctl" train "${TRAIN_ARGS[@]}" \
  -out-of-core -mem-budget-mb 32 -model "$DIR/faulted.json" >"$DIR/fault.log" 2>&1
STATUS=$?
set -e
[ "$STATUS" -ne 0 ] || fail "training succeeded under injected read failures" "$DIR/fault.log"
grep -qi "cache" "$DIR/fault.log" \
  || fail "injected-fault error is not descriptive" "$DIR/fault.log"
[ -f "$DIR/faulted.json" ] && fail "model written despite injected read failures"
echo "   aborted with: $(tail -1 "$DIR/fault.log")"

echo "ooc smoke OK"
