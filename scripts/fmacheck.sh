#!/usr/bin/env bash
# fmacheck.sh fails if the compiler fuses a multiply and an add into one
# instruction anywhere in the code that decides a model's bytes. The Go
# spec lets a compiler fuse x*y + z on architectures with a fused
# multiply-add, which rounds once instead of twice; amd64 never does, so a
# fused op elsewhere trains a model whose bytes differ from amd64's. An
# explicit float64(x*y) conversion rounds the product and forbids fusion.
#
# Each package is cross-compiled with its assembly listing (-gcflags=-S)
# for every 64-bit architecture Go fuses on, into a throwaway build cache so
# that no cached package skips its listing.
#
# Usage: bash scripts/fmacheck.sh
set -euo pipefail
cd "$(dirname "$0")/.."

pkgs=(./internal/histogram ./internal/core ./internal/sketch ./internal/loss ./internal/ingest ./internal/tree ./gbdt)
cache=$(mktemp -d)
trap 'rm -rf "$cache"' EXIT

found=0
for arch in arm64 ppc64le s390x riscv64 loong64; do
	asm=$(GOCACHE="$cache" GOOS=linux GOARCH="$arch" go build -gcflags=-S "${pkgs[@]}" 2>&1 >/dev/null)
	# FMADD, FMSUB, FNMADD and FNMSUB with any precision suffix.
	fused=$(grep -P '\tFN?M(ADD|SUB)[A-Z]*\t' <<<"$asm" || true)
	if [ -n "$fused" ]; then
		echo "fused multiply-add on $arch:"
		echo "$fused"
		found=1
	fi
done
if [ "$found" -ne 0 ]; then
	echo "fmacheck: round the product with an explicit float64(...) conversion" >&2
	exit 1
fi
echo "fmacheck: no fused multiply-add on arm64, ppc64le, s390x, riscv64, loong64"
