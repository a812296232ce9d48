#!/usr/bin/env bash
# check_kernels.sh — the kernel-speedup gate for the default build.
#
# ROADMAP: the blocked matmul (both operands packed, one call to the
# dispatched GEBP tile) must beat the naive reference on the DEFAULT
# build (no GOAMD64 flags), because that is what `go build` gives every
# user. The init-time CPU-feature dispatch (tensor/dispatch.go)
# selects the AVX2+FMA assembly kernels at package init when the host
# supports them, so the default build should see the same speedups as a
# GOAMD64=v3 build. This gate fails if the blocked/naive ratio at
# 192x192 (single-core) drops below a floor — e.g. if the dispatch
# silently regresses to the generic kernels on a machine that has AVX2,
# or a kernel change loses the advantage.
#
# The floor is deliberately below the observed ~7x with the assembly
# kernels but above the ~1.2x the generic path manages, so it trips on
# "dispatch broke", not on benchmark noise. On hosts without AVX2 the
# generic kernels cannot reach the floor; the gate reads the active
# kernel from TestKernelSelected's log and applies the generic floor
# instead. All floors are overridable:
#   MIN_SPEEDUP_192         (default 3.0, accelerated kernels)
#   MIN_SPEEDUP_192_GENERIC (default 0.9, generic fallback)
#   MIN_CONV_SPEEDUP        (default 2.0, accelerated kernels)
#   MIN_CONV_SPEEDUP_GENERIC (default 1.1, generic fallback)
#
# The conv gate compares the implicit-GEMM convolution (gather fused
# into GEBP packing, DESIGN.md §5j) against the materialized im2col
# lowering on the same geometry, forward and backward.
# BenchmarkKernels/ConvRatio reports the median of 9 interleaved
# in-process samples of im2col/implicit per direction, so host-speed
# drift cancels, as in the dense-training gate below. The fusion
# helps the generic kernels too (it removes the column matrix and its
# re-pack), hence a floor above 1x even without AVX2.
#
# The dense-training gate times one 32-example minibatch through the
# Dense layers of the 8→64→32→4 DNN (forward, dW, dX, then Adam) on the
# scalar test-file references and on the training kernels (PackedDense
# Repack+Forward, RowAXPY, AdamStep). BenchmarkKernels/DenseTrainRatio
# reports the median of 9 interleaved in-process samples of ref/kernel,
# so host-speed drift cancels. Its floors are fixed in this script (no
# override): DENSE_TRAIN_FLOOR for the AVX2 kernels, set below the
# lowest of the runs recorded in CHANGES.md, and
# DENSE_TRAIN_FLOOR_GENERIC for the portable Go kernels, which only
# unroll the same loops.
#
# All gates run package tensor's BenchmarkKernels; the naive, im2col,
# col2im and dense-training references they time live in that package's
# test files.
set -euo pipefail

cd "$(dirname "$0")/.."

MIN_SPEEDUP_192="${MIN_SPEEDUP_192:-3.0}"
MIN_SPEEDUP_192_GENERIC="${MIN_SPEEDUP_192_GENERIC:-0.9}"
MIN_CONV_SPEEDUP="${MIN_CONV_SPEEDUP:-2.0}"
MIN_CONV_SPEEDUP_GENERIC="${MIN_CONV_SPEEDUP_GENERIC:-1.1}"
DENSE_TRAIN_FLOOR=2.0
DENSE_TRAIN_FLOOR_GENERIC=0.9

# -count=1 defeats the test cache: the selection depends on the host CPU,
# which the cache key does not cover, so a cached log can report another
# host's kernel.
kernel=$(go test -count=1 ./internal/tensor/ -run TestKernelSelected -v 2>/dev/null \
    | awk -F'active kernel: ' '/active kernel:/ { split($2, a, " "); print a[1]; exit }')
if [ -z "$kernel" ]; then
    echo "FAIL: could not determine the active kernel implementation" >&2
    exit 1
fi

floor="$MIN_SPEEDUP_192"
conv_floor="$MIN_CONV_SPEEDUP"
dense_floor="$DENSE_TRAIN_FLOOR"
if [ "$kernel" = "generic" ]; then
    floor="$MIN_SPEEDUP_192_GENERIC"
    conv_floor="$MIN_CONV_SPEEDUP_GENERIC"
    dense_floor="$DENSE_TRAIN_FLOOR_GENERIC"
fi
echo "kernel gate: active kernel '$kernel', matmul floor $floor, conv floor $conv_floor, dense-training floor $dense_floor"

out=$(go test -bench 'BenchmarkKernels/MatMul(Naive|Blocked)192$' \
    -benchtime 5x -run '^$' ./internal/tensor/)
printf '%s\n' "$out"

naive=$(printf '%s\n' "$out" | awk '$1 ~ /MatMulNaive192(-|$)/ { print $3; exit }')
blocked=$(printf '%s\n' "$out" | awk '$1 ~ /MatMulBlocked192(-|$)/ { print $3; exit }')
if [ -z "$naive" ] || [ -z "$blocked" ]; then
    echo "FAIL: missing benchmark output (naive='$naive' blocked='$blocked')" >&2
    exit 1
fi

awk -v naive="$naive" -v blocked="$blocked" -v floor="$floor" -v kernel="$kernel" 'BEGIN {
    speedup = naive / blocked
    printf "kernel gate: blocked/naive speedup at 192x192 = %.2fx (floor %.1fx, kernel %s)\n",
        speedup, floor, kernel
    if (speedup < floor) {
        printf "FAIL: default-build speedup %.2fx below floor %.1fx.\n", speedup, floor > "/dev/stderr"
        print "The init-time kernel dispatch may have regressed (see internal/tensor/dispatch.go)." > "/dev/stderr"
        exit 1
    }
}'

# Conv gate: implicit-GEMM vs materialized im2col, forward and backward,
# median of interleaved samples inside one process.
conv_out=$(go test -bench 'BenchmarkKernels/ConvRatio$' -benchtime 1x -run '^$' ./internal/tensor/)
printf '%s\n' "$conv_out"
ratio_of() {
    printf '%s\n' "$conv_out" | awk -v unit="$1" '$1 ~ /ConvRatio(-|$)/ {
        for (i = 2; i <= NF; i++) if ($i == unit) { print $(i-1); exit }
    }'
}
fwd=$(ratio_of fwd-im2col/implicit)
bwd=$(ratio_of bwd-im2col/implicit)
if [ -z "$fwd" ] || [ -z "$bwd" ]; then
    echo "FAIL: missing conv benchmark output" >&2
    exit 1
fi

awk -v fwd="$fwd" -v bwd="$bwd" -v floor="$conv_floor" -v kernel="$kernel" 'BEGIN {
    printf "kernel gate: implicit-GEMM conv speedup (median of interleaved samples) forward %.2fx backward %.2fx (floor %.1fx, kernel %s)\n",
        fwd, bwd, floor, kernel
    if (fwd < floor || bwd < floor) {
        printf "FAIL: conv speedup (fwd %.2fx, bwd %.2fx) below floor %.1fx.\n", fwd, bwd, floor > "/dev/stderr"
        print "The implicit-GEMM packers may have regressed (see internal/tensor/convgemm.go)." > "/dev/stderr"
        exit 1
    }
}'

# Dense-training gate: kernels vs scalar references, median of
# interleaved samples inside one process.
dense_out=$(go test -bench 'BenchmarkKernels/DenseTrainRatio$' -benchtime 1x -run '^$' ./internal/tensor/)
printf '%s\n' "$dense_out"
dense=$(printf '%s\n' "$dense_out" | awk '$1 ~ /DenseTrainRatio(-|$)/ {
    for (i = 2; i <= NF; i++) if ($i == "ref/kernel") { print $(i-1); exit }
}')
if [ -z "$dense" ]; then
    echo "FAIL: missing dense-training benchmark output" >&2
    exit 1
fi

awk -v r="$dense" -v floor="$dense_floor" -v kernel="$kernel" 'BEGIN {
    printf "kernel gate: dense-training speedup (median of interleaved samples) = %.2fx (floor %.1fx, kernel %s)\n",
        r, floor, kernel
    if (r < floor) {
        printf "FAIL: dense-training speedup %.2fx below floor %.1fx.\n", r, floor > "/dev/stderr"
        print "The training kernels may have regressed (see internal/tensor/train.go)." > "/dev/stderr"
        exit 1
    }
}'
