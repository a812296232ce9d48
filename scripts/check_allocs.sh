#!/usr/bin/env bash
# check_allocs.sh — the zero-allocation gate for the NN hot path.
#
# DESIGN.md §5e: after warm-up, the steady-state inference and training
# paths must not touch the heap. This script runs the end-to-end
# sub-benchmarks of BenchmarkKernels with -benchmem and fails if any
# allocs/op figure exceeds its budget:
#
#   NetworkForward  0  (DNN 64-[128,64]-16 Forward)
#   ServedPredict   0  (compiled plan PredictInto, the serving engine's
#                       path)
#   CNNForward      0  (compiled CNN plan — sequential packed ops)
#   CNNForwardTrain 0  (uncompiled training forward — the implicit-GEMM
#                       ConvKernel runs sequentially on pack buffers it
#                       allocated when it was built)
#   TrainBatch      0  (one sequential pass per example into the
#                       network's own gradient accumulators, with each
#                       Conv2D's gradW product in a layer-owned buffer)
#   DQNObserve      TrainBatch's budget (one replayed Q-learning update:
#                       bootstraps on the compiled target plan, then one
#                       TrainBatch; the target sync recompiles the plan
#                       once per 250 updates, amortized over them)
#
# Budgets are overridable (MAX_ALLOCS_<NAME>) so a future PR can land a
# conscious regression without rewriting the gate.
set -euo pipefail

cd "$(dirname "$0")/.."

MAX_ALLOCS_NETWORKFORWARD="${MAX_ALLOCS_NETWORKFORWARD:-0}"
MAX_ALLOCS_SERVEDPREDICT="${MAX_ALLOCS_SERVEDPREDICT:-0}"
MAX_ALLOCS_CNNFORWARD="${MAX_ALLOCS_CNNFORWARD:-0}"
MAX_ALLOCS_CNNFORWARDTRAIN="${MAX_ALLOCS_CNNFORWARDTRAIN:-0}"
MAX_ALLOCS_TRAINBATCH="${MAX_ALLOCS_TRAINBATCH:-0}"

out=$(go test -bench 'BenchmarkKernels/(NetworkForward|ServedPredict|CNNForward|CNNForwardTrain|TrainBatch|DQNObserve)$' \
    -benchmem -benchtime 100x -run '^$' ./internal/bench/)
printf '%s\n' "$out"

fail=0
check() {
    local name="$1" budget="$2"
    local allocs
    allocs=$(printf '%s\n' "$out" | awk -v n="$name" \
        '$1 ~ "BenchmarkKernels/" n "(-|$)" { print $(NF-1); exit }')
    if [ -z "$allocs" ]; then
        echo "FAIL: no benchmark output for $name" >&2
        fail=1
        return
    fi
    echo "allocs gate: $name = $allocs allocs/op (budget $budget)"
    if [ "$allocs" -gt "$budget" ]; then
        echo "FAIL: $name allocates $allocs/op, budget $budget." >&2
        echo "The steady state must reuse layer scratch (DESIGN.md §5e)." >&2
        fail=1
    fi
}

check NetworkForward "$MAX_ALLOCS_NETWORKFORWARD"
check ServedPredict "$MAX_ALLOCS_SERVEDPREDICT"
check CNNForward "$MAX_ALLOCS_CNNFORWARD"
check CNNForwardTrain "$MAX_ALLOCS_CNNFORWARDTRAIN"
check TrainBatch "$MAX_ALLOCS_TRAINBATCH"
check DQNObserve "$MAX_ALLOCS_TRAINBATCH"
exit "$fail"
