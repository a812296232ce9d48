#!/usr/bin/env bash
# check_panics.sh — the panic-free gate for the runtime hot path.
#
# DESIGN.md §5b: internal/core, internal/nn and internal/rl must not
# call panic() outside test files. Internal invariant violations go
# through auerr.Failf (recovered into ErrInvariant errors at the core
# API boundary), so new literal panics in these trees are regressions.
#
# The budget (MAX_PANICS, default 1) is the one documented panic in
# these trees: Agent.Observe's panic(err) in internal/rl/dqn.go, the
# error-free convenience form of ObserveCtx, which panics where
# ObserveCtx returns an error. Any further literal panic fails the gate;
# MAX_PANICS overrides the budget so a change can consciously land a
# transitional one without rewriting this gate.
set -euo pipefail

cd "$(dirname "$0")/.."

MAX_PANICS="${MAX_PANICS:-1}"
GATED_DIRS=(internal/core internal/nn internal/rl)

found=0
hits=""
for dir in "${GATED_DIRS[@]}"; do
    while IFS= read -r file; do
        # Match panic as a call, not identifiers like panicBox or
        # comments mentioning the word mid-sentence.
        matches=$(grep -nE '(^|[^[:alnum:]_."])panic\(' "$file" | grep -v '^\s*//' || true)
        if [ -n "$matches" ]; then
            n=$(printf '%s\n' "$matches" | wc -l)
            found=$((found + n))
            hits+=$(printf '%s\n' "$matches" | sed "s|^|$file:|")$'\n'
        fi
    done < <(find "$dir" -name '*.go' ! -name '*_test.go')
done

echo "panic gate: $found literal panic call(s) in ${GATED_DIRS[*]} (budget $MAX_PANICS)"
if [ -n "$hits" ]; then
    printf '%s' "$hits"
fi
if [ "$found" -gt "$MAX_PANICS" ]; then
    echo "FAIL: panic count $found exceeds budget $MAX_PANICS." >&2
    echo "Route invariants through auerr.Failf (see DESIGN.md §5b)." >&2
    exit 1
fi
