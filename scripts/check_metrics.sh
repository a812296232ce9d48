#!/usr/bin/env bash
# check_metrics.sh — the telemetry smoke gate.
#
# Polls a running telemetry endpoint (default http://127.0.0.1:9090)
# until /metrics answers, then asserts the exposition carries the metric
# families the runtime contract promises (DESIGN.md §5c/§5h): per-
# primitive call counters and latency histograms, auerr-classed error
# counters, db/ckpt activity, the /statusz and /healthz deep-health
# surface, and that the whole exposition parses as well-formed
# Prometheus text (no duplicate HELP/TYPE, sane line grammar).
#
# Usage:
#   check_metrics.sh [BASE]          core mode: against `autonomizer -telemetry BASE serve`
#   check_metrics.sh BASE serve      serve mode: against a running auserve (asserts the
#                                    serving stage histograms, per-model latency histogram
#                                    and the drift surface instead of the core families)
set -euo pipefail

BASE="${1:-http://127.0.0.1:9090}"
MODE="${2:-core}"
TRIES="${TRIES:-30}"

for i in $(seq 1 "$TRIES"); do
    if metrics=$(curl -fsS "$BASE/metrics" 2>/dev/null); then
        break
    fi
    if [ "$i" -eq "$TRIES" ]; then
        echo "FAIL: $BASE/metrics did not answer after $TRIES attempts" >&2
        exit 1
    fi
    sleep 1
done

fail=0
require() {
    if ! grep -qE "$1" <<<"$metrics"; then
        echo "FAIL: /metrics missing: $2 ($1)" >&2
        fail=1
    fi
}

if [ "$MODE" != "serve" ]; then
    # Per-primitive call counters and latency histograms (closed
    # vocabulary).
    for p in config extract serialize nn nnrl write_back checkpoint restore fit predict; do
        require "^autonomizer_core_primitive_calls_total\{primitive=\"$p\"\} [1-9]" "calls counter for $p"
        require "^autonomizer_core_primitive_duration_seconds_count\{primitive=\"$p\"\} [1-9]" "latency histogram for $p"
    done
    require '^autonomizer_core_primitive_duration_seconds_bucket\{.*le="\+Inf"\}' "cumulative +Inf bucket"

    # auerr-classed error counters (the serve workload provokes one failure).
    require '^autonomizer_core_primitive_errors_total\{class="[a-z_]+",primitive="[a-z_]+"\} [1-9]' "classed error counter"

    # Training metrics.
    require '^autonomizer_nn_fit_epochs_total [1-9]' "fit epoch counter"
    require '^autonomizer_nn_fit_last_loss\{model=' "per-model fit loss gauge"
    require '^autonomizer_nn_optimizer_steps_total\{optimizer=' "optimizer step counter"
    require '^autonomizer_rl_train_steps_total' "rl train step counter"

    # Store and checkpoint activity.
    require '^autonomizer_db_store_bytes [0-9]' "db store footprint gauge"
    require '^autonomizer_db_appends_total [1-9]' "db append counter"
    require '^autonomizer_ckpt_checkpoints_total [1-9]' "checkpoint counter"
    require '^autonomizer_ckpt_restores_total [1-9]' "restore counter"
else
    # Serving-layer families (DESIGN.md §5d/§5h). The gate runs after
    # check_serve.sh has driven predict traffic through the demo model.
    require '^autonomizer_serve_batches_total [1-9]' "dispatched batch counter"
    require '^autonomizer_serve_batch_size_count [1-9]' "batch size histogram"
    for st in queue_wait batch_assemble engine_predict response_encode; do
        require "^autonomizer_serve_stage_duration_seconds_count\{stage=\"$st\"\} [1-9]" "stage histogram for $st"
    done
    require '^autonomizer_serve_model_latency_seconds_bucket\{model="demo",le="\+Inf"\} [1-9]' "serving latency +Inf bucket for demo"
    require '^autonomizer_serve_model_latency_seconds_count\{model="demo"\} [1-9]' "serving latency count for demo"
    require '^autonomizer_serve_model_version\{model="demo"\} [1-9]' "model version gauge"
    require '^autonomizer_serve_queue_depth\{model="demo"\} [0-9]' "queue depth gauge"

    # Drive one ground-truth observation so the drift surface is live,
    # then re-scrape.
    if ! curl -fsS -X POST -H 'Content-Type: application/json' \
        -d '{"model":"demo","predicted":[0.5,0.5],"observed":[0.5,0.5]}' \
        "$BASE/v1/observe" >/dev/null; then
        echo "FAIL: POST /v1/observe rejected a valid observation" >&2
        fail=1
    fi
    metrics=$(curl -fsS "$BASE/metrics")
    require '^autonomizer_drift_loss\{model="demo"\} [0-9]' "drift loss gauge"
    require '^autonomizer_drift_healthy\{model="demo"\} 1' "drift verdict gauge"
    require '^autonomizer_drift_observations_total\{model="demo"\} [1-9]' "drift observation counter"
fi

# Liveness/readiness split: plain /healthz is 200, deep adds checks and
# reports ready (the workload here is healthy, so both answer 200).
if ! curl -fsS "$BASE/healthz" | grep -q '"ok":true'; then
    echo "FAIL: /healthz liveness did not answer ok" >&2
    fail=1
fi
deep=$(curl -fsS "$BASE/healthz?deep=1" || true)
if ! grep -q '"ready":true' <<<"$deep"; then
    echo "FAIL: /healthz?deep=1 not ready on a healthy process: $deep" >&2
    fail=1
fi

# /statusz answers a JSON status document with the posture fields.
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
curl -fsS "$BASE/statusz" > "$workdir/statusz.json" || true
if ! python3 - "$MODE" "$workdir/statusz.json" <<'PYEOF'
import json, sys
mode, path = sys.argv[1], sys.argv[2]
with open(path) as f:
    doc = json.load(f)
if mode == "serve":
    assert doc["ready"] is True, "serve statusz not ready"
    assert doc["models"], "serve statusz lists no models"
    m = doc["models"][0]
    assert m["name"] == "demo" and m["version"] >= 1, m
    assert m["plan"], "no engine plan reported"
    assert m["queue_capacity"] >= 1, m
else:
    assert doc["uptime_seconds"] >= 0, doc
    assert "go_version" in doc and "metrics" in doc, doc
print("statusz ok")
PYEOF
then
    echo "FAIL: /statusz document invalid for mode $MODE" >&2
    cat "$workdir/statusz.json" >&2 || true
    fail=1
fi

# The whole exposition must be well-formed Prometheus text: HELP/TYPE
# at most once per family, every sample line matching the grammar
# (including escaped quotes and backslashes in label values).
printf '%s\n' "$metrics" > "$workdir/metrics.txt"
if ! python3 - "$workdir/metrics.txt" <<'PYEOF'
import re, sys
seen_help, seen_type = set(), set()
label = r'[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"'
sample = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
    r'(\{' + label + r'(,' + label + r')*\})?'
    r' (NaN|[+-]?Inf|[-+0-9.eE]+)$')
bad = 0
with open(sys.argv[1]) as f:
    for ln in f.read().splitlines():
        if not ln.strip():
            continue
        if ln.startswith("# HELP "):
            name = ln.split()[2]
            if name in seen_help:
                print(f"duplicate HELP for {name}", file=sys.stderr); bad = 1
            seen_help.add(name)
        elif ln.startswith("# TYPE "):
            name = ln.split()[2]
            if name in seen_type:
                print(f"duplicate TYPE for {name}", file=sys.stderr); bad = 1
            seen_type.add(name)
        elif ln.startswith("#"):
            pass
        elif not sample.match(ln):
            print(f"malformed sample line: {ln!r}", file=sys.stderr); bad = 1
sys.exit(bad)
PYEOF
then
    echo "FAIL: /metrics exposition is not well-formed Prometheus text" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "--- /metrics dump ---" >&2
    printf '%s\n' "$metrics" >&2
    exit 1
fi
echo "metrics gate ($MODE): all required families present on $BASE"
