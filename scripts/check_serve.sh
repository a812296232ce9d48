#!/usr/bin/env bash
# check_serve.sh — the serving smoke gate.
#
# Drives a running auserve instance (default http://127.0.0.1:8080,
# started with -demo so the "demo" model is installed) through the
# whole serving contract: health, model listing, JSON and error
# answers on /v1/predict and /v1/act, load shedding classification,
# atomic hot reload with a version bump, and — the point of the
# subsystem — evidence in the batch-size histogram that concurrent
# clients actually coalesced into multi-request batches (DESIGN.md
# §5d). Run it against `auserve -demo [-snapshot f]`.
set -euo pipefail

BASE="${1:-http://127.0.0.1:8080}"
TRIES="${TRIES:-30}"
CLIENTS="${CLIENTS:-16}"
PER_CLIENT="${PER_CLIENT:-100}"

for i in $(seq 1 "$TRIES"); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then
        break
    fi
    if [ "$i" -eq "$TRIES" ]; then
        echo "FAIL: $BASE/healthz did not answer after $TRIES attempts" >&2
        exit 1
    fi
    sleep 1
done

fail=0
note() { echo "serve gate: $*"; }
die() {
    echo "FAIL: $*" >&2
    fail=1
}

# The demo model is listed with its sizes.
models=$(curl -fsS "$BASE/v1/models")
grep -q '"name":"demo"' <<<"$models" || die "/v1/models does not list the demo model: $models"
version0=$(sed -n 's/.*"version":\([0-9]*\).*/\1/p' <<<"$models")

# One JSON predict answers with a 2-vector.
out=$(curl -fsS -X POST "$BASE/v1/predict" \
    -H 'Content-Type: application/json' \
    -d '{"model":"demo","input":[0.1,0.2,0.3,0.4]}')
grep -qE '"output":\[-?[0-9.eE+-]+,-?[0-9.eE+-]+\]' <<<"$out" || die "bad predict answer: $out"

# The RL action endpoint answers with a discrete action.
act=$(curl -fsS -X POST "$BASE/v1/act" \
    -H 'Content-Type: application/json' \
    -d '{"model":"demo","state":[0.9,0.1,0.5,0.5]}')
grep -qE '"action":[0-9]+' <<<"$act" || die "bad act answer: $act"

# Typed errors cross the wire: unknown model is a classed 404.
code=$(curl -s -o /tmp/serve_err.json -w '%{http_code}' -X POST "$BASE/v1/predict" \
    -H 'Content-Type: application/json' -d '{"model":"ghost","input":[1,2,3,4]}')
[ "$code" = "404" ] || die "unknown model answered HTTP $code, want 404"
grep -q '"class":"unknown_model"' /tmp/serve_err.json || die "unknown model error not classed: $(cat /tmp/serve_err.json)"

# Malformed input is a classed 400.
code=$(curl -s -o /tmp/serve_err.json -w '%{http_code}' -X POST "$BASE/v1/predict" \
    -H 'Content-Type: application/json' -d '{"model":"demo","input":[1]}')
[ "$code" = "400" ] || die "wrong-size input answered HTTP $code, want 400"
grep -q '"class":"spec_invalid"' /tmp/serve_err.json || die "wrong-size input not classed: $(cat /tmp/serve_err.json)"

# Concurrent clients hammer predict so the micro-batcher has company to
# coalesce. The batcher dispatches whatever is queued the moment it is
# free, so only requests that overlap a running batch share one; each
# client therefore sends its PER_CLIENT requests as one parallel curl
# burst (the ?i=[1-N] URL glob), not one request at a time.
note "driving $CLIENTS concurrent clients x $PER_CLIENT requests"
for c in $(seq 1 "$CLIENTS"); do
    curl -fsS -Z --parallel-immediate --parallel-max 16 -X POST \
        "$BASE/v1/predict?i=[1-$PER_CLIENT]" \
        -H 'Content-Type: application/json' \
        -d '{"model":"demo","input":[0.5,0.25,0.125,0.0625]}' >/dev/null &
done
wait

# The batch-size histogram must show real coalescing: batches of more
# than one request. le="1" counts the singleton batches; the total
# count minus that is the multi-request batches.
metrics=$(curl -fsS "$BASE/metrics")
grep -q '^autonomizer_serve_batch_size_bucket' <<<"$metrics" || die "/metrics missing the batch-size histogram"
singles=$(sed -n 's/^autonomizer_serve_batch_size_bucket{le="1"} \([0-9]*\)$/\1/p' <<<"$metrics")
total=$(sed -n 's/^autonomizer_serve_batch_size_count \([0-9]*\)$/\1/p' <<<"$metrics")
if [ -z "$singles" ] || [ -z "$total" ]; then
    die "could not read batch-size histogram (singles='$singles' total='$total')"
elif [ "$total" -le "$singles" ]; then
    die "no multi-request batches observed (total=$total singleton=$singles) — batching is not coalescing"
else
    note "coalescing confirmed: $((total - singles)) of $total batches had >1 request"
fi
grep -qE '^autonomizer_serve_queue_depth\{model="demo"\} [0-9]' <<<"$metrics" || die "/metrics missing the queue-depth gauge"
grep -qE '^autonomizer_serve_requests_total\{.*endpoint="predict".*\} [1-9]' <<<"$metrics" || die "/metrics missing predict request counter"

# Atomic hot reload: an empty-body reload pulls the fresh snapshot from
# the server's source (when started with -snapshot) and must bump the
# version while the server keeps answering; without a source it is a
# contract 400.
if reload=$(curl -fsS -X POST "$BASE/models/demo/reload" 2>/dev/null); then
    grep -qE '"version":[0-9]+' <<<"$reload" || die "bad reload answer: $reload"
    version1=$(sed -n 's/.*"version":\([0-9]*\).*/\1/p' <<<"$reload")
    if [ -n "$version0" ] && [ "$version1" -le "$version0" ]; then
        die "reload did not bump the version ($version0 -> $version1)"
    fi
    note "hot reload bumped demo to version $version1"
else
    # Without a snapshot source an empty-body reload is a 400 by contract.
    code=$(curl -s -o /tmp/serve_err.json -w '%{http_code}' -X POST "$BASE/models/demo/reload")
    [ "$code" = "400" ] || die "source-less reload answered HTTP $code, want 400"
    note "no snapshot source configured; source-less reload correctly rejected (400)"
fi

# The model still answers identically after the reload churn.
out2=$(curl -fsS -X POST "$BASE/v1/predict" \
    -H 'Content-Type: application/json' \
    -d '{"model":"demo","input":[0.1,0.2,0.3,0.4]}')
[ "$out" = "$out2" ] || die "prediction changed across reload: $out vs $out2"

if [ "$fail" -ne 0 ]; then
    echo "--- /metrics dump ---" >&2
    printf '%s\n' "$metrics" >&2
    exit 1
fi
echo "serve gate: all checks passed on $BASE"
