#!/usr/bin/env sh
# Smoke-test the aegisd daemon end to end: boot it on a random port,
# check its version report and Prometheus exposition, submit one job
# over HTTP, poll it to completion, save the result manifest (schema
# aegis.job/v1), rescrape /metrics to confirm the job's traffic showed
# up, and shut the daemon down with SIGTERM.  The daemon runs with a
# job journal; after the clean drain the script restarts it on the same
# journal and asserts the pre-restart job is still served, byte for
# byte.  CI uploads the saved JSON, the exposition and the journal as
# build artifacts.
#
# Usage: scripts/serve_smoke.sh [outdir]   (default: out/serve-smoke)
set -eu

OUT=${1:-out/serve-smoke}
mkdir -p "$OUT"
ADDR_FILE="$OUT/aegisd.addr"
JOURNAL="$OUT/journal"
rm -f "$ADDR_FILE" "$JOURNAL"

go build -o "$OUT/aegisd" ./cmd/aegisd

# start_daemon: boot aegisd against the shared cache + journal and wait
# for its bound address to land in $ADDR_FILE.
start_daemon() {
    rm -f "$ADDR_FILE"
    "$OUT/aegisd" -addr 127.0.0.1:0 -addr-file "$ADDR_FILE" \
        -workers 1 -shards 4 -cache-dir "$OUT/shards" -journal "$JOURNAL" &
    DAEMON=$!
    i=0
    while [ ! -s "$ADDR_FILE" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ] || ! kill -0 "$DAEMON" 2>/dev/null; then
            echo "serve-smoke: daemon never came up" >&2
            exit 1
        fi
        sleep 0.1
    done
    BASE="http://$(cat "$ADDR_FILE")"
}

start_daemon
trap 'kill "$DAEMON" 2>/dev/null || true' EXIT
echo "serve-smoke: daemon at $BASE"

curl -fsS "$BASE/v1/healthz" >"$OUT/healthz.json"

curl -fsS "$BASE/v1/version" >"$OUT/version.json"
jq -e '.service == "aegisd" and .git_sha != "" and .schemas.job == "aegis.job/v1"' \
    "$OUT/version.json" >/dev/null
echo "serve-smoke: version $(jq -r .git_sha "$OUT/version.json")"

JOB='{"kind":"blocks","scheme":"aegis:61","trials":8,"seed":1}'
ID=$(curl -fsS -X POST -d "$JOB" "$BASE/v1/jobs" | jq -r .id)
echo "serve-smoke: submitted $ID"

i=0
while :; do
    STATE=$(curl -fsS "$BASE/v1/jobs/$ID" | jq -r .state)
    case "$STATE" in
    done) break ;;
    failed | aborted)
        echo "serve-smoke: job ended $STATE" >&2
        curl -fsS "$BASE/v1/jobs/$ID" >&2 || true
        exit 1
        ;;
    esac
    i=$((i + 1))
    if [ "$i" -gt 600 ]; then
        echo "serve-smoke: job stuck in $STATE" >&2
        exit 1
    fi
    sleep 0.5
done

curl -fsS "$BASE/v1/jobs/$ID/result" >"$OUT/job-result.json"
jq -e '.schema == "aegis.job/v1" and (.blocks | length) == 8' \
    "$OUT/job-result.json" >/dev/null

# The exposition must reflect the traffic this script just generated:
# instrumented HTTP requests, the job's per-scheme simulation counters
# and its shard-cache activity (a cold cache means misses, not hits).
curl -fsS "$BASE/metrics" >"$OUT/metrics.prom"
grep -q '^aegis_http_requests_total{route="/v1/jobs",method="POST",code="202"}' "$OUT/metrics.prom"
grep -q '^aegis_scheme_writes_total{scheme=' "$OUT/metrics.prom"
grep -Eq '^aegis_shard_cache_(hits|misses)_total [1-9]' "$OUT/metrics.prom"
grep -q '^aegis_http_request_duration_seconds_bucket' "$OUT/metrics.prom"
grep -q '^aegis_build_info{' "$OUT/metrics.prom"
# Well formed: each family has exactly one TYPE line, and every sample
# belongs to a family declared above it (a histogram's _bucket, _sum
# and _count samples to their base family).
awk '
/^# TYPE / {
    if ($3 in declared) {
        print "serve-smoke: family " $3 " declared twice" >"/dev/stderr"
        bad = 1
    }
    declared[$3] = 1
    next
}
/^#/ || /^$/ { next }
{
    name = $0
    sub(/[{ ].*/, "", name)
    base = name
    sub(/_(bucket|sum|count)$/, "", base)
    if (!(name in declared) && !(base in declared)) {
        print "serve-smoke: sample " name " has no family declared above it" >"/dev/stderr"
        bad = 1
    }
}
END { exit bad }
' "$OUT/metrics.prom"
echo "serve-smoke: metrics OK ($(wc -l <"$OUT/metrics.prom") exposition lines)"

# Clean drain: SIGTERM must exit 0, and the journal it leaves behind
# must be non-empty (the job's submitted/running/terminal records).
kill -TERM "$DAEMON"
if ! wait "$DAEMON"; then
    echo "serve-smoke: daemon exited non-zero after SIGTERM" >&2
    exit 1
fi
if [ ! -s "$JOURNAL" ]; then
    echo "serve-smoke: journal is empty after a served job" >&2
    exit 1
fi
echo "serve-smoke: clean SIGTERM exit, journal has $(wc -l <"$JOURNAL") records"

# Restart on the same journal: the pre-restart job must still answer
# under its original ID, with the byte-identical result document.
start_daemon
echo "serve-smoke: restarted daemon at $BASE"
STATE=$(curl -fsS "$BASE/v1/jobs/$ID" | jq -r .state)
if [ "$STATE" != "done" ]; then
    echo "serve-smoke: replayed job is $STATE, want done" >&2
    exit 1
fi
curl -fsS "$BASE/v1/jobs/$ID/result" >"$OUT/job-result-replayed.json"
if ! cmp -s "$OUT/job-result.json" "$OUT/job-result-replayed.json"; then
    echo "serve-smoke: replayed result differs from the original" >&2
    diff "$OUT/job-result.json" "$OUT/job-result-replayed.json" >&2 || true
    exit 1
fi
echo "serve-smoke: replayed result is byte-identical"

kill -TERM "$DAEMON"
wait "$DAEMON"
trap - EXIT
echo "serve-smoke: OK — result manifest at $OUT/job-result.json"
