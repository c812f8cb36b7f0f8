#!/usr/bin/env bash
# heliosd telemetry end-to-end smoke: start the server with span tracing
# on, drive a cached + uncached + observed request mix, then assert the
# whole observability surface works on real processes:
#
#   - GET /metricz OpenMetrics exposition passes the repo's own
#     promtool-shaped linter (heliosctl metrics -om -lint)
#   - heliosctl metrics -watch polls without breaking
#   - the obs artifact a client fetches (heliosctl run -obs) is
#     byte-identical to heliossim's output for the same
#     workload/config/budget — the replay-determinism contract
#   - GET /tracez yields a Perfetto-loadable Chrome trace with spans
#     (kept as $WORK/tracez.json; CI uploads it as a build artifact)
#   - per-request trace files land in -trace-dir
#   - the server still drains cleanly with telemetry enabled
#
# A second leg restarts heliosd with tail sampling (-sample) and a warm
# cache directory, then proves the triage pipeline on real processes:
# `heliosctl triage` surfaces the injected error with a trace deep
# link, `heliosctl trace -id` resolves it, the OpenMetrics exposition
# carries `# {trace_id=...}` exemplars and passes `metrics -om -lint`
# (including exemplar→/tracez resolution), and a third boot on the same
# -cache-dir serves the first request as a warm cache hit.
#
# Mirrors the CI telemetry-smoke job; run locally via `make telemetry-smoke`.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR="127.0.0.1:${HELIOSD_TELEMETRY_SMOKE_PORT:-18081}"
BASE="http://$ADDR"
WORK="${TELEMETRY_SMOKE_WORK:-$(mktemp -d)}"
mkdir -p "$WORK"
trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT

echo "== build"
go build -o "$WORK/heliosd" ./cmd/heliosd
go build -o "$WORK/heliosctl" ./cmd/heliosctl
go build -o "$WORK/heliossim" ./cmd/heliossim
CTL=("$WORK/heliosctl" -server "$BASE")

echo "== start heliosd (telemetry on)"
"$WORK/heliosd" -addr "$ADDR" -insts 5000 -trace-dir "$WORK/traces" \
  -span-log "$WORK/spans.ndjson" -drain 30s 2>"$WORK/heliosd.log" &
SERVER_PID=$!
"${CTL[@]}" health -wait 15s >/dev/null
echo "ok: healthy"

echo "== request mix: uncached, cached, observed"
"${CTL[@]}" run -workload crc32 -mode Helios | grep -q '"cached":false' \
  || { echo "FAIL: first run claims cached"; exit 1; }
"${CTL[@]}" run -workload crc32 -mode Helios | grep -q '"cached":true' \
  || { echo "FAIL: repeat run was not a cache hit"; exit 1; }
"${CTL[@]}" run -workload sha -mode NoFusion -obs pipeview -obs-out "$WORK/server.pipeview" \
  | grep -q '"sha256"' || { echo "FAIL: obs run returned no artifact digest"; exit 1; }
echo "ok: mix served"

echo "== obs artifact is byte-identical to heliossim"
"$WORK/heliossim" -workload sha -mode NoFusion -insts 5000 \
  -pipeview "$WORK/local.pipeview" >/dev/null
cmp "$WORK/server.pipeview" "$WORK/local.pipeview" \
  || { echo "FAIL: server artifact differs from heliossim -pipeview"; exit 1; }
echo "ok: byte-identical pipeview ($(wc -c <"$WORK/server.pipeview") bytes)"

echo "== OpenMetrics exposition lints clean"
"${CTL[@]}" metrics -om -lint >"$WORK/metricz.om"
grep -q '^heliosd_requests_admitted_total ' "$WORK/metricz.om" \
  || { echo "FAIL: exposition lacks admitted counter"; exit 1; }
grep -q '^heliosd_span_duration_microseconds_bucket' "$WORK/metricz.om" \
  || { echo "FAIL: exposition lacks span histograms"; exit 1; }
grep -q '^heliosd_request_duration_microseconds_bucket' "$WORK/metricz.om" \
  || { echo "FAIL: exposition lacks latency histogram"; exit 1; }
echo "ok: exposition linted"

echo "== metrics -watch polls"
"${CTL[@]}" metrics -watch 200ms -count 2 >"$WORK/watch.json"
[ "$(grep -c '"latency_us"' "$WORK/watch.json")" -eq 2 ] \
  || { echo "FAIL: -watch did not produce 2 samples"; exit 1; }
echo "ok: watch mode"

echo "== tracez: Perfetto-loadable span trace"
"${CTL[@]}" trace -out "$WORK/tracez.json"
grep -q '"traceEvents"' "$WORK/tracez.json" || { echo "FAIL: no traceEvents"; exit 1; }
grep -q '"ph":"X"' "$WORK/tracez.json" || { echo "FAIL: no complete span events"; exit 1; }
for span in admission cache_read record replay; do
  grep -q "\"name\":\"$span\"" "$WORK/tracez.json" \
    || { echo "FAIL: tracez lacks a $span span"; exit 1; }
done
N_TRACE_FILES="$(ls "$WORK/traces" | wc -l)"
[ "$N_TRACE_FILES" -ge 3 ] || { echo "FAIL: trace-dir has $N_TRACE_FILES files, want >=3"; exit 1; }
grep -q '"type":"span"' "$WORK/spans.ndjson" || { echo "FAIL: span log is empty"; exit 1; }
echo "ok: tracez + $N_TRACE_FILES trace files + span log"

echo "== SIGTERM drains cleanly with telemetry on"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || { echo "FAIL: heliosd exited non-zero"; cat "$WORK/heliosd.log"; exit 1; }
grep -q 'drained clean' "$WORK/heliosd.log" || { echo "FAIL: no clean-drain log line"; exit 1; }
echo "ok: clean drain"

echo "== sampling leg: restart with -sample and a warm cache dir"
"$WORK/heliosd" -addr "$ADDR" -insts 5000 -sample -sample-rate 5 -sample-burst 5 \
  -cache-dir "$WORK/cache" -flight 64 -drain 30s 2>"$WORK/heliosd2.log" &
SERVER_PID=$!
"${CTL[@]}" health -wait 15s >/dev/null
"${CTL[@]}" run -workload crc32 -mode Helios >/dev/null
"${CTL[@]}" run -workload crc32 -mode Helios >/dev/null
"${CTL[@]}" run -workload sha -mode NoFusion >/dev/null
if "${CTL[@]}" run -workload no_such_kernel >/dev/null 2>&1; then
  echo "FAIL: unknown-workload request unexpectedly succeeded"; exit 1
fi
echo "ok: sampled traffic served (3 runs + 1 injected error)"

echo "== triage surfaces the error with a trace deep link"
"${CTL[@]}" triage -outcome error -json >"$WORK/triage.json"
grep -q '"outcome":"bad-request"' "$WORK/triage.json" \
  || { echo "FAIL: triage does not show the bad-request"; cat "$WORK/triage.json"; exit 1; }
TID="$(sed -n 's/.*"trace_id":\([0-9][0-9]*\).*/\1/p' "$WORK/triage.json" | head -1)"
[ -n "$TID" ] || { echo "FAIL: error entry carries no trace_id"; cat "$WORK/triage.json"; exit 1; }
"${CTL[@]}" trace -id "$TID" -out "$WORK/error_trace.json"
grep -q '"traceEvents"' "$WORK/error_trace.json" \
  || { echo "FAIL: trace -id $TID returned no Chrome trace"; exit 1; }
"${CTL[@]}" triage -min-ms 1 | grep -q sha \
  || { echo "FAIL: triage -min-ms does not surface the slow uncached sha run"; exit 1; }
echo "ok: triage -> trace $TID resolves; -min-ms finds the slow run"

echo "== OpenMetrics exposition: exemplars, lint, retention consistency"
"${CTL[@]}" metrics -om -lint >"$WORK/metricz.om"
grep -q '# {trace_id=' "$WORK/metricz.om" \
  || { echo "FAIL: OM exposition carries no exemplars"; exit 1; }
grep -q '^# EOF' "$WORK/metricz.om" || { echo "FAIL: OM exposition lacks # EOF"; exit 1; }
grep -q '^heliosd_traces_sampled_kept_total ' "$WORK/metricz.om" \
  || { echo "FAIL: exposition lacks sampling counters"; exit 1; }
echo "ok: OM exemplars linted (incl. exemplar->tracez resolution)"

kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || { echo "FAIL: sampled heliosd exited non-zero"; cat "$WORK/heliosd2.log"; exit 1; }

echo "== warm restart serves yesterday's results as cache hits"
N_MANIFESTS="$(ls "$WORK/cache" | wc -l)"
[ "$N_MANIFESTS" -ge 2 ] || { echo "FAIL: cache dir has $N_MANIFESTS manifests, want >=2"; exit 1; }
"$WORK/heliosd" -addr "$ADDR" -insts 5000 -cache-dir "$WORK/cache" \
  -drain 30s 2>"$WORK/heliosd3.log" &
SERVER_PID=$!
"${CTL[@]}" health -wait 15s >/dev/null
"${CTL[@]}" run -workload crc32 -mode Helios | grep -q '"cached":true' \
  || { echo "FAIL: first request after warm boot was not a cache hit"; exit 1; }
"${CTL[@]}" metrics -om | grep -q '^heliosd_cache_warm_entries [1-9]' \
  || { echo "FAIL: warm-entries gauge is zero after warm boot"; exit 1; }
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || { echo "FAIL: warm heliosd exited non-zero"; cat "$WORK/heliosd3.log"; exit 1; }
echo "ok: warm boot ($N_MANIFESTS manifests restored)"

echo "telemetry smoke: ALL OK (trace artifact: $WORK/tracez.json)"
