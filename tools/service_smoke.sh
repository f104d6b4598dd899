#!/usr/bin/env bash
# Smoke-test the roofline-as-a-service daemon end to end:
#   start roofline_serve on an ephemeral port -> assert the /healthz
#   pmu block matches `roofline_campaign --pmu-probe` (and degrades
#   cleanly without perf_event privilege) -> submit a small
#   campaign -> poll to completion -> validate analysis.json against
#   the schema checker -> exercise dedup + statsz -> scrape /metricsz
#   and /tracez (job counters must have moved) -> assert the
#   time-series sampler advanced across submit->done (/seriesz +
#   /dashz) -> exercise /profilez (200 + schema-valid profile and a
#   flamegraph) -> SIGTERM and assert a clean (exit 0) shutdown.
# Run by CI in both the Release and ASan/UBSan jobs:
#   tools/service_smoke.sh <build-dir>
set -euo pipefail

BUILD=${1:-build}
WORK=$(mktemp -d)
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

# 100 ms sampling so the submit->done window spans many series ticks.
"$BUILD"/roofline_serve --port 0 --port-file "$WORK/port" --quiet \
    --sample-interval-ms 100 \
    --out "$WORK/out" > "$WORK/serve.log" 2>&1 &
SERVE_PID=$!

for _ in $(seq 1 100); do
    [ -s "$WORK/port" ] && break
    kill -0 "$SERVE_PID" || { echo "FAIL: daemon died on startup"; \
        cat "$WORK/serve.log"; exit 1; }
    sleep 0.1
done
[ -s "$WORK/port" ] || { echo "FAIL: no port file"; exit 1; }
PORT=$(cat "$WORK/port")
BASE="http://127.0.0.1:$PORT"
echo "daemon on $BASE"

curl -fsS "$BASE/healthz" > "$WORK/health.json"
grep -q '"status":"ok"' "$WORK/health.json"
# Build identity must be attributable: sha/compiler/simd in /healthz.
python3 - "$WORK/health.json" <<'EOF'
import json, sys
build = json.load(open(sys.argv[1]))["build"]
for key in ("git_sha", "compiler", "build_type", "simd", "profiler"):
    assert key in build, (key, build)
print("healthz build OK:", build["git_sha"], build["compiler"],
      build["simd"], "profiler" if build["profiler"] else "no-profiler")
EOF

# PMU capability: the /healthz pmu block must agree with the CLI probe
# (same process-independent answer), and an unprivileged host must
# degrade to a well-formed available=false block — never an error.
"$BUILD"/roofline_campaign --pmu-probe > "$WORK/pmu.txt"
grep -q '^pmu: available=' "$WORK/pmu.txt"
PROBE_LINE=$(grep '^pmu: ' "$WORK/pmu.txt")
python3 - "$WORK/health.json" "$PROBE_LINE" <<'EOF'
import json, sys
pmu = json.load(open(sys.argv[1]))["pmu"]
for key in ("available", "paranoid", "events_live", "events_dead",
            "events"):
    assert key in pmu, (key, pmu)
cli = dict(kv.split("=") for kv in sys.argv[2].split()[1:])
assert pmu["available"] == (cli["available"] == "true"), (pmu, cli)
assert int(pmu["paranoid"]) == int(cli["paranoid"]), (pmu, cli)
assert int(pmu["events_live"]) == int(cli["events_live"]), (pmu, cli)
assert int(pmu["events_dead"]) == int(cli["events_dead"]), (pmu, cli)
assert len(pmu["events"]) == \
    int(cli["events_live"]) + int(cli["events_dead"]), pmu
for e in pmu["events"]:
    assert e["source"] in ("default", "env"), e
    assert isinstance(e["live"], bool), e
if not pmu["available"]:
    assert int(pmu["events_live"]) == 0, pmu
print("healthz pmu OK:",
      "available" if pmu["available"] else
      "unavailable (degraded cleanly)",
      "live=%d dead=%d" % (pmu["events_live"], pmu["events_dead"]))
EOF

# Baseline sampler position before the campaign runs.
SAMPLES_BEFORE=$(curl -fsS "$BASE/seriesz" | python3 -c \
    'import json,sys; print(json.load(sys.stdin)["samples"])')

SPEC='name = ci-smoke
machine = small
kernel = daxpy:n=4096
kernel = sum:n=4096
variant = cold-1c: protocol=cold cores=0 reps=1'

ID=$(printf '%s\n' "$SPEC" | curl -fsS -X POST --data-binary @- \
    "$BASE/v1/campaigns" |
    python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
echo "ticket $ID"

STATE=""
for _ in $(seq 1 300); do
    STATE=$(curl -fsS "$BASE/v1/campaigns/$ID" |
        python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')
    [ "$STATE" = done ] && break
    [ "$STATE" = failed ] && { echo "FAIL: campaign failed"; \
        curl -fsS "$BASE/v1/campaigns/$ID"; exit 1; }
    sleep 0.1
done
[ "$STATE" = done ] || { echo "FAIL: campaign stuck in '$STATE'"; exit 1; }

curl -fsS "$BASE/v1/campaigns/$ID/analysis" > "$WORK/analysis.json"
python3 tools/check_bench_schema.py "$WORK/analysis.json"

# Artifact endpoints stream usable documents. (Capture to files:
# grep -q closing the pipe early would fail curl under pipefail.)
curl -fsS "$BASE/v1/campaigns/$ID/report.html" > "$WORK/report.html"
grep -q '<!DOCTYPE html>' "$WORK/report.html"
curl -fsS "$BASE/v1/campaigns/$ID/roofline.svg" > "$WORK/roofline.svg"
grep -q '<svg' "$WORK/roofline.svg"

# An identical resubmission deduplicates instead of re-executing.
printf '%s\n' "$SPEC" | curl -fsS -X POST --data-binary @- \
    "$BASE/v1/campaigns" | grep -q '"deduplicated":true'
curl -fsS "$BASE/statsz" | python3 -c '
import json, sys
s = json.load(sys.stdin)
assert s["queue"]["executed"] == 1, s
assert s["queue"]["deduplicated"] == 1, s
assert s["cache"]["stores"] >= 2, s
print("statsz OK:", json.dumps(s["queue"]))'

# The Prometheus exposition serves the same registry: the job we just
# ran must be visible in the counters, not scraped as all-zeros.
curl -fsS "$BASE/metricsz" > "$WORK/metrics.prom"
python3 - "$WORK/metrics.prom" <<'EOF'
import sys

values = {}
for line in open(sys.argv[1]):
    if line.startswith("#") or not line.strip():
        continue
    name, _, value = line.rpartition(" ")
    values[name] = float(value)

def require_positive(metric):
    if values.get(metric, 0.0) <= 0.0:
        sys.exit(f"FAIL: /metricsz {metric} = "
                 f"{values.get(metric, '<absent>')}; job counters "
                 f"must move after an executed campaign")

require_positive("rfl_queue_executed_total")
require_positive("rfl_queue_submitted_total")
require_positive("rfl_queue_deduplicated_total")
require_positive("rfl_queue_turnaround_seconds_count")
require_positive("rfl_campaign_job_seconds_count")
require_positive("rfl_http_requests_total")
require_positive("rfl_sim_records_total")
# The pmu gauges must exist (the /healthz probe registered them) even
# when the host denies perf_event and their value is legitimately 0.
for metric in ("rfl_pmu_events_live", "rfl_pmu_events_dead"):
    if metric not in values:
        sys.exit(f"FAIL: /metricsz is missing {metric}; the pmu "
                 "metric family must register on probe")
print("metricsz OK:",
      f"executed={values['rfl_queue_executed_total']:.0f}",
      f"sim_records={values['rfl_sim_records_total']:.0f}")
EOF

# The finished job's span tree is served as chrome://tracing JSON.
curl -fsS "$BASE/tracez?job=$ID" > "$WORK/trace.json"
python3 - "$WORK/trace.json" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
names = {e["name"] for e in events}
assert {"campaign", "simulate", "encode"} <= names, names
print(f"tracez OK: {len(events)} spans")
EOF

# The job's resource accounting rode along: status JSON carries a
# resources object. (A millisecond-scale smoke job can legitimately
# bill 0 CPU at rusage tick granularity, so gate on shape + rss.)
curl -fsS "$BASE/v1/campaigns/$ID" | python3 -c '
import json, sys
res = json.load(sys.stdin)["resources"]
for key in ("cpu_user_seconds", "cpu_system_seconds", "maxrss_bytes",
            "minor_faults", "major_faults"):
    assert res[key] >= 0, (key, res)
assert res["maxrss_bytes"] > 0, res
print("resources OK: %.3fs usr, %d MiB peak rss" % (
    res["cpu_user_seconds"], res["maxrss_bytes"] // (1 << 20)))'

# The time-series sampler must have advanced across submit->done and
# the export must be a schema-valid rfl-series document whose queue
# counters saw the executed campaign.
for _ in $(seq 1 50); do
    curl -fsS "$BASE/seriesz" > "$WORK/series.json"
    SAMPLES_NOW=$(python3 -c 'import json,sys;
print(json.load(open(sys.argv[1]))["samples"])' "$WORK/series.json")
    [ "$SAMPLES_NOW" -gt $((SAMPLES_BEFORE + 2)) ] && break
    sleep 0.1
done
[ "$SAMPLES_NOW" -gt $((SAMPLES_BEFORE + 2)) ] || {
    echo "FAIL: sampler stuck at $SAMPLES_NOW samples" \
         "(was $SAMPLES_BEFORE before submit)"; exit 1; }
python3 tools/check_bench_schema.py "$WORK/series.json"
python3 - "$WORK/series.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
series = {s["name"]: s["points"] for s in doc["series"]}
assert "rfl_queue_depth" in series, sorted(series)[:20]
rate = series.get("rfl_queue_executed_total:rate", [])
assert any(p and p > 0 for p in rate), \
    "executed-campaign rate never moved: %r" % rate
print(f"seriesz OK: {len(series)} series, {doc['samples']} samples")
EOF

# The dashboard is one self-contained page: sparklines inline, no
# scripts, no external fetches.
curl -fsS "$BASE/dashz" > "$WORK/dash.html"
grep -q '<!DOCTYPE html>' "$WORK/dash.html"
grep -q '<svg' "$WORK/dash.html"
grep -q 'Queue depth' "$WORK/dash.html"
! grep -q '<script' "$WORK/dash.html"
echo "dashz OK: $(wc -c < "$WORK/dash.html") bytes, self-contained"

# /profilez: a real capture and its flamegraph.
curl -fsS "$BASE/profilez?seconds=0.3" > "$WORK/profile.json"
python3 tools/check_bench_schema.py "$WORK/profile.json"
curl -fsS "$BASE/profilez?seconds=0.2&format=svg" > "$WORK/flame.svg"
grep -q '<svg' "$WORK/flame.svg"
echo "profilez OK: capture + flamegraph served"

# Graceful shutdown: SIGTERM must end the process with exit code 0.
kill -TERM "$SERVE_PID"
if ! wait "$SERVE_PID"; then
    echo "FAIL: daemon exited non-zero on SIGTERM"
    cat "$WORK/serve.log"
    exit 1
fi
grep -q "shutting down gracefully" "$WORK/serve.log"
echo "service smoke OK"
