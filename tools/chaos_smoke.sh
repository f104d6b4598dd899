#!/usr/bin/env bash
# Chaos-test the roofline-as-a-service daemon: run it with failpoints
# armed (RFL_FAILPOINTS) and assert the robustness contract holds
# under injected faults —
#   * transient cache-append faults are absorbed by retry (the
#     campaign still succeeds, rfl_retry_* counters move);
#   * a campaign with a spent `timeout =` budget lands in timed_out
#     (504 on artifacts, well-formed status JSON) while a concurrent
#     patient campaign completes;
#   * an injected artifact-stream fault degrades to a clean 503, and
#     the next fetch succeeds;
#   * dropped/garbled connections (http.accept / http.recv faults)
#     never crash or wedge the daemon;
#   * dedup still holds, /metricsz exposes rfl_failpoint_* and
#     rfl_retry_* families, and SIGTERM still exits 0;
#   * the roofline_campaign CLI exits 1, never aborts, on an injected
#     simulate fault (error or throw) and on a deadline that expires
#     mid-simulation, and prints the fatal line of concurrently failing
#     jobs exactly once;
#   * a trace recording whose writes fail exits 1 and leaves no
#     scratch file in the trace directory.
# Run by CI in both the Release and ASan/UBSan jobs:
#   tools/chaos_smoke.sh <build-dir>
set -euo pipefail

BUILD=${1:-build}
WORK=$(mktemp -d)
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

# Deterministic chaos: probabilistic failpoints draw from per-name
# streams seeded by the name, so this exact schedule reproduces.
#   cache.spill.append  first two evaluations fail -> exercised retry
#   job.simulate        every simulate stage stalls 200 ms; campaign A's
#                       0.1 s budget is shorter than one stall, so it
#                       must blow even though its jobs run in parallel
#   api.stream          first artifact fetch fails -> clean 503
#   http.recv           10% of requests die mid-read
#   http.accept         5% of connections dropped at accept
export RFL_FAILPOINTS="cache.spill.append=error:count=2,\
job.simulate=sleep(200),\
api.stream=error:count=1,\
http.recv=error:p=0.1,\
http.accept=error:p=0.05"

"$BUILD"/roofline_serve --port 0 --port-file "$WORK/port" --quiet \
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
echo "daemon (chaos mode) on $BASE"
grep -q "failpoint(s) armed" "$WORK/serve.log" ||
    { echo "FAIL: daemon did not arm RFL_FAILPOINTS"; exit 1; }

# Every request may be eaten by http.recv/http.accept faults; a
# well-behaved client retries. The daemon must survive all of it.
req() { # req <curl args...> -> body on stdout
    local out
    for _ in $(seq 1 30); do
        if out=$(curl -fsS --max-time 10 "$@" 2>/dev/null); then
            printf '%s' "$out"
            return 0
        fi
        kill -0 "$SERVE_PID" || { echo "FAIL: daemon died" >&2; \
            cat "$WORK/serve.log" >&2; return 1; }
        sleep 0.05
    done
    echo "FAIL: request $* never succeeded in 30 tries" >&2
    return 1
}
status_of() { # status_of <url> -> HTTP status code (retries transport)
    local code
    for _ in $(seq 1 30); do
        code=$(curl -s --max-time 10 -o /dev/null -w '%{http_code}' \
            "$1" || true)
        [ "$code" != 000 ] && { printf '%s' "$code"; return 0; }
        sleep 0.05
    done
    printf '000'
}

req "$BASE/healthz" | grep -q '"status":"ok"'

# Campaign A: a whole-run budget the injected simulate stalls are
# guaranteed to blow (each job's 200 ms stall > 0.1 s; measure jobs
# run beside the ceiling probe, so stalls do not add up).
SPEC_TIMEOUT='name = chaos-timeout
machine = small
kernel = daxpy:n=4096
kernel = sum:n=4096
timeout = 0.1
variant = cold-1c: protocol=cold cores=0 reps=1'

# Campaign B: same shape, no budget — must complete despite the same
# stalls and the injected cache-append faults.
SPEC_PATIENT='name = chaos-patient
machine = small
kernel = daxpy:n=4096
kernel = sum:n=4096
variant = cold-1c: protocol=cold cores=0 reps=1'

# Specs go through files, not pipes: req() retries after injected
# connection faults, and a pipe cannot be replayed.
printf '%s\n' "$SPEC_TIMEOUT" > "$WORK/spec_a"
printf '%s\n' "$SPEC_PATIENT" > "$WORK/spec_b"

ID_A=$(req -X POST --data-binary @"$WORK/spec_a" \
    "$BASE/v1/campaigns" |
    python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
ID_B=$(req -X POST --data-binary @"$WORK/spec_b" \
    "$BASE/v1/campaigns" |
    python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
echo "tickets: timeout=$ID_A patient=$ID_B"

poll() { # poll <id> <want-state> <fail-states...>
    local id=$1 want=$2 state
    shift 2
    for _ in $(seq 1 600); do
        state=$(req "$BASE/v1/campaigns/$id" | python3 -c \
            'import json,sys; print(json.load(sys.stdin)["state"])')
        [ "$state" = "$want" ] && return 0
        for bad in "$@"; do
            [ "$state" = "$bad" ] && { echo "FAIL: $id hit '$state'" \
                "(wanted '$want')"; req "$BASE/v1/campaigns/$id"; \
                return 1; }
        done
        sleep 0.1
    done
    echo "FAIL: $id stuck (wanted '$want')"
    return 1
}

poll "$ID_A" timed_out done failed
poll "$ID_B" done failed timed_out

# The timed-out ticket reports a well-formed status with the deadline
# error, and its artifact routes answer 504 — never a hang.
req "$BASE/v1/campaigns/$ID_A" | python3 -c '
import json, sys
s = json.load(sys.stdin)
assert s["state"] == "timed_out", s
assert "deadline exceeded" in s["error"], s
print("timed_out status OK:", s["error"])'
CODE=$(status_of "$BASE/v1/campaigns/$ID_A/analysis")
[ "$CODE" = 504 ] || { echo "FAIL: timed-out analysis gave $CODE," \
    "want 504"; exit 1; }

# api.stream=error:count=1 eats exactly one artifact fetch: first a
# clean 503, then the real document.
CODE=$(status_of "$BASE/v1/campaigns/$ID_B/analysis")
[ "$CODE" = 503 ] || { echo "FAIL: injected stream fault gave $CODE," \
    "want 503"; exit 1; }
req "$BASE/v1/campaigns/$ID_B/analysis" > "$WORK/analysis.json"
python3 tools/check_bench_schema.py "$WORK/analysis.json"

# Dedup must hold under chaos: resubmitting B joins the done ticket.
req -X POST --data-binary @"$WORK/spec_b" "$BASE/v1/campaigns" |
    grep -q '"deduplicated":true'

# Connection churn: hammer endpoints through the lossy accept/recv
# path. Individual requests may die; the daemon must not.
for i in $(seq 1 60); do
    curl -s --max-time 5 -o /dev/null "$BASE/healthz" || true
    curl -s --max-time 5 -o /dev/null "$BASE/statsz" || true
done
kill -0 "$SERVE_PID" || { echo "FAIL: daemon died under churn"; \
    cat "$WORK/serve.log"; exit 1; }
req "$BASE/healthz" | grep -q '"status":"ok"'

# The registry must expose the chaos itself: failpoint triggers and
# absorbed retries are first-class metric families.
req "$BASE/metricsz" > "$WORK/metrics.prom"
python3 - "$WORK/metrics.prom" <<'EOF'
import sys

families = {}
for line in open(sys.argv[1]):
    if line.startswith("#") or not line.strip():
        continue
    name, _, value = line.rpartition(" ")
    family = name.split("{", 1)[0]
    families[family] = families.get(family, 0.0) + float(value)

def require_positive(family):
    if families.get(family, 0.0) <= 0.0:
        sys.exit(f"FAIL: /metricsz {family} = "
                 f"{families.get(family, '<absent>')}; chaos run must "
                 f"move fault-injection counters")

require_positive("rfl_failpoint_triggers_total")
require_positive("rfl_retry_attempts_total")
require_positive("rfl_retry_success_total")
require_positive("rfl_queue_timed_out")
require_positive("rfl_queue_executed_total")
print("chaos metricsz OK:",
      f"triggers={families['rfl_failpoint_triggers_total']:.0f}",
      f"retries={families['rfl_retry_attempts_total']:.0f}")
EOF

# Graceful shutdown still works with failpoints armed.
kill -TERM "$SERVE_PID"
if ! wait "$SERVE_PID"; then
    echo "FAIL: daemon exited non-zero on SIGTERM under chaos"
    cat "$WORK/serve.log"
    exit 1
fi
grep -q "shutting down gracefully" "$WORK/serve.log"

# The CLI maps every error escaping a run to exit status 1 with one
# log line; an uncaught exception would abort with 134.
expect_exit1() { # expect_exit1 <label> <stderr-pattern> <env...>
    local label=$1 pattern=$2 rc=0
    shift 2
    env "$@" "$BUILD"/roofline_campaign --file "$WORK/cli_spec" \
        --cache "" > "$WORK/cli.out" 2> "$WORK/cli.err" || rc=$?
    [ "$rc" = 1 ] || { echo "FAIL: $label exited $rc, want 1"; \
        cat "$WORK/cli.err"; exit 1; }
    grep -q "$pattern" "$WORK/cli.err" || { echo "FAIL: $label" \
        "stderr lacks '$pattern'"; cat "$WORK/cli.err"; exit 1; }
    echo "cli $label: exit 1 OK"
}
printf '%s\n' "$SPEC_PATIENT" > "$WORK/cli_spec"
expect_exit1 "simulate=error" "injected fault" \
    RFL_OUT_DIR="$WORK/cli" RFL_FAILPOINTS=job.simulate=error
# Several jobs fail at once (probe and measure run side by side); the
# error reaches the main thread once and the process exits once.
FATAL_LINES=$(grep -c "fatal: campaign: injected fault" "$WORK/cli.err" ||
    true)
[ "$FATAL_LINES" = 1 ] || { echo "FAIL: simulate=error printed the" \
    "fatal line $FATAL_LINES times, want 1"; cat "$WORK/cli.err"; exit 1; }
expect_exit1 "simulate=throw" "failpoint 'job.simulate'" \
    RFL_OUT_DIR="$WORK/cli" RFL_FAILPOINTS=job.simulate=throw
# A budget that expires while daxpy streams 128 MiB through the
# simulator: the deadline fires at a batch hand-over, not between
# stages.
printf '%s\n' 'name = cli-deadline
machine = small
kernel = daxpy:n=8388608
timeout = 0.2
variant = cold-1c: protocol=cold cores=0 reps=1' > "$WORK/cli_spec"
expect_exit1 "timeout" "deadline exceeded" \
    RFL_OUT_DIR="$WORK/cli" RFL_FAILPOINTS=
# A failed recording removes its scratch file: in the daemon every
# failed attempt would otherwise leave one in the shared trace dir.
printf '%s\n' 'name = cli-trace-fault
machine = small
trace = daxpy:n=65536
variant = cold-1c: protocol=cold cores=0 reps=1' > "$WORK/cli_spec"
expect_exit1 "trace.write=error" "short write" \
    RFL_OUT_DIR="$WORK/cli" RFL_FAILPOINTS=trace.write=error
LEFT=$(find "$WORK/cli/traces" -name '.recording-*' | wc -l)
[ "$LEFT" = 0 ] || { echo "FAIL: failed recording left $LEFT" \
    "scratch file(s)"; ls -A "$WORK/cli/traces"; exit 1; }
echo "chaos smoke OK"
