#!/usr/bin/env sh
# Crash-recovery smoke test: kill -9 a rest_server mid-experiment and
# restart it on the same --journal-dir. The journal must bring every
# accepted job back — the mid-flight run resumes from its tuner checkpoint,
# the queued ones re-run in submission order — and idempotent retries must
# keep answering the original job id across the restart.
#
#   scripts/crash_recovery_smoke.sh path/to/build-dir
#
# Exercises the real process-level path (SIGKILL, ephemeral ports, curl)
# rather than the in-process teardown the recovery_test unit suite uses.
set -eu

BUILD_DIR="${1:?usage: crash_recovery_smoke.sh <build-dir>}"
SERVER="$BUILD_DIR/examples/rest_server"
if [ ! -x "$SERVER" ]; then
  echo "crash_recovery_smoke: rest_server not found under $BUILD_DIR" >&2
  exit 1
fi

WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

CSV="examples/data/banknotes.csv"
JOURNAL="$WORK/journal"
fail() {
  echo "crash_recovery_smoke: FAIL ($1)" >&2
  exit 1
}

# Starts the server on an ephemeral port; sets SERVER_PID and PORT.
start_server() {
  "$SERVER" --port 0 --journal-dir "$JOURNAL" --job-workers 1 \
    >"$WORK/server.log" 2>&1 &
  SERVER_PID=$!
  PORT=""
  i=0
  while [ $i -lt 100 ]; do
    PORT="$(sed -n 's|.*http://127\.0\.0\.1:\([0-9]*\).*|\1|p' \
      "$WORK/server.log" | head -1)"
    [ -n "$PORT" ] && return 0
    kill -0 "$SERVER_PID" 2>/dev/null || fail "server died on startup"
    sleep 0.1
    i=$((i + 1))
  done
  fail "server never printed its listening port"
}

# get PATH_SUFFIX -> response body on stdout.
get() { curl -sf "http://127.0.0.1:$PORT$1"; }

# job_field RUN_ID FIELD -> the field's raw JSON value ("" when absent).
job_field() {
  get "/v1/runs/$1" |
    sed -n "s#.*\"$2\":\(\"[^\"]*\"\|[a-z0-9.]*\).*#\1#p" | head -1
}

# Polls until the job reaches FIELD == VALUE or times out. The iteration
# budget (default 300 x 0.2s = 60s) is overridable because sanitizer builds
# run the recovered tuning loop an order of magnitude slower
# (scripts/tier1.sh raises it for the TSan/ASan legs).
WAIT_ITERS="${SMARTML_SMOKE_WAIT_ITERS:-300}"
wait_for() {
  i=0
  while [ "$i" -lt "$WAIT_ITERS" ]; do
    [ "$(job_field "$1" "$2")" = "$3" ] && return 0
    sleep 0.2
    i=$((i + 1))
  done
  fail "$1 never reached $2=$3 (last: $(job_field "$1" "$2"))"
}

# 1. First server generation: one long tuning run (slow_train stretches
#    every fold evaluation so it is reliably mid-flight when killed) and two
#    quick runs queued behind it on the single experiment worker.
SMARTML_FAULT=slow_train:200ms start_server

MID="$(curl -sf -X POST --data-binary @"$CSV" \
  "http://127.0.0.1:$PORT/v1/runs?budget=300&evals=400&nominations=1&name=midflight" |
  sed -n 's|.*"id":"\([^"]*\)".*|\1|p')"
[ -n "$MID" ] || fail "mid-flight submission returned no id"
Q1="$(curl -sf -X POST --data-binary @"$CSV" \
  "http://127.0.0.1:$PORT/v1/runs?budget=5&evals=6&name=queued_one" |
  sed -n 's|.*"id":"\([^"]*\)".*|\1|p')"
Q2="$(curl -sf -X POST --data-binary @"$CSV" \
  "http://127.0.0.1:$PORT/v1/runs?budget=5&evals=6&name=queued_two" |
  sed -n 's|.*"id":"\([^"]*\)".*|\1|p')"
[ -n "$Q1" ] && [ -n "$Q2" ] || fail "queued submissions returned no ids"

# 2. Wait until the long run is tuning (a checkpoint file proves the tuner
#    reached a resumable state), then kill the server without ceremony.
wait_for "$MID" state '"running"'
i=0
while [ "$i" -lt "$WAIT_ITERS" ]; do
  if ls "$JOURNAL/checkpoints/${MID}"*.ckpt >/dev/null 2>&1; then break; fi
  kill -0 "$SERVER_PID" 2>/dev/null || fail "server died while tuning"
  sleep 0.2
  i=$((i + 1))
done
ls "$JOURNAL/checkpoints/${MID}"*.ckpt >/dev/null 2>&1 ||
  fail "no tuner checkpoint appeared for $MID"

kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

# 3. Second generation on the same journal dir (no fault this time, so the
#    backlog drains quickly). Replay must re-admit all three runs.
start_server

wait_for "$MID" state '"done"'
[ "$(job_field "$MID" recovered)" = "true" ] ||
  fail "$MID did not report recovered:true after the restart"
[ "$(job_field "$MID" resumed_from_checkpoint)" = "true" ] ||
  fail "$MID did not resume from its tuner checkpoint"

wait_for "$Q1" state '"done"'
wait_for "$Q2" state '"done"'
[ "$(job_field "$Q1" recovered)" = "true" ] || fail "$Q1 not recovered"
[ "$(job_field "$Q2" recovered)" = "true" ] || fail "$Q2 not recovered"

# Re-admission preserved submission order: the mid-flight run dispatched
# first, then the two queued runs in their original order.
D_MID="$(job_field "$MID" dispatch_sequence)"
D_Q1="$(job_field "$Q1" dispatch_sequence)"
D_Q2="$(job_field "$Q2" dispatch_sequence)"
{ [ "$D_MID" -lt "$D_Q1" ] && [ "$D_Q1" -lt "$D_Q2" ]; } ||
  fail "recovered dispatch order wrong: $D_MID, $D_Q1, $D_Q2"

# 4. The journal and recovery metrics are live on /v1/metrics.
METRICS="$(get /v1/metrics)"
echo "$METRICS" | grep -q "smartml_journal_appends_total" ||
  fail "journal metrics missing from /v1/metrics"
RECOVERED="$(echo "$METRICS" |
  sed -n 's|^smartml_runs_recovered_total \([0-9]*\).*|\1|p')"
[ "${RECOVERED:-0}" -ge 3 ] ||
  fail "smartml_runs_recovered_total=$RECOVERED, expected >= 3"

# The durable writers left no *.tmp behind: startup compaction has finished
# and no tuner is writing, so a *.tmp at the journal dir's top level is a
# leak. The *.bak clauses cannot catch a leaked checkpoint *.bak, because a
# finished run's checkpoint files, *.bak included, are deleted when the run
# ends; PersistTest.CheckpointPutsAndCompactionLeaveNoBakOrTmp guards *.bak.
LEFTOVERS="$(find "$JOURNAL" -maxdepth 1 \( -name '*.tmp' -o -name '*.bak' \)
  find "$JOURNAL/checkpoints" -name '*.bak')"
[ -z "$LEFTOVERS" ] || fail "durable writes left files behind: $LEFTOVERS"

# 5. Idempotent retries return the original id — also across a restart,
#    because the key is journaled with the admission.
I1="$(curl -sf -X POST -H 'Idempotency-Key: smoke-retry' \
  --data-binary @"$CSV" \
  "http://127.0.0.1:$PORT/v1/runs?budget=5&evals=6&name=idem" |
  sed -n 's|.*"id":"\([^"]*\)".*|\1|p')"
I2="$(curl -sf -X POST -H 'Idempotency-Key: smoke-retry' \
  --data-binary @"$CSV" \
  "http://127.0.0.1:$PORT/v1/runs?budget=5&evals=6&name=idem" |
  sed -n 's|.*"id":"\([^"]*\)".*|\1|p')"
[ "$I1" = "$I2" ] || fail "idempotent retry admitted a duplicate ($I1 vs $I2)"

# 6. The SSE stream advertises a reconnect delay so dropped followers back
#    off sanely (completed runs replay their buffered events and close).
curl -sf --max-time 10 "http://127.0.0.1:$PORT/v1/runs/$Q1/events" |
  grep -q "^retry: " || fail "SSE stream missing the retry: directive"

echo "crash_recovery_smoke: OK"
