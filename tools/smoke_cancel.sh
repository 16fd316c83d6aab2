#!/bin/sh
# Smoke-tests cooperative cancellation of the CLI end to end, on
# deliberately large optimize grids.  Answers are kept to --top 10, so
# each run is search, not output: the signal lands while the search
# is in flight, where cancellation acts, rather than while a large
# answer is being written.
#
#   sigint:   a SIGINT landing mid-search must exit 130 and still
#             flush a well-formed CSV of the deterministic
#             best-so-far prefix.
#   deadline: --deadline-ms 1 must stop the run, exit 124 (the
#             `timeout` convention), report the deadline on stderr,
#             and still flush well-formed CSV.
#   serve:    a SIGTERM landing while `amped serve --stdio` is mid-
#             request must exit 143 and still flush the in-flight
#             response as valid JSON with run_status "cancelled".
#
# Usage: smoke_cancel.sh <amped-binary> <work-dir> <sigint|deadline|serve>
set -u

AMPED=$1
WORK=$2
MODE=$3
mkdir -p "$WORK"

# 265 mappings x 8,000 batch sizes = 2.12M points, over half a second
# of search on a 4-core host.
BATCHES=$(python3 -c "print(','.join(str(256 + 8 * i) for i in range(8000)))")

# One flat argument string (no embedded spaces), so the sigint branch
# can background the binary itself — signalling a wrapper subshell
# would leave the real process running.
GRID_ARGS="optimize --model 145b --accel a100 --nodes 64 \
--per-node 8 --batches $BATCHES --top 10 --csv"

# The CSV must parse and be rectangular even when the run was cut
# short: a header row plus zero or more complete data rows.
check_csv() {
    python3 - "$WORK/out.csv" <<'EOF'
import csv
import sys

rows = list(csv.reader(open(sys.argv[1])))
assert rows, "cancelled run flushed no CSV at all"
width = len(rows[0])
assert width > 1, f"implausible CSV header: {rows[0]!r}"
for row in rows:
    assert len(row) == width, f"torn CSV row: {row!r}"
EOF
}

case "$MODE" in
sigint)
    # The signal must land while the search is in flight (a full run
    # takes 0.26-0.43 s on a 4-core host); on a faster machine the
    # first delay may lose the race, so shrink and retry.
    for delay in 0.15 0.1 0.05 0.02; do
        # shellcheck disable=SC2086 # deliberate word splitting
        "$AMPED" $GRID_ARGS >"$WORK/out.csv" 2>"$WORK/err.txt" &
        pid=$!
        sleep "$delay"
        kill -INT "$pid" 2>/dev/null
        wait "$pid"
        rc=$?
        if [ "$rc" -eq 130 ]; then
            check_csv || exit 1
            grep -q "stopped early (cancelled)" "$WORK/err.txt" || {
                echo "FAIL: no cancellation notice on stderr" >&2
                cat "$WORK/err.txt" >&2
                exit 1
            }
            echo "sigint smoke ok (signal after ${delay}s)"
            exit 0
        fi
        echo "delay ${delay}s: exit $rc (run finished first?); retrying" >&2
    done
    echo "FAIL: never interrupted the run mid-flight" >&2
    exit 1
    ;;
deadline)
    # shellcheck disable=SC2086 # deliberate word splitting
    "$AMPED" $GRID_ARGS --deadline-ms 1 \
        >"$WORK/out.csv" 2>"$WORK/err.txt"
    rc=$?
    if [ "$rc" -ne 124 ]; then
        echo "FAIL: expected exit 124 on deadline, got $rc" >&2
        cat "$WORK/err.txt" >&2
        exit 1
    fi
    grep -q "deadline-exceeded" "$WORK/err.txt" || {
        echo "FAIL: no deadline notice on stderr" >&2
        cat "$WORK/err.txt" >&2
        exit 1
    }
    check_csv || exit 1
    echo "deadline smoke ok"
    exit 0
    ;;
serve)
    # The same grid, phrased as a stream of 40 optimize requests, so a
    # request is in flight at every delay.  Each batch list is offset
    # by one step per request, so no request is answered from the
    # service cache.  Requests this large keep the stretch after a
    # search's last checkpoint (rendering the answer, teardown; ~15 ms)
    # a small share of each request.
    REQUESTS=$(python3 -c "
import json
for k in range(40):
    batches = [256 + 8 * (i + k) for i in range(8000)]
    print(json.dumps({'id': k + 1, 'method': 'optimize', 'params': {
        'model': '145b', 'nodes': 64, 'per-node': 8,
        'batches': batches, 'top': 10}}))
")
    # The transcript must hold only well-formed JSON lines, and the
    # last one must be the in-flight request flushed as a partial
    # result.  Exit 3 = the run completed before the signal (retry).
    check_transcript() {
        python3 - "$WORK/out.jsonl" <<'EOF'
import json
import sys

lines = [l for l in open(sys.argv[1]) if l.strip()]
if not lines:
    sys.exit(3)  # signal landed before the request began
responses = [json.loads(l) for l in lines]
last = responses[-1]
assert last["status"] == "ok", f"unexpected status: {last!r}"
if last["run_status"] == "completed":
    sys.exit(3)  # signal landed after the request finished
assert last["run_status"] == "cancelled", f"unexpected: {last!r}"
EOF
    }
    # As above: the signal must land mid-request.  The first delay
    # falls inside the first request; a later one can fall just after
    # a request's last checkpoint, which misses, so retry at others.
    # $! names the last pipeline component — the server binary
    # itself, not the feeder subshell (which dies on its own within
    # 5s).
    for delay in 0.15 0.3 0.5 0.05; do
        { printf '%s\n' "$REQUESTS"; sleep 5; } |
            "$AMPED" serve --stdio \
                >"$WORK/out.jsonl" 2>"$WORK/err.txt" &
        pid=$!
        sleep "$delay"
        kill -TERM "$pid" 2>/dev/null
        wait "$pid"
        rc=$?
        if [ "$rc" -ne 143 ]; then
            echo "delay ${delay}s: exit $rc (expected 143); retrying" >&2
            continue
        fi
        check_transcript
        check_rc=$?
        if [ "$check_rc" -eq 3 ]; then
            echo "delay ${delay}s: signal missed the request; retrying" >&2
            continue
        fi
        [ "$check_rc" -eq 0 ] || exit 1
        grep -q "serve stopped (cancelled)" "$WORK/err.txt" || {
            echo "FAIL: no cancellation notice on stderr" >&2
            cat "$WORK/err.txt" >&2
            exit 1
        }
        echo "serve smoke ok (SIGTERM after ${delay}s)"
        exit 0
    done
    echo "FAIL: never interrupted a serve request mid-flight" >&2
    exit 1
    ;;
*)
    echo "usage: smoke_cancel.sh <amped> <work-dir> <sigint|deadline|serve>" >&2
    exit 2
    ;;
esac
