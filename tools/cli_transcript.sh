#!/bin/sh
# Runs a fixed list of `amped` invocations and records each one's
# stdout, stderr and exit status in one transcript, byte for byte.
# With an expected transcript it also compares the two and fails on
# any difference, so a change to the CLI's tables, CSV, status lines,
# help text or exit codes shows up as a diff.
#
# Usage: cli_transcript.sh <amped> <transcript-out> [expected]
#
# Without <expected> it only writes the transcript; that is how the
# checked-in tests/cli_fixtures/cli_transcript.txt was made.
set -u

AMPED=$1
OUT=$2
EXPECTED=${3:-}

: >"$OUT"
WORK="$OUT.run"

run() {
    printf '$ amped %s\n' "$*" >>"$OUT"
    "$AMPED" "$@" >"$WORK.stdout" 2>"$WORK.stderr"
    rc=$?
    printf '%s\n' '--- stdout' >>"$OUT"
    cat "$WORK.stdout" >>"$OUT"
    printf '%s\n' '--- stderr' >>"$OUT"
    cat "$WORK.stderr" >>"$OUT"
    printf '%s %d\n' '--- exit' "$rc" >>"$OUT"
}

TINY="--model tiny --accel tiny --nodes 2 --per-node 2 --batch 64"
EVAL="$TINY --tp-intra 2 --dp-intra 1 --dp-inter 2"
SPLIT="$TINY --tp-intra 2 --pp-inter 2"
EXPLORE="$TINY --top 5"
OPTIMIZE="--model tiny --accel tiny --nodes 2 --per-node 2"
OPTIMIZE="$OPTIMIZE --batches 64,128 --top 5 --memory-check"

# The option lists are split on spaces on purpose.
run evaluate $EVAL
run evaluate $EVAL --csv
run breakdown $SPLIT
run breakdown $SPLIT --csv
run explore $EXPLORE
run explore $EXPLORE --csv
run optimize $OPTIMIZE
run optimize $OPTIMIZE --csv
run memory $TINY --tp-intra 2 --dp-inter 2 --zero 2
run report $SPLIT
run scale $TINY --max-nodes 8
run resilience $TINY --tp-intra 2 --dp-inter 2 \
    --device-mtbf-years 1 --mc-replications 64
run evaluate --no-such-option 1
run explore --no-such-option 1
run optimize --no-such-option 1
rm -f "$WORK.stdout" "$WORK.stderr"

if [ -n "$EXPECTED" ]; then
    if ! diff -u "$EXPECTED" "$OUT"; then
        echo "cli_transcript: $OUT differs from $EXPECTED" >&2
        exit 1
    fi
    echo "cli_transcript: matches $EXPECTED"
fi
