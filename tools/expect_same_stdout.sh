#!/bin/sh
# Runs a command twice, the second time with extra arguments, and
# passes only when both runs exit 0 and print the same stdout, so the
# extra arguments are shown not to change the answer.
#
# Usage: expect_same_stdout.sh <out-prefix> "<extra args>" <command> [args...]
#
# The two outputs are kept as <out-prefix>.first / <out-prefix>.second.
set -u

OUT=$1
EXTRA=$2
shift 2

if ! "$@" >"$OUT.first"; then
    echo "expect_same_stdout: '$*' failed" >&2
    exit 1
fi
# $EXTRA is split on spaces on purpose.
if ! "$@" $EXTRA >"$OUT.second"; then
    echo "expect_same_stdout: '$* $EXTRA' failed" >&2
    exit 1
fi
if ! diff -u "$OUT.first" "$OUT.second"; then
    echo "expect_same_stdout: '$EXTRA' changed the output of '$*'" >&2
    exit 1
fi
echo "expect_same_stdout: '$EXTRA' leaves the output of '$*' unchanged"
