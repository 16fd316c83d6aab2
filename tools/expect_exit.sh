#!/bin/sh
# Runs a command and passes only when it exits with exactly the
# expected status.  ctest's WILL_FAIL cannot tell a clean usage error
# (exit 2) from an abort (exit 134), so exit-code contracts use this.
#
# Usage: expect_exit.sh <status> <command> [args...]
set -u

EXPECTED=$1
shift
"$@"
rc=$?
if [ "$rc" -ne "$EXPECTED" ]; then
    echo "expect_exit: '$*' exited $rc, expected $EXPECTED" >&2
    exit 1
fi
echo "expect_exit: '$*' exited $rc as expected"
