#!/usr/bin/env python3
"""Same-runner A/B gate on sweep throughput (the CI perf gate).

Usage: sweep_ab.py BASE_BIN HEAD_BIN

Both arguments are perf_microbench binaries, one built at the base
commit and one at HEAD.  Each side runs `BIN --sweep-bench-out FILE`
(the 1,008,000-point Case Study I sweep) ten times, in pairs that
alternate which side runs first, and the sweep seconds are read from
the last element of the record's `runs` list.

The gate fails (exit 1) only when both hold:
  - HEAD's median seconds exceed the base's by more than 25 %, the
    timing bound BENCHMARK.json sets for the repository benchmark;
  - HEAD is slower in at least 9 of the 10 pairs.
Both sides run on the same machine in the same minutes, so host speed
cancels out and no checked-in baseline is needed.  Exit 2 means a run
failed or the command line was wrong.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile

PAIRS = 10
BOUND = 0.25
MIN_SLOWER_PAIRS = 9


def sweep_seconds(binary, record_path):
    subprocess.run([binary, "--sweep-bench-out", record_path], check=True)
    with open(record_path) as record:
        return float(json.load(record)["runs"][-1]["seconds"])


def main(argv):
    if len(argv) != 3:
        print("usage: sweep_ab.py BASE_BIN HEAD_BIN", file=sys.stderr)
        return 2
    binaries = {"base": argv[1], "head": argv[2]}
    pairs = []
    with tempfile.TemporaryDirectory() as scratch:
        record_path = os.path.join(scratch, "BENCH_sweep.json")
        for pair in range(PAIRS):
            order = ["base", "head"] if pair % 2 == 0 else ["head", "base"]
            seconds = {}
            for side in order:
                try:
                    seconds[side] = sweep_seconds(binaries[side],
                                                  record_path)
                except (OSError, subprocess.CalledProcessError,
                        KeyError, ValueError) as error:
                    print(f"sweep_ab: {side} run failed: {error}",
                          file=sys.stderr)
                    return 2
            pairs.append((seconds["base"], seconds["head"]))
            print(f"pair {pair + 1} ({order[0]} first): "
                  f"base {seconds['base']:.3f} s, "
                  f"head {seconds['head']:.3f} s", flush=True)

    base_median = statistics.median(base for base, _ in pairs)
    head_median = statistics.median(head for _, head in pairs)
    change = head_median / base_median - 1.0
    slower = sum(1 for base, head in pairs if head > base)
    print(f"median base {base_median:.3f} s, head {head_median:.3f} s "
          f"({change:+.1%}); head slower in {slower}/{PAIRS} pairs")
    if change > BOUND and slower >= MIN_SLOWER_PAIRS:
        print(f"sweep_ab: FAIL: head is more than {BOUND:.0%} slower "
              f"and lost {slower} of {PAIRS} pairs", file=sys.stderr)
        return 1
    print("sweep_ab: pass")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
