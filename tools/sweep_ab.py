#!/usr/bin/env python3
"""Same-runner A/B gate on sweep and optimize times (the CI perf gate).

Usage: sweep_ab.py BASE_BIN HEAD_BIN

Both arguments are perf_microbench binaries, one built at the base
commit and one at HEAD.  Each side runs `BIN --sweep-bench-out FILE`
ten times, in pairs that alternate which side runs first.  One run
times the 1,008,000-point Case Study I sweep (the last element of the
record's `runs` list), from record schema 4 on the ranking of its rows
(the seconds in the record's `rank` object), from schema 3 on
`amped optimize` on the same grid (the median seconds in the record's
`optimize` object) and, from schema 5 on, AmpedModel::evaluate over
Case Study I points (the median pass's seconds in the record's
`evaluate` object), the path each serve `eval` and `report` request
takes.

Each timing fails the gate (exit 1) only when both hold:
  - HEAD's median seconds exceed the base's by more than 25 %, the
    timing bound BENCHMARK.json sets for the repository benchmark;
  - HEAD is slower in at least 9 of the 10 pairs.
Both sides run on the same machine in the same minutes, so host speed
cancels out and no checked-in baseline is needed.  A timing that a
base built before its record existed lacks is left out, with a notice;
the others are still gated.
Exit 2 means a run failed or the command line was wrong.
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


# Gated timings, each with the record schema that added it.
TIMINGS = {"sweep": 1, "rank": 4, "optimize": 3, "evaluate": 5}


def run_seconds(binary, record_path):
    """Returns {timing: seconds, or None when the record lacks it}."""
    subprocess.run([binary, "--sweep-bench-out", record_path], check=True)
    with open(record_path) as record:
        data = json.load(record)
    seconds = {"sweep": float(data["runs"][-1]["seconds"])}
    for name in ("rank", "optimize", "evaluate"):
        found = data.get(name)
        seconds[name] = float(found["seconds"]) if found else None
    return seconds


def gate(name, pairs):
    """Prints the verdict on (base, head) pairs; True when HEAD fails."""
    base_median = statistics.median(base for base, _ in pairs)
    head_median = statistics.median(head for _, head in pairs)
    change = head_median / base_median - 1.0
    slower = sum(1 for base, head in pairs if head > base)
    print(f"{name}: median base {base_median:.4f} s, head "
          f"{head_median:.4f} s ({change:+.1%}); head slower in "
          f"{slower}/{len(pairs)} pairs")
    if change > BOUND and slower >= MIN_SLOWER_PAIRS:
        print(f"sweep_ab: FAIL: {name}: head is more than {BOUND:.0%} "
              f"slower and lost {slower} of {len(pairs)} pairs",
              file=sys.stderr)
        return True
    return False


def main(argv):
    if len(argv) != 3:
        print("usage: sweep_ab.py BASE_BIN HEAD_BIN", file=sys.stderr)
        return 2
    binaries = {"base": argv[1], "head": argv[2]}
    pairs = {name: [] for name in TIMINGS}
    with tempfile.TemporaryDirectory() as scratch:
        record_path = os.path.join(scratch, "BENCH_sweep.json")
        for pair in range(PAIRS):
            order = ["base", "head"] if pair % 2 == 0 else ["head", "base"]
            seconds = {}
            for side in order:
                try:
                    seconds[side] = run_seconds(binaries[side],
                                                record_path)
                except (OSError, subprocess.CalledProcessError,
                        KeyError, TypeError, ValueError) as error:
                    print(f"sweep_ab: {side} run failed: {error}",
                          file=sys.stderr)
                    return 2
            parts = []
            for name in TIMINGS:
                base = seconds["base"][name]
                head = seconds["head"][name]
                if base is not None and head is not None:
                    pairs[name].append((base, head))
                    parts.append(f"{name} base {base:.4f} s, head "
                                 f"{head:.4f} s")
            print(f"pair {pair + 1} ({order[0]} first): "
                  + "; ".join(parts), flush=True)

    failed = False
    for name, schema in TIMINGS.items():
        if len(pairs[name]) == PAIRS:
            failed = gate(name, pairs[name]) or failed
        else:
            print(f"::notice::a record has no {name} timing (a build "
                  f"older than record schema {schema}); {name} is not "
                  f"gated")
    if failed:
        return 1
    print("sweep_ab: pass")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
