#!/usr/bin/env python3
"""Floor check for the bench_sim_core event-core microbenchmark.

Reads google-benchmark JSON output (``--benchmark_format=json``) and
fails when any pinned benchmark's ``ev_per_s`` counter drops below its
floor. The floors are deliberately loose — around 4-8x below the rates
a developer laptop reaches — so they catch an event-core regression
(an accidental O(n) scan, a heap allocation on the hot path) without
flaking on slow shared CI runners. A ratio check also holds the
poll-grid benchmark at 64 parked pollers to a fraction of its rate at
one, so grid cost that grows with the parked count fails too.

Usage:
    ./bench_sim_core --benchmark_format=json > sim_core.json
    python3 tools/check_sim_core.py sim_core.json
"""

import json
import sys

# benchmark-name prefix -> minimum events/sec. Reference rates on one
# 2.1 GHz core (2026-08): HotWindow 36-43M, ShortDelays 28M,
# MixedHorizon 20M, Periodic 22M, CoroutineResume 39M. The seed
# priority-queue + std::function core sat in the 5-10M range, so these
# floors also assert "never slower than the pre-refactor core".
FLOORS = {
    "BM_HotWindow/1": 7.0e6,
    "BM_HotWindow/16": 6.0e6,
    "BM_ShortDelays": 5.0e6,
    "BM_MixedHorizon": 3.5e6,
    "BM_Periodic/64": 4.0e6,
    "BM_CoroutineResume": 6.0e6,
    # Poll-grid parking (DESIGN.md §11) on a shared 2.0 GHz VM: 11-19M
    # at /1, 9-13M at /16 and 7-12M at /64; the per-member-sweep grid
    # it replaced managed 1.2-1.8M at /64.
    "BM_GridPark/1": 3.0e6,
    "BM_GridPark/16": 2.5e6,
    "BM_GridPark/64": 2.0e6,
}

# (numerator, denominator, minimum ratio): a grid whose park, wake or
# dispatch cost grows with the number of parked pollers fails here
# long before it crosses the absolute floors.
SCALING = [
    ("BM_GridPark/64", "BM_GridPark/1", 0.25),
]


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as f:
        doc = json.load(f)

    seen = set()
    rates = {}
    failures = []
    for bench in doc.get("benchmarks", []):
        name = bench.get("name", "")
        for prefix, floor in FLOORS.items():
            # Exact name, or prefix followed by a non-digit (so
            # "BM_HotWindow/16" never matches the "/1" floor but
            # repetition suffixes like "/repeats:3" still do).
            if name != prefix and not (
                    name.startswith(prefix) and
                    not name[len(prefix):][:1].isdigit()):
                continue
            rate = bench.get("ev_per_s")
            if rate is None:
                failures.append(f"{name}: no ev_per_s counter")
                continue
            seen.add(prefix)
            rates.setdefault(prefix, rate)
            status = "ok" if rate >= floor else "FAIL"
            print(f"{status:4s} {name}: {rate:.3e} ev/s "
                  f"(floor {floor:.1e})")
            if rate < floor:
                failures.append(
                    f"{name}: {rate:.3e} ev/s below floor {floor:.1e}")

    for prefix in FLOORS:
        if prefix not in seen:
            failures.append(f"missing benchmark: {prefix}")

    for num, den, minimum in SCALING:
        if num not in rates or den not in rates:
            continue  # already reported missing
        ratio = rates[num] / rates[den]
        status = "ok" if ratio >= minimum else "FAIL"
        print(f"{status:4s} {num} / {den}: {ratio:.2f} (minimum {minimum})")
        if ratio < minimum:
            failures.append(
                f"{num} runs at {ratio:.2f}x of {den}, below {minimum}x")

    if failures:
        print("\nevent-core floor check FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("event-core floor check passed "
          f"({len(seen)}/{len(FLOORS)} benchmarks)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
