#!/usr/bin/env python3
"""Scaling-slope gate over a `perfbench --trace 1` run.

Reads perfbench's standard output on stdin; its last line is the result
JSON. Fails when the run was not correct, or when PMEM-Spec's host cost
per simulated op (`core.run_ns_per_op.PMEM-Spec`) exceeds RATIO times the
median of the other designs' `core.run_ns_per_op`. Both sides are
measured in the same process on the same machine, so the ratio does not
depend on runner speed. A design-specific slow path in the run loop (as
the event wheel's quadratic overflow migration once was, at 5.6x on
`scale-64c`) shows up as a ratio far above 1.

    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \\
        --workload scale-64c --trace 1 --seconds 5 | python3 scripts/check_scaling_slope.py
"""

import json
import statistics
import sys

RATIO = 2.5
PREFIX = "core.run_ns_per_op."
SUBJECT = "PMEM-Spec"


def main() -> int:
    lines = [line for line in sys.stdin.read().splitlines() if line.strip()]
    if not lines:
        print("scaling gate: no perfbench output on stdin")
        return 1
    result = json.loads(lines[-1])
    if not result.get("correct"):
        print(f"scaling gate: perfbench run was not correct: {lines[-1]}")
        return 1
    per_design = {
        name[len(PREFIX):]: m["value"]
        for name, m in result["metrics"].items()
        if name.startswith(PREFIX)
    }
    if SUBJECT not in per_design or len(per_design) < 2:
        print(f"scaling gate: missing {PREFIX}* metrics (run with --trace 1)")
        return 1
    subject = per_design.pop(SUBJECT)
    others = statistics.median(per_design.values())
    ratio = subject / others
    listing = ", ".join(f"{d} {v:.0f}" for d, v in sorted(per_design.items()))
    print(
        f"scaling gate: {SUBJECT} {subject:.0f} ns/op vs median {others:.0f} ns/op "
        f"of the others ({listing}): {ratio:.2f}x (limit {RATIO}x)"
    )
    if ratio > RATIO:
        print(f"scaling gate: FAIL, {SUBJECT} exceeds {RATIO}x the other designs")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
