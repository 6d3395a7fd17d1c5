#!/usr/bin/env python3
"""Measure what the incremental builder spends as the tree grows, for the
cheap insertion order (children before parents) and the adversarial one
(two balanced subtrees fed alternately across a long path).

Prints one table per regime with messages and bits, plus the fitted
log-log slope of the messages when at least two distinct sizes are given.
Sizes below 4 have no adversarial instance: the script then prints an
`error: ...` line and exits with status 2, as it does for a size that is
not an integer.

Usage: python scripts/incremental_scaling.py [--sizes 50,100,200,400,800]
"""

import argparse
import sys

from treesweep.experiments import loglog_slope, scaling_table
from treesweep.forest import ArgumentError


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--sizes", default="50,100,200,400,800")
    args = parser.parse_args()
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
        tables = {kind: scaling_table(sizes, kind) for kind in ("best", "worst")}
    except (ArgumentError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    for kind, rows in tables.items():
        print(f"# {kind} case")
        print("n messages bits messages/n")
        for n, messages, bits in rows:
            print(f"{n} {messages} {bits} {messages / n:.2f}")
        try:
            print(f"slope={loglog_slope(rows):.3f}")
        except ArgumentError:  # a single size has no slope
            pass
        print()


if __name__ == "__main__":
    main()
