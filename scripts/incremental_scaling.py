#!/usr/bin/env python3
"""Measure what the incremental builder spends as the tree grows, for the
cheap insertion order (children before parents) and the adversarial one
(two balanced subtrees fed alternately across a long path).

Prints one table per regime with messages and bits, plus the fitted
log-log slope of the messages.

Usage: python scripts/incremental_scaling.py [--sizes 50,100,200,400,800]
"""

import argparse

from treesweep.experiments import (best_case_instance, loglog_slope,
                                   measure_counters, worst_case_instance)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--sizes", default="50,100,200,400,800")
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]
    for kind in ("best", "worst"):
        points = []
        print(f"# {kind} case")
        print("n messages bits messages/n")
        for n in sizes:
            edges = (best_case_instance(n) if kind == "best"
                     else worst_case_instance(n))
            c = measure_counters(edges, n)
            points.append((n, c.messages))
            print(f"{n} {c.messages} {c.bits} {c.messages / n:.2f}")
        print(f"slope={loglog_slope(points):.3f}")
        print()


if __name__ == "__main__":
    main()
