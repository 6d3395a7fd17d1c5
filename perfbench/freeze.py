#!/usr/bin/env python3
"""Recompute random_values.json: pn, ns and es of every pooled random tree
of static-shallow, through the same compute calls the benchmark makes.

    python3 perfbench/freeze.py > perfbench/random_values.json

The committed file holds the values the program gave when the benchmark
was defined; the benchmark checks later answers against it.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
from treesweep import cli  # noqa: E402


def main() -> None:
    values = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(inputs.RANDOM_POOL):
            path = Path(tmp) / "tree.txt"
            path.write_text(inputs.random_input(seed, {}).text)
            row = {}
            for param in ("pn", "ns", "es"):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    if cli.main(["compute", str(path), "--param", param]) != 0:
                        raise SystemExit(f"tree {seed} {param}: compute failed")
                row[param] = int(buf.getvalue().split()[1].split("=")[1])
            values[str(seed)] = row
    rows = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in values.items()]
    print("{\n" + ",\n".join(rows) + "\n}")


if __name__ == "__main__":
    main()
