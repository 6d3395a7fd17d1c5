#!/usr/bin/env python3
"""Fast check of the benchmark itself on tiny inputs (a few seconds).

    python3 perfbench/selftest.py

Checks the host-speed scaling on a busy loop, runs the benchmark's static
and dynamic passes, plain and traced, on small trees, requires every answer
and exact counter to check out, and requires the verifier to flag
deliberately corrupted answers.  Exits 1 on failure.
"""

from __future__ import annotations

import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import hostclock  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402

import treesweep  # noqa: E402
import treesweep.cli  # noqa: E402,F401

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def tiny_trees() -> list[inputs.TreeInput]:
    def tree(name, n, edges, values):
        return inputs.TreeInput(name, n, inputs.edge_text(n, edges), values)

    t1n, t1 = inputs.theorem1_edges(2)
    sn, spider = inputs.spider_edges((4, 4, 4))
    cn, cat = inputs.caterpillar_edges(4, 2)
    return [
        tree("path10", 10, [(i, i + 1) for i in range(9)], {"pn": 2, "ns": 2, "es": 1}),
        tree("star6", 7, [(0, i) for i in range(1, 7)], {"pn": 1, "ns": 2, "es": 2}),
        tree("spider4x3", sn, spider, {"pn": 3, "ns": 3, "es": 2}),
        tree("caterpillar4x2", cn, cat, {"pn": 2, "ns": 2, "es": 2}),
        tree("theorem1_2", t1n, t1, {"pn": 2, "ns": 3, "es": 3}),
        tree("random50", 50, inputs.prufer_edges(50, 7), {}),
    ]


def static_checks(workdir: Path, clock: hostclock.Clock) -> None:
    trees = tiny_trees()
    work = run.StaticWorkload(trees, 3, workdir)
    work.setup(treesweep, clock)
    plain = run.run_passes(work, 0)
    expect(not plain.problems and plain.failed == 0,
           f"tiny static pass checks out {plain.problems[:3]}")
    want = [verify.expected_counters(t.n, p) for t, p in work.calls]
    expect(plain.counters == [(sum(w[0] for w in want), sum(w[1] for w in want))],
           "static messages and bits are n - 1 and (n - 1)(ceil(log3 n) + 2 [+1 for ns])")
    _, traced, tracer = run.traced_run(work)
    expect(not traced.problems and tracer.tallies["codec.bits"] == traced.counters[0][1],
           "traced pass: codec.bits equals the reported bits")

    wrong = [replace(t, expect={**t.expect, "pn": 9}) if t.name == "path10" else t
             for t in trees]
    bad = run.StaticWorkload(wrong, 3, workdir)
    bad.setup(treesweep, clock)
    res = run.run_passes(bad, 0)
    expect(res.failed == 1 and any("pn=2, want 9" in p for p in res.problems),
           "a wrong value fails its call")

    path = next(t for t in trees if t.name == "path10")
    adj = verify.adjacency(path.text)
    good = verify.ComputeOutput(2, 9, 9 * 5, 10, 2,
                                [("P", 0)] + [a for v in range(1, 10)
                                              for a in (("P", v), ("R", v - 1))] + [("R", 9)])
    expect(verify.check_call(10, "pn", path.expect, good, adj) == [],
           "a hand-written two-agent path strategy checks out")
    for label, broken in [
        ("bits", replace(good, bits=good.bits + 1)),
        ("messages", replace(good, messages=8)),
        ("strategy peak", replace(good, peak=3)),
        ("illegal strategy", replace(good, actions=good.actions[1:])),
        ("wasteful strategy", replace(good, actions=[("P", v) for v in range(10)]
                                      + [("R", v) for v in range(10)])),
    ]:
        expect(verify.check_call(10, "pn", path.expect, broken, adj) != [],
               f"corrupted {label} is flagged")
    expect(verify.check_relations({"pn": 1, "ns": 3, "es": 3}) != []
           and verify.check_relations({"pn": 3, "ns": 3, "es": 1}) != [],
           "values breaking ns-1 <= pn <= ns or es in {ns-1, ns} are flagged")


def dynamic_checks(clock: hostclock.Clock) -> None:
    counts = {"queries": 60, "reroots": 30, "rejoins": 30}
    work = run.DynamicWorkload(5, n=60, spine=20, **counts)
    work.setup(treesweep, clock)
    plain = run.run_passes(work, 0)
    expect(not plain.problems and plain.failed == 0,
           f"tiny dynamic pass checks out {plain.problems[:3]}")
    expect(plain.counters[0][0] == sum(op.messages for op in work.ops),
           "dynamic messages equal 2 per reroot hop plus 1 per added edge")
    _, traced, _ = run.traced_run(work)
    expect(not traced.problems and traced.counters == plain.counters,
           "traced dynamic pass repeats the plain one")

    i = next(i for i, op in enumerate(work.ops) if op.messages)
    work.ops[i] = replace(work.ops[i], messages=work.ops[i].messages + 1)
    res = run.run_passes(work, 0)
    expect(res.failed == 1 and any("messages, want" in p for p in res.problems),
           "an operation sending other than its modelled messages fails")
    work.ops[i] = replace(work.ops[i], messages=work.ops[i].messages - 1)

    q = next(i for i, op in enumerate(work.ops) if op.kind == "query")
    work.ops[q] = replace(work.ops[q], root=(work.ops[q].root + 1) % work.n)
    res = run.run_passes(work, 0)
    expect(res.failed == 1 and any("want [" in p for p in res.problems),
           "a query answered from a root other than the modelled one fails")
    work.ops[q] = replace(work.ops[q], root=(work.ops[q].root - 1) % work.n)

    value_of = treesweep.DynamicForest.value_of
    treesweep.DynamicForest.value_of = lambda df, v: value_of(df, v) + 1
    try:
        res = run.run_passes(work, 0)
    finally:
        treesweep.DynamicForest.value_of = value_of
    expect(res.failed == counts["queries"] and any("held at root" in p for p in res.problems),
           "every query answering other than the value held at its root fails")


def clock_checks(clock: hostclock.Clock) -> None:
    first, handler_s = len(clock.samples), clock.handler_s
    with clock.group() as g:
        t0, n0 = time.perf_counter(), clock.now()
        while time.perf_counter() - t0 < 0.3:
            pass
        wall, timed = time.perf_counter() - t0, clock.now() - n0
    taken = clock.samples[first:]
    expect(len(taken) >= 5, f"the reference runs before, after and every 50 ms inside "
                            f"a group ({len(taken)} samples in 0.3 s)")
    inside = clock.handler_s - handler_s
    expect(inside >= sum(taken[1:-1]) and abs(wall - timed - inside) < 1e-3,
           "time spent in the reference is left out of the operations' time")
    expect(abs(g.factor - hostclock.NOMINAL_S / statistics.fmean(taken)) < 1e-12,
           "a group's times are scaled by the nominal over the mean reference time")


def main() -> int:
    clock = hostclock.Clock()
    clock_checks(clock)
    with tempfile.TemporaryDirectory() as tmp:
        static_checks(Path(tmp), clock)
    dynamic_checks(clock)
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
