#!/usr/bin/env python3
"""treesweep benchmark: one closed-loop client, one operation at a time.

    python3 perfbench/run.py --workload static-shallow --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each exists):
  static-shallow  compute calls through treesweep.cli.main on random trees,
                  a theorem1 tower and a star (few peel rounds)
  static-deep     the same calls on a path, a spider and a caterpillar
                  (about n/2 peel rounds each)
  dynamic-churn   reroots, edge rejoins and value queries on a
                  DynamicForest built from a deep 3000-vertex tree

A run makes one full pass over the workload's operations, then goes on
passing over them until the next group of operations would end after
--seconds.  Every answer is checked.  Each operation's time is the median
of its repetitions, scaled to a nominal host speed (hostclock.py), and the
metrics count every operation of the workload once.  With --trace 0 the
last line reports the end-to-end metrics; with --trace 1 the run makes one
plain pass and one traced pass and reports per-layer metrics from the
traced one.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostclock  # noqa: E402
import inputs  # noqa: E402
import verify  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("static-shallow", "static-deep", "dynamic-churn")
IMPORT_SAMPLES = 15
FROM_TREE_SAMPLES = 7
DYN_GROUP = 48      # dynamic operations timed and scaled as one group
DYN_CHECKPOINTS = 6  # fresh run_static comparisons in a run's first pass


def median(xs):
    return statistics.median(xs) if xs else 0.0


def p99(xs):
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=100, method="inclusive")[98]


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def import_seconds(clock: hostclock.Clock) -> list[float]:
    """Scaled times to import treesweep in fresh interpreters.  One untimed
    import first writes the byte-code cache, also where the environment
    sets PYTHONDONTWRITEBYTECODE, so compilation is never counted."""
    code = ("import time; t = time.perf_counter(); import treesweep; "
            "print(time.perf_counter() - t)")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    samples = []
    for i in range(IMPORT_SAMPLES + 1):
        with clock.group(ticking=False) as g:
            done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                                  capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise SystemExit(f"cannot import treesweep from {SRC}:\n{done.stderr}")
        if i:
            samples.append(float(done.stdout) * g.factor)
    return samples


class Run:
    """Everything a run's passes did, per operation of the workload."""

    def __init__(self, size: int):
        self.times: list[list[float]] = [[] for _ in range(size)]  # scaled s
        self.bad = [False] * size
        self.executions = 0
        self.raw_s = 0.0
        self.passes = 0        # complete passes
        self.counters: list[tuple[int, int]] = []  # (messages, bits) per pass
        self.problems: list[str] = []
        self.crashes: Counter = Counter()  # exception name -> executions

    def record(self, i: int, scaled: float, failed: bool, problems: list[str]) -> None:
        self.times[i].append(scaled)
        self.executions += 1
        self.problems += problems
        if failed or problems:
            self.bad[i] = True

    @property
    def attempted(self) -> int:
        """Distinct operations: a run times each one once or more and
        counts it once, so the count does not hang on how many passes fit."""
        return len(self.bad)

    @property
    def failed(self) -> int:
        """Distinct operations that failed or answered wrong at least once."""
        return sum(self.bad)

    def medians(self) -> list[float]:
        return [median(t) for t in self.times]


class StaticWorkload:
    """Three compute calls per tree through cli.main, known-size encoding;
    each call is one operation and one group."""

    group = 1

    def __init__(self, trees: list[inputs.TreeInput], seed: int, workdir: Path):
        self.seed = seed
        self.paths = {}
        self.adj = {}
        for t in trees:
            path = workdir / f"{t.name}.txt"
            path.write_text(t.text)
            self.paths[t.name] = str(path)
            self.adj[t.name] = verify.adjacency(t.text)
        self.calls = inputs.static_calls(trees, seed)
        self.size = len(self.calls)
        self.vertices = [tree.n for tree, _ in self.calls]
        self.setup_samples: list[float] = []

    def setup(self, treesweep, clock) -> None:
        self.ts = treesweep
        self.clock = clock

    def begin_pass(self) -> list[str]:
        self.values: dict[str, dict[str, int]] = {}
        self.messages = self.bits = 0
        return []

    def call(self, i: int):
        tree, param = self.calls[i]
        argv = ["compute", self.paths[tree.name], "--param", param,
                "--seed", str(self.seed), "--stats"]
        if param == "pn":
            argv.append("--strategy")
        buf = io.StringIO()
        rc = crash = None
        t0 = self.clock.now()
        try:
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = self.ts.cli.main(argv)
        except Exception as exc:  # a crash is a failed call; keep going
            crash = type(exc).__name__
        return self.clock.now() - t0, (rc, crash, buf.getvalue())

    def check(self, i: int, outcome) -> tuple[bool, list[str]]:
        """Whether the call failed, and what it answered wrong."""
        tree, param = self.calls[i]
        rc, crash, text = outcome
        out = verify.parse_output(text)
        problems = verify.check_call(
            tree.n, param, tree.expect, out,
            self.adj[tree.name] if rc == 0 and param == "pn" else None)
        problems = [f"{tree.name} {param}: {p}" for p in problems]
        if out.value is not None:
            self.values.setdefault(tree.name, {})[param] = out.value
        self.messages += out.messages or 0
        self.bits += out.bits or 0
        return rc != 0, problems

    def checkpoint(self, i: int, first: bool) -> list[str]:
        return []

    def end_pass(self, done: int) -> list[str]:
        problems = []
        for name, vals in self.values.items():
            if len(vals) == 3:
                problems += [f"{name}: {p}" for p in verify.check_relations(vals)]
        return problems

    def latencies(self, med: list[float]) -> tuple[list[float], list[float]]:
        """Call times in ms, and call times per vertex in us."""
        return ([m * 1e3 for m in med],
                [m / tree.n * 1e6 for m, (tree, _) in zip(med, self.calls)])


class DynamicWorkload:
    """Reroots, rejoins and queries on one DynamicForest, unknown-size
    encoding; the forest is rebuilt with from_tree before every pass."""

    group = DYN_GROUP

    def __init__(self, seed: int, n: int = inputs.DYN_N, spine: int = inputs.DYN_SPINE,
                 **counts):
        edges, self.root, self.ops = inputs.churn_workload(seed, n, spine, **counts)
        self.n = n
        self.text = inputs.edge_text(n, edges)
        self.size = len(self.ops)
        self.vertices = [0 if op.kind == "query" else n for op in self.ops]
        self.setup_samples: list[float] = []
        self.answers: list[int | None] = []

    def setup(self, treesweep, clock) -> None:
        self.ts = treesweep
        self.clock = clock
        self.tree = treesweep.parse_edge_list(self.text)
        for _ in range(FROM_TREE_SAMPLES):
            self._fresh()

    def _fresh(self):
        gc.collect()
        with self.clock.group() as g:
            t0 = self.clock.now()
            df = self.ts.DynamicForest.from_tree(self.tree, encoding="unknown")
            dt = self.clock.now() - t0
        self.setup_samples.append(dt * g.factor)
        return df

    def begin_pass(self) -> list[str]:
        self.df = self._fresh()
        self.pass_answers: list[int | None] = []
        roots = sorted(self.df.roots)
        return [] if roots == [self.root] else [f"from_tree roots {roots}, want [{self.root}]"]

    def call(self, i: int):
        op, df = self.ops[i], self.df
        before = df.counters.messages
        answer = crash = None
        t0 = self.clock.now()
        try:
            if op.kind == "query":
                answer = df.value_of(op.args[0])
            elif op.kind == "reroot":
                df.change_root(op.args[0])
            else:
                child, father, w1, w2 = op.args
                df.delete_edge(child, father)
                df.add_edge(w1, w2)
        except Exception as exc:  # a crash is a failed op; keep going
            crash = type(exc).__name__
        dt = self.clock.now() - t0
        roots = dict(df.roots) if op.kind == "query" else None
        return dt, (answer, crash, df.counters.messages - before, roots)

    def check(self, i: int, outcome) -> tuple[bool, list[str]]:
        """Whether the operation failed, and what it did wrong."""
        op = self.ops[i]
        answer, crash, sent, roots = outcome
        self.pass_answers.append(answer)
        problems = []
        if sent != op.messages:
            problems.append(f"{op.kind} {op.args}: {sent} messages, want {op.messages}")
        if op.kind == "query" and not crash:
            # the benchmark's own father pointers name the tree's only root
            if list(roots) != [op.root]:
                problems.append(f"query {op.args[0]}: roots {sorted(roots)[:5]}, "
                                f"want [{op.root}]")
            elif answer != roots[op.root]:
                problems.append(f"query {op.args[0]}: {answer}, want {roots[op.root]} "
                                f"held at root {op.root}")
        if self.answers and i < len(self.answers) and answer != self.answers[i]:
            problems.append(f"query {op.args[0]}: {answer}, first pass gave "
                            f"{self.answers[i]}")
        return crash is not None, problems

    def checkpoint(self, i: int, first: bool) -> list[str]:
        """In the first pass, now and then: the value queries give against a
        fresh run_static of the whole tree."""
        step = max(1, self.size // DYN_CHECKPOINTS)
        if not first or i // step == (i - self.group) // step:
            return []
        return self._compare_fresh()

    def _compare_fresh(self) -> list[str]:
        df, problems = self.df, []
        try:
            for comp in df.forest.components():
                v = min(comp)
                fresh = self.ts.run_static(df.forest.induced(comp)).value
                if df.value_of(v) != fresh:
                    problems.append(f"component of {v}: value {df.value_of(v)}, "
                                    f"fresh run_static gives {fresh}")
        except Exception as exc:  # the check itself failing is a wrong answer
            problems.append(f"fresh comparison: {type(exc).__name__}: {exc}")
        return problems

    def end_pass(self, done: int) -> list[str]:
        problems = []
        if not self.answers:
            self.answers = self.pass_answers
        if done == self.size:
            self.messages = self.df.counters.messages
            self.bits = self.df.counters.bits
        try:
            self.df.check_invariants()
        except Exception as exc:  # the check itself failing is a wrong answer
            problems.append(f"check_invariants: {type(exc).__name__}: {exc}")
        return problems + self._compare_fresh()

    def latencies(self, med: list[float]) -> tuple[list[float], list[float]]:
        """Update times in ms, and query times in us."""
        return ([m * 1e3 for m, op in zip(med, self.ops) if op.kind != "query"],
                [m * 1e6 for m, op in zip(med, self.ops) if op.kind == "query"])


def tracing(tracer: Tracer | None, package):
    return tracer.active(package) if tracer else contextlib.nullcontext()


def run_passes(work, seconds: float, tracer: Tracer | None = None) -> Run:
    """One full pass, then more until the next group would end after
    `seconds`; a pass may stop part-way.  Garbage is collected before each
    group, outside the timed region."""
    res = Run(work.size)
    first_s = [0.0] * work.size  # raw times of the first pass, to plan the rest
    end = time.perf_counter() + seconds

    def fits(group: range) -> bool:
        return not res.passes or time.perf_counter() + sum(first_s[j] for j in group) <= end

    while fits(range(min(work.group, work.size))):
        gc.collect()
        with tracing(tracer, work.ts):
            res.problems += work.begin_pass()
        i = 0
        while i < work.size:
            group = range(i, min(i + work.group, work.size))
            if not fits(group):
                break
            gc.collect()
            timed = []
            with tracing(tracer, work.ts), work.clock.group() as g:
                for j in group:
                    timed.append(work.call(j))
            for j, (dt, outcome) in zip(group, timed):
                res.raw_s += dt
                if not res.passes:
                    first_s[j] = dt
                failed, problems = work.check(j, outcome)
                if outcome[1]:
                    res.crashes[outcome[1]] += 1
                res.record(j, dt * g.factor, failed, problems)
            i = group.stop
            res.problems += work.checkpoint(i, not res.passes)
        res.problems += work.end_pass(i)
        if i < work.size:
            break
        res.passes += 1
        res.counters.append((work.messages, work.bits))
        if not seconds:
            break
    if len(set(res.counters)) != 1:
        res.problems.append(f"passes reported different counters {res.counters}")
    return res


def traced_run(work) -> tuple[Run, Run, Tracer]:
    """One plain pass, then one traced pass; the traced pass must report
    the same counters, and on static workloads the bits of every encoded
    frame must add up to the bits the CLI reports."""
    plain = run_passes(work, 0)
    tracer = Tracer()
    res = run_passes(work, 0, tracer)
    res.problems = plain.problems + res.problems
    if plain.counters != res.counters:
        res.problems.append(f"traced counters {res.counters}, plain {plain.counters}")
    if isinstance(work, StaticWorkload) and tracer.tallies["codec.bits"] != res.counters[0][1]:
        res.problems.append(f"codec.bits {tracer.tallies['codec.bits']} != "
                            f"reported bits {res.counters[0][1]}")
    return plain, res, tracer


def end_to_end(work, res: Run, setup_s: float) -> dict:
    med = res.medians()
    total = sum(med)
    ok = [not bad for bad in res.bad]
    updates, queries = work.latencies(med)
    return {
        "setup_s": (setup_s, "s"),
        "vertices_per_s": (sum(v for v, good in zip(work.vertices, ok) if good) / total,
                           "1/s"),
        "ops_per_s": (sum(ok) / total, "1/s"),
        "update_p50_ms": (median(updates), "ms"),
        "update_p99_ms": (p99(updates), "ms"),
        "query_p50_us": (median(queries), "us"),
        "query_p99_us": (p99(queries), "us"),
        "messages": (res.counters[0][0], "count"),
        "bits": (res.counters[0][1], "count"),
        "success_rate": (sum(ok) / len(ok), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer: Tracer, traced: Run, plain: Run) -> dict:
    t = tracer.totals()

    def get(span, key):
        return t.get(span, {}).get(key, 0)

    def count(span):
        return (get(span, "calls"), "count")

    def secs(span, key="total_s"):
        return (get(span, key), "s")

    return {
        "cli.self_s": secs("cli.main", "self_s"),
        "forest.parse_s": secs("forest.parse"),
        "forest.add_edge_calls": count("forest.add_edge"),
        "forest.component_scans": count("forest.component_of"),
        "forest.component_scan_s": secs("forest.component_of"),
        "protocol.calls": count("protocol.run_static"),
        "protocol.self_s": secs("protocol.run_static", "self_s"),
        "protocol.rounds": count("protocol.order"),
        "hd.merge_calls": count("hd.merge"),
        "hd.merge_self_s": secs("hd.merge", "self_s"),
        "hd.validate_calls": count("hd.validate"),
        "hd.validate_s": secs("hd.validate"),
        "hd.validate_per_message": (get("hd.validate", "calls")
                                    / max(traced.counters[0][0], 1), "calls/msg"),
        "hd.evaluate_calls": count("hd.evaluate"),
        "codec.encode_calls": count("codec.encode"),
        "codec.encode_s": secs("codec.encode"),
        "codec.decode_calls": count("codec.decode"),
        "codec.decode_s": secs("codec.decode"),
        "codec.bits": (tracer.tallies["codec.bits"], "count"),
        "strategy.extract_s": secs("strategy.extract"),
        "strategy.validate_s": secs("strategy.validate"),
        "strategy.actions": (tracer.tallies["strategy.actions"], "count"),
        "strategy.failures": (tracer.errors["strategy.extract"]
                              + tracer.errors["strategy.validate"], "count"),
        "dynamic.add_s": secs("dynamic.add_edge"),
        "dynamic.del_s": secs("dynamic.delete_edge"),
        "dynamic.reroot_s": secs("dynamic.change_root"),
        "dynamic.query_s": secs("dynamic.value_of"),
        "dynamic.change_root_calls": count("dynamic.change_root"),
        "dynamic.reroot_hops": (tracer.tallies["dynamic.reroot_hops"], "count"),
        "dynamic.root_of_calls": count("dynamic.root_of"),
        "dynamic.root_of_s": secs("dynamic.root_of"),
        "dynamic.from_tree_s": secs("dynamic.from_tree"),
        "trace.overhead": (sum(traced.medians()) / sum(plain.medians()), "ratio"),
    }


def make_workload(name: str, seed: int, workdir: Path):
    if name == "dynamic-churn":
        return DynamicWorkload(seed)
    if name == "static-deep":
        return StaticWorkload(inputs.static_deep(), seed, workdir)
    frozen = json.loads((HERE / "random_values.json").read_text())
    return StaticWorkload(inputs.static_shallow(seed, frozen), seed, workdir)


def measure(args) -> int:
    if not (SRC / "treesweep" / "__init__.py").is_file():
        print(f"no treesweep sources under {SRC}", file=sys.stderr)
        return 2
    clock = hostclock.Clock()
    import_s = import_seconds(clock)
    sys.path.insert(0, str(SRC))
    import treesweep
    import treesweep.cli  # noqa: F401  (cli is not imported by the package)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="inputs-", dir=OUT))
    try:
        work = make_workload(args.workload, args.seed, workdir)
        work.setup(treesweep, clock)
        if args.trace:
            plain, res, tracer = traced_run(work)
        else:
            res = run_passes(work, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup_s = median(import_s) + median(work.setup_samples)
    if args.trace:
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.gz")
        metrics = per_layer(tracer, res, plain)
    else:
        metrics = end_to_end(work, res, setup_s)
    updates, queries = work.latencies(res.medians())
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "commit": git_commit(),
        "passes": res.passes, "raw_op_s": res.raw_s,
        "host_reference_ms": {"nominal": hostclock.NOMINAL_S * 1e3,
                              "median": median(clock.samples) * 1e3,
                              "min": min(clock.samples) * 1e3,
                              "max": max(clock.samples) * 1e3,
                              "count": len(clock.samples)},
        "samples": {"update_ops": len(updates), "query_ops": len(queries),
                    "executions": res.executions,
                    "import": len(import_s), "from_tree": len(work.setup_samples)},
        "crashes": res.crashes,
        "problems": res.problems[:20],
    }
    print(json.dumps({"meta": meta}))
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    result = {
        "correct": not res.problems,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return measure(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
