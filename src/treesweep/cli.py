"""Command-line front end: compute on a tree, drive dynamic scripts, run
conformance sweeps against the brute-force oracles, and generate inputs.

Output is plain "key=value" text so golden tests can diff it; identical
inputs and seed produce byte-identical reports.  Exit status 0 means no
contract violation was observed.
"""

from __future__ import annotations

import argparse
import functools
import sys
from concurrent.futures import ProcessPoolExecutor

from .dynamic import run_script
from .forest import (ArgumentError, Forest, GraphError, enumerate_trees,
                     gen_tree, parse_edge_list, serialize)
from .hd import ContractError, ParamVariant, rooted_value
from .oracle import (es_exact, gap_characterization_check, ns_exact, pn_exact,
                     pathwidth_exact, stable_exact)
from .protocol import Schedule, default_scheme, run_static
from .strategy import extract, validate

VARIANT_FOR = {
    "pn": ParamVariant.PROCESS_NUMBER,
    "ns": ParamVariant.NODE_SEARCH,
    "es": ParamVariant.EDGE_SEARCH,
    "pw": ParamVariant.NODE_SEARCH,  # pathwidth = node search number - 1
}

ORACLE_FOR = {"pn": pn_exact, "ns": ns_exact, "es": es_exact}


def cmd_compute(args) -> int:
    if args.strategy and args.param != "pn":
        raise ArgumentError("strategy extraction supports --param pn only")
    with open(args.input, "rb") as fh:
        tree = parse_edge_list(fh.read())
    variant = VARIANT_FOR[args.param]
    scheme = default_scheme(tree.n, variant, args.encoding)
    run = run_static(tree, variant, scheme, Schedule(args.seed))
    value = run.value - 1 if args.param == "pw" else run.value
    print(f"param={args.param} value={value}")
    if args.stats:
        c = run.counters
        print(f"messages={c.messages} bits={c.bits} steps={c.steps}")
    if args.transcript:
        sys.stdout.write(run.transcript())
    if args.strategy:
        strat = extract(tree, run.states)
        peak = validate(tree, strat)
        sys.stdout.write(strat.dump())
        print(f"strategy_peak={peak}")
        if peak != run.value:
            print("strategy peak disagrees with computed value", file=sys.stderr)
            return 1
    return 0


def cmd_dynamic(args) -> int:
    with open(args.script, "r") as fh:
        text = fh.read()
    out, df = run_script(text, VARIANT_FOR[args.param], args.encoding)
    for line in out:
        print(line)
    if args.stats:
        c = df.counters
        print(f"messages={c.messages} bits={c.bits} steps={c.steps}")
    df.check_invariants()
    return 0


def _check_values(payload) -> list[str]:
    text, param = payload
    tree = parse_edge_list(text)
    bad = []
    for name in (("pn", "ns", "es") if param == "all" else (param,)):
        variant = VARIANT_FOR[name]
        got = run_static(tree, variant).value
        want = ORACLE_FOR[name](tree)
        if got != want:
            bad.append(f"{name}: got={got} want={want}\n{text}")
        for root in tree.vertices:
            got = rooted_value(tree, root, variant)
            if got != want:
                bad.append(f"{name} rooted at {root}: got={got} want={want}\n{text}")
    return bad


def _check_relations(payload) -> list[str]:
    text, _ = payload
    tree = parse_edge_list(text)
    bad = []
    pw = pathwidth_exact(tree)
    pn = pn_exact(tree)
    ns = ns_exact(tree)
    es = es_exact(tree)
    if ns != pw + 1:
        bad.append(f"ns {ns} != pw+1 {pw + 1}\n{text}")
    if not pw <= pn <= pw + 1:
        bad.append(f"pn {pn} outside [pw, pw+1]\n{text}")
    if es not in (ns - 1, ns):
        bad.append(f"es {es} outside {{ns-1, ns}}\n{text}")
    run = run_static(tree)
    if tree.n <= 12 and run.evaluation.stable != stable_exact(tree, run.root):
        bad.append(f"stability flag mismatch at root {run.root}\n{text}")
    return bad


def _check_gap(payload) -> list[str]:
    text, _ = payload
    tree = parse_edge_list(text)
    if not gap_characterization_check(tree):
        return [f"gap characterization sides disagree\n{text}"]
    return []


def cmd_conformance(args) -> int:
    checker = {"relations": _check_relations, "gap": _check_gap}.get(
        args.param, _check_values)
    payloads = [(serialize(t), args.param)
                for n in range(1, args.max_n + 1)
                for t in enumerate_trees(n)]
    failures: list[str] = []
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            for bad in pool.map(checker, payloads, chunksize=8):
                failures.extend(bad)
    else:
        for payload in payloads:
            failures.extend(checker(payload))
    print(f"trees={len(payloads)} param={args.param} fail={len(failures)}")
    for f in failures:
        print("counterexample:")
        print(f)
    return 1 if failures else 0


def cmd_gen(args) -> int:
    params = [int(x) for x in args.args]
    tree = gen_tree(args.kind, *params)
    sys.stdout.write(serialize(tree))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="treesweep")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="run the convergecast on one tree")
    c.add_argument("input")
    c.add_argument("--param", choices=("pn", "ns", "es", "pw"), default="pn")
    c.add_argument("--encoding", choices=("known", "unknown"), default="known")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--stats", action="store_true")
    c.add_argument("--strategy", action="store_true")
    c.add_argument("--transcript", action="store_true")
    c.set_defaults(func=cmd_compute)

    d = sub.add_parser("dynamic", help="execute an add/del/query/reroot script")
    d.add_argument("script")
    d.add_argument("--param", choices=("pn", "ns", "es"), default="pn")
    d.add_argument("--encoding", choices=("known", "unknown"), default="known")
    d.add_argument("--stats", action="store_true")
    d.set_defaults(func=cmd_dynamic)

    s = sub.add_parser("conformance",
                       help="sweep all small trees, at every root, against the oracles")
    s.add_argument("--max-n", type=int, default=8)
    s.add_argument("--param", choices=("pn", "ns", "es", "all", "relations", "gap"),
                   default="all")
    s.add_argument("--jobs", type=int, default=1)
    s.set_defaults(func=cmd_conformance)

    g = sub.add_parser("gen", help="emit a generated tree as an edge list")
    g.add_argument("kind", choices=("path", "star", "spider", "theorem1", "random"))
    g.add_argument("args", nargs="+")
    g.set_defaults(func=cmd_gen)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: `parse_args` does not change it, and
    building it costs about as much as parsing a small tree."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, ContractError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
