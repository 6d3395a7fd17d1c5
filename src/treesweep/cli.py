"""Command-line front end: compute on a tree, drive dynamic scripts, run
conformance sweeps against the brute-force oracles, measure the
incremental builder, and generate inputs.

Output is plain "key=value" text so golden tests can diff it; identical
inputs and seed produce byte-identical reports.  Exit status 0 means no
contract violation was observed.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Iterator

from .dynamic import DynamicForest, run_script
from .experiments import loglog_slope, scaling_table
from .forest import (_GENERATORS, ArgumentError, Forest, GraphError,
                     enumerate_trees, gen_tree, parse_edge_list, serialize)
from .hd import ContractError, ParamVariant
from .oracle import (ES_LIMIT, NS_LIMIT, PN_LIMIT, PN_PLUS_LIMIT, PW_LIMIT,
                     es_exact, gap_characterization_check, ns_exact, pn_exact,
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

# the largest tree each conformance sweep's oracles accept
MAX_N_FOR = {
    "pn": PN_LIMIT,
    "ns": NS_LIMIT,
    "es": ES_LIMIT,
    "all": min(PN_LIMIT, NS_LIMIT, ES_LIMIT),
    "relations": min(PW_LIMIT, PN_LIMIT, NS_LIMIT, ES_LIMIT, PN_PLUS_LIMIT),
    "gap": min(PW_LIMIT, PN_LIMIT),
}


def cmd_compute(args) -> int:
    if args.strategy and args.param != "pn":
        raise ArgumentError("strategy extraction supports --param pn only")
    with open(args.input, encoding="utf-8") as fh:
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
        strat = extract(tree, run)
        peak = validate(tree, strat)
        sys.stdout.write(strat.dump())
        print(f"strategy_peak={peak}")
        if peak != run.value:
            print("strategy peak disagrees with computed value", file=sys.stderr)
            return 1
    return 0


def cmd_dynamic(args) -> int:
    with open(args.script, encoding="utf-8") as fh:
        text = fh.read()
    out, df = run_script(text, VARIANT_FOR[args.param], args.encoding)
    for line in out:
        print(line)
    if args.stats:
        c = df.counters
        print(f"messages={c.messages} bits={c.bits} steps={c.steps}")
    df.check_invariants()
    return 0


def _check_values(tree: Forest, param: str) -> Iterator[str]:
    """The protocol's values against the oracle's: the value that the
    set-up run of a dynamic forest leaves at its elected root, then the
    value at every root that the forest's own `change_root` moves to."""
    *_, last = tree.vertices
    for name in (("pn", "ns", "es") if param == "all" else (param,)):
        df = DynamicForest.from_tree(tree, VARIANT_FOR[name])
        want = ORACLE_FOR[name](tree)
        (got,) = df.roots.values()
        if got != want:
            yield f"{name}: got={got} want={want}"
        # start from the last vertex, so that on two or more vertices every
        # value read below, the elected root's too, comes from a re-rooting
        df.change_root(last)
        for root in tree.vertices:
            df.change_root(root)
            got = df.value_of(root)
            if got != want:
                yield f"{name} rooted at {root}: got={got} want={want}"
        df.check_invariants()


def _check_relations(tree: Forest, param: str) -> Iterator[str]:
    pw = pathwidth_exact(tree)
    pn = pn_exact(tree)
    ns = ns_exact(tree)
    es = es_exact(tree)
    if ns != pw + 1:
        yield f"ns {ns} != pw+1 {pw + 1}"
    if not pw <= pn <= pw + 1:
        yield f"pn {pn} outside [pw, pw+1]"
    if es not in (ns - 1, ns):
        yield f"es {es} outside {{ns-1, ns}}"
    run = run_static(tree)
    if run.evaluation.stable != stable_exact(tree, run.root):
        yield f"stability flag mismatch at root {run.root}"


def _check_gap(tree: Forest, param: str) -> Iterator[str]:
    if not gap_characterization_check(tree):
        yield "gap characterization sides disagree"


def cmd_conformance(args) -> int:
    if args.max_n < 1:
        raise ArgumentError("--max-n must be at least 1")
    cap = MAX_N_FOR[args.param]
    if args.max_n > cap:
        raise ArgumentError(f"--max-n {args.max_n} exceeds the oracle cap of {cap} "
                            f"for --param {args.param}")
    checker = {"relations": _check_relations, "gap": _check_gap}.get(
        args.param, _check_values)
    trees = [t for n in range(1, args.max_n + 1) for t in enumerate_trees(n)]
    failures = [f"{bad}\n{serialize(tree)}"
                for tree in trees for bad in checker(tree, args.param)]
    print(f"trees={len(trees)} param={args.param} fail={len(failures)}")
    for f in failures:
        print("counterexample:")
        print(f)
    return 1 if failures else 0


def cmd_experiments(args) -> int:
    """One table per insertion regime, with the fitted log-log slope of the
    messages when there are two distinct sizes; every size is measured
    before anything is printed."""
    sizes = [int(s) for s in args.sizes.split(",")]
    tables = {kind: scaling_table(sizes, kind) for kind in ("best", "worst")}
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
    return 0


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
    s.set_defaults(func=cmd_conformance)

    e = sub.add_parser("experiments",
                       help="messages and bits of the incremental builder, "
                            "cheap and adversarial insertion orders")
    e.add_argument("--sizes", default="50,100,200,400,800")
    e.set_defaults(func=cmd_experiments)

    g = sub.add_parser("gen", help="emit a generated tree as an edge list")
    g.add_argument("kind", choices=tuple(_GENERATORS))
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
