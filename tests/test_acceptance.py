"""Acceptance suite: one test per criterion, each printing a PASS line.

The conformance sweeps are the substance: the protocol's values are checked
against independent brute-force game searches on every non-isomorphic tree
up to the stated sizes, with exact equality everywhere.  The impossibility
bound on the bits any dynamic algorithm must transmit is pure theory with no
experiment and is intentionally not covered here.
"""

import math
import random

import pytest

from treesweep.codec import UnknownSize, decode, encode
from treesweep.dynamic import DynamicForest, inc_build
from treesweep.experiments import loglog_slope, scaling_table
from treesweep.forest import (Forest, enumerate_trees, path_tree, random_tree,
                              serialize, star_tree, theorem1_tree)
from treesweep.hd import ParamVariant, ceil_log3, evaluate
from treesweep.oracle import (es_exact, gap_characterization_check, ns_exact,
                              pathwidth_exact, pn_exact, stable_exact)
from treesweep.protocol import default_scheme, run_static
from treesweep.strategy import extract, validate

from helpers import _dist, cycle_graph, grid_graph, hdesc

PN = ParamVariant.PROCESS_NUMBER
NS = ParamVariant.NODE_SEARCH
ES = ParamVariant.EDGE_SEARCH

ORACLES = {PN: pn_exact, NS: ns_exact, ES: es_exact}


def _report(k: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {k} {name}: PASS ({detail})")


@pytest.fixture(scope="module")
def sweep_n10():
    """Static runs for every tree with at most 10 vertices, all variants,
    both encodings, with the emitted wire messages retained."""
    records = []
    for n in range(1, 11):
        for tree in enumerate_trees(n):
            oracle = {v: ORACLES[v](tree) for v in ParamVariant}
            runs = {}
            for variant in ParamVariant:
                for encoding in ("known", "unknown"):
                    scheme = default_scheme(tree.n, variant, encoding)
                    runs[(variant, encoding)] = run_static(tree, variant, scheme)
            records.append((tree, oracle, runs))
    return records


def test_criterion_1_oracle_conformance(sweep_n10):
    failures = []
    checks = 0
    for tree, oracle, runs in sweep_n10:
        for (variant, encoding), run in runs.items():
            checks += 1
            if run.value != oracle[variant]:
                failures.append((variant, encoding, serialize(tree)))
    assert not failures, failures[:3]
    _report(1, "oracle conformance n<=10, pn/ns/es",
            f"{len(sweep_n10)} trees, {checks} runs, 0 mismatches")


def test_criterion_2_textbook_examples_via_oracle():
    assert pn_exact(star_tree(5)) == 1
    assert pn_exact(path_tree(4)) == 2
    assert pn_exact(cycle_graph(5)) == 3
    assert pn_exact(grid_graph(3, 3)) == 4
    _report(2, "oracle examples", "star=1 P4=2 C5=3 grid3x3=4")


def test_criterion_3_growth_tower():
    for k in range(1, 6):
        tree = theorem1_tree(k)
        assert run_static(tree).value == k
    for k in (1, 2):
        assert pn_exact(theorem1_tree(k)) == k
    _report(3, "growth construction k=1..5",
            f"values 1..5 exact, n up to {theorem1_tree(5).n}; k<=2 oracle-checked")


def test_criterion_4_relations_n9():
    checks = 0
    for n in range(1, 10):
        for tree in enumerate_trees(n):
            pw = pathwidth_exact(tree)
            pn = pn_exact(tree)
            ns = ns_exact(tree)
            es = es_exact(tree)
            assert ns == pw + 1
            assert pw <= pn <= pw + 1
            assert es in (ns - 1, ns)
            run = run_static(tree)
            assert run.evaluation.stable == stable_exact(tree, run.root)
            checks += 1
    _report(4, "relations and stability n<=9", f"{checks} trees, 0 exceptions")


def test_criterion_5_message_accounting(record_frames):
    tree = random_tree(1000, 42)
    run = run_static(tree)
    per = ceil_log3(1000) + 2
    assert per == 9
    assert run.counters.messages == 999
    assert all(len(wire) == 9 for _, _, _, wire in run.wires)
    assert run.counters.bits == 8991
    assert run.counters.bits <= 1000 * (math.log(1000, 3) + 3)

    run_u = run_static(tree, scheme=UnknownSize())
    assert all(len(wire) == 2 * hd.length + 4 for _, _, hd, wire in run_u.wires)

    df = DynamicForest.from_tree(random_tree(40, 7), encoding="unknown")
    hops = _dist(df.forest, 0, df.root_of(0))
    frames = record_frames()
    df.change_root(0)
    assert frames["replace"]
    for hd, wire in frames["replace"]:
        assert len(wire) == 2 * hd.length + 4 + 1
    (note,) = frames["notify"]
    assert df.counters.bits == sum(len(w) for _, w in frames["replace"]) + hops * len(note)
    _report(5, "message accounting",
            "999 msgs x 9 bits = 8991 <= n(log3 n + 3); unknown-size = 2L+4 (+1 dynamic)")


def test_criterion_6_evaluator_on_worked_tables():
    res = evaluate(hdesc(2, 2, [0, 0, 3, 2, 3, 1, 0, 0, 1]))
    assert res == (9, False)
    # hand application of case (a): cell 2 is 0 and cells 3..5 are all 1,
    # so the value is the table length, 5, carried by an unstable top piece
    res = evaluate(hdesc(-1, -1, [0, 0, 1, 1, 1]))
    assert res.value == 5 and not res.stable
    _report(6, "evaluator on worked tables", "(9, unstable) and (5, unstable)")


def test_criterion_7_dynamics():
    reroots = deletions = 0
    for n in range(1, 10):
        for tree in enumerate_trees(n):
            want = run_static(tree).value
            for target in tree.vertices:
                df = DynamicForest.from_tree(tree)
                r1 = df.root_of(target)
                d = _dist(tree, r1, target)
                df.change_root(target)
                assert df.value_of(target) == want
                assert df.counters.messages <= 2 * d + 1
                reroots += 1
            for u, v in tree.edges():
                df = DynamicForest.from_tree(tree)
                df.delete_edge(u, v)
                rest = tree.copy()
                rest.remove_edge(u, v)
                for comp in rest.components():
                    sub = rest.induced(comp)
                    assert df.value_of(next(iter(comp))) == run_static(sub).value
                deletions += 1

    tree = random_tree(50, 11)
    want = run_static(tree).value
    edges = tree.edges()
    for seed in range(100):
        rng = random.Random(seed)
        order = edges[:]
        rng.shuffle(order)
        df = inc_build(order, 50)
        assert set(df.roots.values()) == {want}
    _report(7, "dynamics", f"{reroots} reroots, {deletions} deletions, "
            "100 insertion orders on n=50, all values match static reruns")


def test_criterion_8_incremental_scaling():
    sizes = [50, 100, 200, 400, 800]
    best = scaling_table(sizes, "best")
    worst = scaling_table(sizes, "worst")
    b = loglog_slope(best)
    w = loglog_slope(worst)
    assert abs(b - 1.0) <= 0.1
    assert w >= 1.7
    _report(8, "incremental scaling",
            f"best {best} slope {b:.3f} ~ 1; worst {worst} slope {w:.3f} >= 1.7")


def test_criterion_9_codec_roundtrips(sweep_n10):
    messages = 0
    for _, _, runs in sweep_n10:
        for run in runs.values():
            for _, _, hd, bits in run.wires:
                assert decode(bits, run.scheme) == hd
                assert encode(hd, run.scheme) == bits
                messages += 1
    assert messages > 0
    _report(9, "codec roundtrip identity",
            f"{messages} messages across both schemes, 0 failures")


def test_criterion_10_strategy_extraction():
    trees = 0
    for n in range(1, 11):
        for tree in enumerate_trees(n):
            run = run_static(tree)
            strategy = extract(tree, run)
            assert validate(tree, strategy) == run.value
            trees += 1
    _report(10, "strategy extraction n<=10", f"{trees} trees, peak == value everywhere")


def test_criterion_11_gap_characterization():
    checked = 0
    for n in range(1, 10):
        for tree in enumerate_trees(n):
            assert gap_characterization_check(tree)
            checked += 1
    # an in-regime witness beyond the sweep: three 4-paths on a junction
    f = Forest()
    for b in range(3):
        off = b * 4
        for i in range(3):
            f.add_edge(off + i, off + i + 1)
        f.add_edge(12, off)
    assert pn_exact(f) == pathwidth_exact(f) + 1
    assert gap_characterization_check(f)
    _report(11, "gap characterization", f"{checked} trees n<=9 agree, plus the "
            "pathwidth-2 witness with a genuine gap")
