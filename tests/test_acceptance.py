"""Acceptance suite: one test per criterion, each printing a PASS line.

The conformance sweeps are the substance: the protocol's values are checked
against independent brute-force game searches on every non-isomorphic tree
up to the stated sizes, with exact equality everywhere.  Criteria 1, 4 and
11 run the checkers of `treesweep conformance`; a sweep that a unit test
also makes lives once, in `helpers`.  The impossibility bound on the bits
any dynamic algorithm must transmit is pure theory with no experiment and
is intentionally not covered here.
"""

import math

import pytest

from treesweep.cli import _check_gap, _check_relations, _check_values
from treesweep.codec import UnknownSize, decode, encode
from treesweep.dynamic import DynamicForest
from treesweep.experiments import loglog_slope, scaling_table
from treesweep.forest import (path_tree, random_tree, serialize, star_tree,
                              theorem1_tree)
from treesweep.hd import ParamVariant, ceil_log3, evaluate
from treesweep.oracle import gap_characterization_check, pathwidth_exact, pn_exact
from treesweep.protocol import default_scheme, run_static

from helpers import (_dist, build_in_shuffled_orders, cycle_graph, delete_everywhere,
                     extract_and_validate, grid_graph, hdesc, reroot_everywhere,
                     three_paths_on_a_junction, trees_up_to)


def _report(k: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {k} {name}: PASS ({detail})")


@pytest.fixture(scope="module")
def sweep_n10():
    """Static runs for every tree with at most 10 vertices, all variants,
    both encodings, with the emitted wire messages retained."""
    return [{(variant, encoding): run_static(tree, variant,
                                             default_scheme(tree.n, variant, encoding))
             for variant in ParamVariant for encoding in ("known", "unknown")}
            for tree in trees_up_to(10)]


def test_criterion_1_oracle_conformance():
    # `treesweep conformance --param all`'s checker: the value of each
    # variant's set-up run, then at every root, and the forest's invariants
    trees = trees_up_to(10)
    failures = [(bad, serialize(tree)) for tree in trees
                for bad in _check_values(tree, "all")]
    assert not failures, failures[:3]
    _report(1, "oracle conformance n<=10, pn/ns/es",
            f"{len(trees)} trees, {3 * len(trees)} runs, every root, 0 mismatches")


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
    trees = trees_up_to(9)
    for tree in trees:
        assert list(_check_relations(tree, "relations")) == [], serialize(tree)
    _report(4, "relations and stability n<=9", f"{len(trees)} trees, 0 exceptions")


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
    reroots = reroot_everywhere(9)
    deletions = delete_everywhere(9)
    build_in_shuffled_orders(random_tree(50, 11), range(100))
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
    for runs in sweep_n10:
        for (variant, encoding), run in runs.items():
            # the unknown-size codec changes the frames, never the value
            assert run.value == runs[(variant, "known")].value
            for _, _, hd, bits in run.wires:
                assert decode(bits, run.scheme) == hd
                assert encode(hd, run.scheme) == bits
                messages += 1
    assert messages > 0
    _report(9, "codec roundtrip identity",
            f"{messages} messages across both schemes, 0 failures")


def test_criterion_10_strategy_extraction():
    trees = extract_and_validate(10)
    _report(10, "strategy extraction n<=10", f"{trees} trees, peak == value everywhere")


def test_criterion_11_gap_characterization():
    trees = trees_up_to(9)
    for tree in trees:
        assert list(_check_gap(tree, "gap")) == [], serialize(tree)
    # an in-regime witness beyond the sweep
    f = three_paths_on_a_junction()
    assert pn_exact(f) == pathwidth_exact(f) + 1
    assert gap_characterization_check(f)
    _report(11, "gap characterization", f"{len(trees)} trees n<=9 agree, plus the "
            "pathwidth-2 witness with a genuine gap")
