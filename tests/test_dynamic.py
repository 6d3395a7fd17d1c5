import hashlib
import random
from dataclasses import replace

import pytest

from treesweep.dynamic import DynamicForest, inc_build, run_script
from treesweep.experiments import worst_case_instance
from treesweep.forest import (ArgumentError, Forest, StructureError,
                              enumerate_trees, path_tree, random_tree,
                              theorem1_tree)
from treesweep.hd import ParamVariant
from treesweep.protocol import run_static

PN = ParamVariant.PROCESS_NUMBER
NS = ParamVariant.NODE_SEARCH


def _dist(tree, a, b):
    from collections import deque
    seen = {a: 0}
    q = deque([a])
    while q:
        v = q.popleft()
        if v == b:
            return seen[v]
        for u in tree.neighbours(v):
            if u not in seen:
                seen[u] = seen[v] + 1
                q.append(u)
    raise AssertionError("disconnected")


def test_change_root_identity():
    t = path_tree(5)
    df = DynamicForest.from_tree(t)
    r = df.root_of(0)
    df.change_root(r)
    assert df.counters.messages == 0


def test_change_root_preserves_value_exhaustive():
    for n in range(1, 9):
        for t in enumerate_trees(n):
            want = run_static(t).value
            for target in t.vertices:
                df = DynamicForest.from_tree(t)
                r1 = df.root_of(target)
                df.change_root(target)
                df.check_invariants()
                assert df.root_of(target) == target
                assert df.value_of(target) == want
                assert df.counters.messages <= 2 * _dist(t, r1, target) + 1


def test_change_root_path_bound():
    t = path_tree(5)
    df = DynamicForest.from_tree(t)
    far = 0 if df.root_of(0) != 0 else 4
    df.change_root(far)
    assert df.counters.messages <= 8  # two messages per hop, four hops at most


def test_delete_edge_matches_static_reruns():
    for n in range(2, 9):
        for t in enumerate_trees(n):
            for u, v in t.edges():
                df = DynamicForest.from_tree(t)
                df.delete_edge(u, v)
                df.check_invariants()
                rest = t.copy()
                rest.remove_edge(u, v)
                for comp in rest.components():
                    sub = rest.induced(comp)
                    assert df.value_of(next(iter(comp))) == run_static(sub).value


def test_delete_leaf_edge_gives_zero():
    t = path_tree(4)
    df = DynamicForest.from_tree(t)
    df.delete_edge(0, 1)
    assert df.value_of(0) == 0


def test_delete_then_readd_restores_value():
    t = theorem1_tree(2)
    want = run_static(t).value
    for u, v in list(t.edges())[:6]:
        df = DynamicForest.from_tree(t)
        df.delete_edge(u, v)
        df.add_edge(u, v)
        df.check_invariants()
        assert df.value_of(u) == want


def test_add_edge_examples():
    df = DynamicForest.isolated(2)
    df.add_edge(0, 1)
    assert df.value_of(0) == 1  # a 2-path processes with one agent
    df = DynamicForest.isolated(2, NS)
    df.add_edge(0, 1)
    assert df.value_of(0) == 2

    # joining two 2-paths end to end gives a 4-path
    df = DynamicForest.isolated(4)
    df.add_edge(0, 1)
    df.add_edge(2, 3)
    df.add_edge(1, 2)
    assert df.value_of(0) == 2


def test_add_edge_rejects_cycles():
    df = DynamicForest.isolated(3)
    df.add_edge(0, 1)
    df.add_edge(1, 2)
    with pytest.raises(StructureError):
        df.add_edge(0, 2)
    df.check_invariants()
    assert df.value_of(0) == 1  # state unchanged by the rejected edge


@pytest.mark.parametrize("early_stop", [False, True])
def test_rejected_edge_leaves_state_unchanged(early_stop):
    df = inc_build([(0, 1), (1, 2), (2, 3), (4, 5)], 6, early_stop=early_stop)
    df.change_root(0)
    forest, counters, roots = df.forest.copy(), replace(df.counters), dict(df.roots)
    # two cycles, a duplicate edge and a self-loop
    for w1, w2 in ((0, 2), (3, 0), (2, 1), (4, 4)):
        with pytest.raises(StructureError):
            df.add_edge(w1, w2)
        assert df.forest == forest and df.forest.m() == 4
        assert df.counters == counters and df.roots == roots
    df.check_invariants()


def test_check_invariants_sees_received_drift():
    df = DynamicForest.from_tree(random_tree(15, 2))
    df.check_invariants()
    child = next(v for v, st in df.states.items() if st.father is not None)
    st = df.states[df.states[child].father]
    hd = st.received.pop(child)
    with pytest.raises(AssertionError, match="received set drift"):
        df.check_invariants()
    st.received[child] = hd
    df.check_invariants()
    df.states[child].received[df.states[child].father] = hd
    with pytest.raises(AssertionError, match="received set drift"):
        df.check_invariants()


def test_bad_arguments():
    df = DynamicForest.isolated(3)
    df.add_edge(0, 1)
    with pytest.raises(ArgumentError):
        df.delete_edge(1, 2)
    with pytest.raises(ArgumentError):
        df.change_root(9)
    with pytest.raises(ArgumentError):
        df.add_edge(0, 9)


def test_unknown_encoding_rejected():
    with pytest.raises(ArgumentError):
        DynamicForest.isolated(3, encoding="bogus")
    with pytest.raises(ArgumentError):
        DynamicForest.from_tree(path_tree(4), encoding="knwon")
    with pytest.raises(ArgumentError):
        inc_build([(0, 1)], 2, encoding="")


def test_growth_by_joining_stars():
    # claws process with one agent; hanging two of them on a junction vertex
    # already forces a second agent, and the third keeps the level-2 shape
    df = DynamicForest.isolated(13)
    for c in (0, 4, 8):
        for leaf in range(c + 1, c + 4):
            df.add_edge(c, leaf)
    assert df.value_of(0) == df.value_of(4) == 1
    df.add_edge(12, 0)
    df.add_edge(12, 4)
    assert df.value_of(12) == 2
    df.add_edge(12, 8)
    assert df.value_of(12) == 2
    want = run_static(df.forest).value
    assert df.value_of(12) == want


def test_inc_build_random_orders():
    t = random_tree(50, 11)
    want = run_static(t).value
    edges = t.edges()
    for seed in range(100):
        rng = random.Random(seed)
        order = edges[:]
        rng.shuffle(order)
        df = inc_build(order, 50)
        assert len(df.roots) == 1 and set(df.roots.values()) == {want}
    df.check_invariants()


def test_inc_build_variants_agree_with_static():
    t = random_tree(25, 3)
    for variant in (PN, NS, ParamVariant.EDGE_SEARCH):
        df = inc_build(t.edges(), 25, variant)
        assert set(df.roots.values()) == {run_static(t, variant).value}


def test_early_stop_matches_default():
    t = random_tree(30, 4)
    edges = t.edges()
    want = run_static(t).value
    for seed in range(20):
        rng = random.Random(seed)
        order = edges[:]
        rng.shuffle(order)
        plain = inc_build(order, 30)
        short = inc_build(order, 30, early_stop=True)
        short.check_invariants()
        assert set(short.roots.values()) == set(plain.roots.values()) == {want}
        assert short.counters.messages <= plain.counters.messages


def test_dynamic_message_sizes(record_frames):
    from treesweep.hd import ceil_log3
    t = random_tree(20, 8)
    target = min(t.vertices)
    df = DynamicForest.from_tree(t)
    hops = _dist(t, target, df.root_of(target))
    frames = record_frames()
    df.change_root(target)
    per = ceil_log3(20) + 3
    wires = [w for _, w in frames["replace"]] + frames["notify"]
    assert wires and all(len(w.bits) == per for w in wires)
    assert df.counters.bits == len(frames["replace"]) * per + hops * per

    df = DynamicForest.from_tree(t, encoding="unknown")
    frames = record_frames()
    df.change_root(target)
    for hd, wire in frames["replace"]:
        assert len(wire.bits) == 2 * hd.length + 4 + 1
    for wire in frames["notify"]:
        assert len(wire.bits) == 5
    assert df.counters.bits == sum(len(w) for _, w in frames["replace"]) + hops * 5


@pytest.mark.parametrize("variant", list(ParamVariant))
def test_from_tree_states_do_not_depend_on_encoding(variant):
    # the set-up run is known-size whatever the encoding; its states equal
    # an unknown-size run's, and its messages stay out of df.counters
    from treesweep.codec import UnknownSize
    t = random_tree(60, 3)
    df = DynamicForest.from_tree(t, variant, encoding="unknown")
    assert isinstance(df.scheme, UnknownSize)
    run = run_static(t, variant, UnknownSize())
    assert df.states == run.states
    assert df.roots == {run.root: run.value}
    assert (df.counters.messages, df.counters.bits, df.counters.steps) == (0, 0, 0)


@pytest.mark.parametrize("early_stop,counts", [
    (False, (1433, 10031, 822)),
    (True, (69, 483, 118)),
])
def test_inc_build_worst_case_counters_golden(early_stop, counts):
    df = inc_build(worst_case_instance(50), 50, early_stop=early_stop)
    c = df.counters
    assert (c.messages, c.bits, c.steps) == counts


@pytest.mark.parametrize("variant,encoding,counts,roots", [
    (PN, "known", (26, 182, 17), {1: 2, 2: 2}),
    (PN, "unknown", (26, 182, 17), {1: 2, 2: 2}),
    (NS, "known", (26, 208, 17), {1: 3, 2: 3}),
    (NS, "unknown", (26, 200, 17), {1: 3, 2: 3}),
    (ParamVariant.EDGE_SEARCH, "known", (26, 182, 17), {1: 2, 2: 3}),
    (ParamVariant.EDGE_SEARCH, "unknown", (26, 182, 17), {1: 2, 2: 3}),
])
def test_reroot_and_delete_counters_golden(variant, encoding, counts, roots):
    df = DynamicForest.from_tree(random_tree(40, 7), variant, encoding=encoding)
    df.change_root(0)
    df.delete_edge(35, 2)  # 2 is not the root, so the deletion reroots
    df.change_root(1)
    df.check_invariants()
    c = df.counters
    assert (c.messages, c.bits, c.steps) == counts
    assert df.roots == roots


def test_unknown_encoding_dynamic_values():
    t = random_tree(18, 5)
    df = inc_build(t.edges(), 18, encoding="unknown")
    assert set(df.roots.values()) == {run_static(t).value}


def test_script_runner():
    out, df = run_script(
        "add 0 1\nadd 1 2\nadd 2 3\nquery 0\ndel 1 2\nquery 0\nquery 3\n"
        "add 1 2\nquery 2\nreroot 0\nquery 2\n")
    assert out == ["query 0 value=2", "query 0 value=1", "query 3 value=1",
                   "query 2 value=2", "query 2 value=2"]
    df.check_invariants()


def _digest_of_sequence(variant, encoding, early_stop):
    """sha256 over counters, roots and every node's (father, received) after
    each step of a seeded sequence: an edge-by-edge build, then rounds of
    deletions, a reroot, re-additions and another reroot."""
    n = 24
    rng = random.Random(2024)
    edges = random_tree(n, 9).edges()
    rng.shuffle(edges)
    df = DynamicForest.isolated(n, variant, encoding, early_stop)
    digest = hashlib.sha256()

    def record():
        c = df.counters
        states = [(v, st.father, sorted(st.received.items()))
                  for v, st in sorted(df.states.items())]
        digest.update(repr((c.messages, c.bits, c.steps, sorted(df.roots.items()),
                            states)).encode())

    for u, v in edges:
        df.add_edge(u, v)
        record()
    for _ in range(4):
        removed = rng.sample(df.forest.edges(), 5)
        for u, v in removed:
            df.delete_edge(*((v, u) if rng.random() < 0.5 else (u, v)))
            record()
        df.change_root(rng.randrange(n))
        record()
        rng.shuffle(removed)
        for u, v in removed:
            df.add_edge(*((v, u) if rng.random() < 0.5 else (u, v)))
            record()
        df.change_root(rng.randrange(n))
        record()
    df.check_invariants()
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("early_stop", [False, True])
@pytest.mark.parametrize("variant", list(ParamVariant))
@pytest.mark.parametrize("encoding", ["known", "unknown"])
def test_dynamic_sequence_digest_golden(variant, encoding, early_stop):
    assert _digest_of_sequence(variant, encoding, early_stop) == \
        SEQUENCE_DIGESTS[early_stop, variant.name, encoding]


SEQUENCE_DIGESTS = {  # (early_stop, variant, encoding) -> digest prefix
    (False, "PROCESS_NUMBER", "known"): "6f8135e30e643b5b",
    (False, "PROCESS_NUMBER", "unknown"): "d2f2606e66cce325",
    (False, "NODE_SEARCH", "known"): "48b9602811c68fde",
    (False, "NODE_SEARCH", "unknown"): "18e0dc22cba434b5",
    (False, "EDGE_SEARCH", "known"): "5651075a392c61fc",
    (False, "EDGE_SEARCH", "unknown"): "6add6a6547130393",
    (True, "PROCESS_NUMBER", "known"): "fadb0b3663a3461a",
    (True, "PROCESS_NUMBER", "unknown"): "e8809f9ff7df7365",
    (True, "NODE_SEARCH", "known"): "4aa607aa08feb824",
    (True, "NODE_SEARCH", "unknown"): "b8518ebf17de26bd",
    (True, "EDGE_SEARCH", "known"): "687f7821083f26b7",
    (True, "EDGE_SEARCH", "unknown"): "ce8053811f67c1bf",
}
