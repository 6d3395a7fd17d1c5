import copy
import hashlib
import math
import random

import pytest

from treesweep.dynamic import DynamicForest, TreeRecord, inc_build, run_script
from treesweep.experiments import worst_case_instance
from treesweep.forest import (ArgumentError, StructureError, path_tree,
                              random_tree, star_tree, theorem1_tree)
from treesweep.hd import HDescriptor, NO_STABLE, ParamVariant, merge
from treesweep.protocol import run_static

from helpers import (_balanced_joins, _dist, _static_disagreements,
                     build_in_shuffled_orders, delete_everywhere, reroot_everywhere)

PN = ParamVariant.PROCESS_NUMBER
NS = ParamVariant.NODE_SEARCH


def test_change_root_identity():
    t = path_tree(5)
    df = DynamicForest.from_tree(t)
    r = df.root_of(0)
    df.change_root(r)
    assert df.counters.messages == 0


def test_change_root_preserves_value_exhaustive():
    reroot_everywhere(8)


def test_change_root_path_bound():
    t = path_tree(5)
    df = DynamicForest.from_tree(t)
    far = 0 if df.root_of(0) != 0 else 4
    df.change_root(far)
    assert df.counters.messages <= 8  # two messages per hop, four hops at most


def test_delete_edge_matches_static_reruns():
    delete_everywhere(8)


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
    forest, counters, roots = df.forest.copy(), copy.copy(df.counters), dict(df.roots)
    records = copy.deepcopy(df.record_of)
    # two cycles, a duplicate edge and a self-loop
    for w1, w2 in ((0, 2), (3, 0), (2, 1), (4, 4)):
        with pytest.raises(StructureError):
            df.add_edge(w1, w2)
        assert df.forest == forest and df.forest.m() == 4
        assert df.counters == counters and df.roots == roots
        assert df.record_of == records
    df.check_invariants()


def test_check_invariants_sees_received_drift():
    df = DynamicForest.from_tree(random_tree(15, 2))
    df.check_invariants()
    child = next(v for v, father in sorted(df.father.items()) if father is not None)
    entries = df.received[df.father[child]]
    hd = entries.pop(child)
    with pytest.raises(AssertionError, match="received set drift"):
        df.check_invariants()
    entries[child] = hd
    df.check_invariants()
    df.received[child][df.father[child]] = hd
    with pytest.raises(AssertionError, match="received set drift"):
        df.check_invariants()


def test_check_invariants_sees_a_vertex_missing_from_one_map():
    df = DynamicForest.from_tree(random_tree(15, 2))
    for held in (df.received, df.father):
        kept = held.pop(3)
        with pytest.raises(AssertionError, match="hold different vertices"):
            df.check_invariants()
        held[3] = kept
        df.check_invariants()


def test_check_invariants_sees_record_drift():
    df = inc_build([(0, 1), (1, 2), (3, 4)], 6)
    df.check_invariants()
    record = df.record_of[0]
    root = record.root
    record.root = 1 if root != 1 else 0
    with pytest.raises(AssertionError, match="record drift at"):
        df.check_invariants()
    record.root = root
    del df.record_of[2]  # a vertex with an edge and no record
    with pytest.raises(AssertionError, match="disagrees with its degree"):
        df.check_invariants()
    df.record_of[2] = record
    df.record_of[5] = TreeRecord(5)  # an isolated vertex's record
    with pytest.raises(AssertionError, match="disagrees with its degree"):
        df.check_invariants()
    del df.record_of[5]
    df.record_of[2] = TreeRecord(record.root)
    with pytest.raises(AssertionError, match="two records"):
        df.check_invariants()
    df.record_of[2] = record
    df.check_invariants()


def test_check_invariants_sees_root_drift():
    df = DynamicForest.from_tree(random_tree(15, 2))
    df.check_invariants()
    (root, value), = df.roots.items()
    del df.roots[root]
    with pytest.raises(AssertionError, match=f"^untracked root {root}$"):
        df.check_invariants()
    df.roots[root] = value + 1
    with pytest.raises(AssertionError, match=f"^stale value at root {root}$"):
        df.check_invariants()
    df.roots[root] = value
    df.check_invariants()
    other = next(v for v in df.father if v != root)
    df.roots[other] = value  # a root value for a vertex with a father
    with pytest.raises(AssertionError, match="^root bookkeeping drift$"):
        df.check_invariants()
    del df.roots[other]
    df.check_invariants()


def test_check_invariants_sees_a_father_cycle():
    df = DynamicForest.from_tree(random_tree(15, 2))
    # v's father becomes its child u, and v's entries follow: every received
    # set still matches, and the chain v, u, v, ... never reaches the root
    v = next(v for v, father in sorted(df.father.items())
             if father is not None and df.received[v])
    u, father = next(iter(df.received[v])), df.father[v]
    entries = df.received[v]
    hd = entries.pop(u)
    entries[father] = hd
    df.father[v] = u
    with pytest.raises(AssertionError, match=r"^father chain through \d+ is a cycle$"):
        df.check_invariants()
    df.father[v] = father
    del entries[father]
    entries[u] = hd
    df.check_invariants()


def test_check_invariants_sees_an_untagged_entry():
    df = DynamicForest.from_tree(random_tree(15, 2))
    v = next(v for v, father in sorted(df.father.items()) if father is not None)
    father = df.father[v]
    entry = df.received[father][v]
    df.received[father][v] = HDescriptor(*entry)  # equal, but untagged
    with pytest.raises(AssertionError, match=f"^untagged entry from {v} at {father}$"):
        df.check_invariants()
    df.received[father][v] = entry
    df.check_invariants()


def test_check_invariants_sees_a_stale_interior_entry():
    # a valid tagged descriptor that is not the merge of its sender's
    # entries, held below the root, so no root value shows it; a sender
    # comes before its father in `from_tree`'s father order, so the check
    # names this entry before the stale one it makes at the father's father
    df = DynamicForest.from_tree(random_tree(15, 2))
    v, father = next((v, f) for v, f in df.father.items()
                     if f is not None and df.received[v] and df.father[f] is not None)
    entry = df.received[father][v]
    df.received[father][v] = merge([], PN)  # a leaf's descriptor
    with pytest.raises(AssertionError, match=f"^stale entry from {v} at {father}$"):
        df.check_invariants()
    df.received[father][v] = entry
    df.check_invariants()


class _CountingDict(dict):
    """A dict that counts the reads and writes made through its methods."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = self.writes = 0

    def __getitem__(self, key):
        self.reads += 1
        return dict.__getitem__(self, key)

    def get(self, key, default=None):
        self.reads += 1
        return dict.get(self, key, default)

    def __contains__(self, key):
        self.reads += 1
        return dict.__contains__(self, key)

    def __setitem__(self, key, value):
        self.writes += 1
        dict.__setitem__(self, key, value)


def test_query_on_a_deep_path_reads_constant_state():
    n = 2000
    df = DynamicForest.from_tree(path_tree(n))
    df.change_root(0)
    df.father, df.record_of = _CountingDict(df.father), _CountingDict(df.record_of)
    df.roots = _CountingDict(df.roots)
    assert df.value_of(n - 1) == 2  # a father chain of n - 1 links
    assert (df.father.reads, df.record_of.reads, df.roots.reads) == (0, 1, 1)


def test_a_query_on_a_vertex_with_a_record_calls_no_root_of(monkeypatch):
    def no_root_of(self, v):
        raise AssertionError(f"value_of({v}) called root_of")

    for seed in range(3):
        tree, rng = random_tree(200, seed), random.Random(seed)
        want = run_static(tree).value
        df = DynamicForest.from_tree(tree)
        for _ in range(3):
            df.change_root(rng.randrange(tree.n))
        with monkeypatch.context() as patch:
            patch.setattr(DynamicForest, "root_of", no_root_of)
            assert {v: df.value_of(v) for v in tree.vertices} == dict.fromkeys(
                tree.vertices, want)


def test_deleting_an_edge_next_to_a_leaf_reads_constant_adjacency():
    # the lockstep search of the split stops as soon as the leaf's side,
    # one vertex, is exhausted; a search of the other side would read
    # about n entries
    n = 2000
    for tree, leaf, other in ((path_tree(n), 0, 1), (path_tree(n), n - 1, n - 2),
                              (star_tree(n - 1), 5, 0)):
        df = DynamicForest.from_tree(tree)
        df.forest.adj = _CountingDict(df.forest.adj)
        df.delete_edge(leaf, other)
        assert df.forest.adj.reads <= 12
        assert leaf not in df.record_of
        assert all(df.record_of[v] is df.record_of[other] for v in df.forest.vertices
                   if v != leaf)
        assert df.value_of(leaf) == 0  # the one-vertex value, read with no record
        df.check_invariants()


@pytest.mark.parametrize("early_stop", [False, True])
def test_inc_build_relabels_n_log_n_vertices(early_stop):
    # the side the cycle check exhausts first is at most about half of the
    # joined tree, so each vertex moves O(log n) times; relabelling the
    # first endpoint's side every time would be quadratic for one of the
    # two path orders
    n = 2000
    sorted_path = [(i, i + 1) for i in range(n - 1)]
    for edges in (sorted_path, sorted_path[::-1], _balanced_joins(0, n, [])):
        df = DynamicForest.isolated(n, early_stop=early_stop)
        df.record_of = _CountingDict()
        for u, v in edges:
            df.add_edge(u, v)
        assert all(df.record_of[v] is df.record_of[0] for v in range(n))
        assert df.record_of.writes <= n * (2 + math.log2(n))


@pytest.mark.parametrize("early_stop", [False, True])
def test_a_join_relabels_exactly_the_side_the_cycle_check_exhausts(early_stop):
    # a star on 0..999 and a path on 1000..1009: the lockstep search runs
    # out of the path first, so its 10 vertices move and the star's 1000
    # keep their record
    df = DynamicForest.isolated(1010, early_stop=early_stop)
    for leaf in range(1, 1000):
        df.add_edge(0, leaf)
    for v in range(1000, 1009):
        df.add_edge(v, v + 1)
    star = df.record_of[0]
    df.record_of = _CountingDict(df.record_of)
    df.add_edge(5, 1000)
    assert df.record_of.writes == 10
    assert all(df.record_of[v] is star for v in range(1010))
    df.check_invariants()


def test_check_invariants_walks_each_father_link_once():
    n = 2000
    df = DynamicForest.from_tree(path_tree(n))
    df.change_root(0)
    df.father = _CountingDict(df.father)
    df.check_invariants()
    # one walk per vertex from scratch would read about n * n / 2 links
    assert df.father.reads <= 2 * n


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
    build_in_shuffled_orders(random_tree(50, 11), range(100))


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


@pytest.mark.parametrize("encoding", ["known", "unknown"])
def test_dynamic_frames_are_flagged_bit_strings(record_frames, encoding):
    # paper-mode insertions reroot, so the build sends both kinds of
    # message; each is its flag bit and a codec frame, and the counters
    # pay for the flag
    from treesweep.codec import decode
    edges = random_tree(60, 3).edges()
    random.Random(3).shuffle(edges)
    frames = record_frames()
    df = inc_build(edges, 60, encoding=encoding)
    assert frames["replace"] and frames["notify"]
    for hd, message in frames["replace"]:
        assert set(message) <= {"0", "1"}
        assert decode(message[1:], df.scheme) == hd
    for message in frames["notify"]:
        assert set(message) <= {"0", "1"}
        assert decode(message[1:], df.scheme) == HDescriptor(NO_STABLE, ())
    if encoding == "known":
        sent = [message for _, message in frames["replace"]] + frames["notify"]
        assert {len(message) for message in sent} == {df.scheme.cells + 3}
    before = copy.copy(df.counters)
    frames = record_frames()
    df.change_root(0)
    (note,) = frames["notify"]
    replaced = [message for _, message in frames["replace"]]
    assert replaced
    assert df.counters.bits - before.bits == (
        sum(len(message) for message in replaced) + len(replaced) * len(note))


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
    assert wires and all(len(w) == per for w in wires)
    assert df.counters.bits == len(frames["replace"]) * per + hops * per

    df = DynamicForest.from_tree(t, encoding="unknown")
    frames = record_frames()
    df.change_root(target)
    for hd, wire in frames["replace"]:
        assert len(wire) == 2 * hd.length + 4 + 1
    for wire in frames["notify"]:
        assert len(wire) == 5
    assert df.counters.bits == sum(len(w) for _, w in frames["replace"]) + hops * 5


@pytest.mark.parametrize("encoding", ["known", "unknown"])
@pytest.mark.parametrize("target,k", [(3, 1), (0, 4)])
def test_change_root_walk_accounting(record_frames, encoding, target, k):
    # k hops: k replace frames in one wave, one notification walk counted k
    # times, and k merges on the way plus one for the new root's value
    t = path_tree(9)
    df = DynamicForest.from_tree(t, encoding=encoding)
    assert _dist(t, target, df.root_of(target)) == k
    frames = record_frames()
    df.change_root(target)
    assert len(frames["replace"]) == k and len(frames["notify"]) == 1
    c = df.counters
    assert (c.messages, c.steps) == (2 * k, k + 1)
    assert c.bits == (k * len(frames["notify"][0])
                      + sum(len(w) for _, w in frames["replace"]))
    assert df.root_of(0) == target
    df.check_invariants()


def test_early_stop_push_ends_at_an_unchanged_receiver(record_frames):
    # 3 hangs under 1, whose leaf child 2 already made it a star centre: the
    # frame 3 -> 1 is sent, 1's merge is unchanged, so 1 -> 0 is computed
    # but not sent
    df = DynamicForest.isolated(4, early_stop=True)
    df.add_edge(1, 0)
    df.add_edge(2, 1)
    before = copy.copy(df.counters)
    held = dict(df.received[0])
    frames = record_frames()
    df.add_edge(3, 1)
    (first, sent), (unsent, _) = frames["replace"]
    assert df.received[1][3] == first
    assert unsent == held[1]
    assert frames["notify"] == [] and df.received[0] == held
    c = df.counters
    assert (c.messages - before.messages, c.bits - before.bits) == (1, len(sent))
    assert c.steps - before.steps == 2  # the merges at 3 and at 1, no root value
    assert df.roots == {0: 1}
    df.check_invariants()


@pytest.mark.parametrize("variant", list(ParamVariant))
def test_from_tree_states_do_not_depend_on_encoding(variant):
    # the set-up run is in the forest's scheme; its states equal an
    # unknown-size run's, and its messages stay out of df.counters
    from treesweep.codec import UnknownSize
    t = random_tree(60, 3)
    df = DynamicForest.from_tree(t, variant, encoding="unknown")
    assert isinstance(df.scheme, UnknownSize)
    run = run_static(t, variant, UnknownSize())
    assert (df.received, df.father) == (
        {v: run.received.get(v, {}) for v in t.vertices},
        {v: run.father.get(v) for v in t.vertices})
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
        states = [(v, df.father[v], sorted(df.received[v].items()))
                  for v in sorted(df.father)]
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


@pytest.mark.parametrize("variant,encoding,early_stop,seed", [
    *((variant, encoding, early_stop, seed) for variant in (PN, NS)
      for encoding in ("known", "unknown") for early_stop in (False, True)
      for seed in range(3)),
    pytest.param(ParamVariant.EDGE_SEARCH, "known", False, 7, marks=pytest.mark.xfail(
        strict=True, reason="es of random_tree(200, 7) depends on the root (26 of "
        "200 roots give 4, the elected one 3), so the dynamic forest, rooted "
        "elsewhere, disagrees with the static run")),
])
def test_dynamic_values_equal_static_runs_at_scale(variant, encoding, early_stop, seed):
    assert _static_disagreements(variant, encoding, early_stop, seed) == []


def test_deleting_an_edge_that_is_no_father_link_is_rejected():
    df = DynamicForest.from_tree(path_tree(4))
    assert df.father[0] == 1
    df.father[0] = None  # neither end of (0, 1) is now the other's child
    with pytest.raises(ArgumentError) as err:
        df.delete_edge(0, 1)
    assert (type(err.value) is ArgumentError
            and str(err.value) == "edge (0, 1) is not a father link")
