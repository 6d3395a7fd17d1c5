import itertools
import math
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from treesweep.forest import (ArgumentError, Forest, GraphError, ParseError,
                              StructureError, cycle_graph, enumerate_trees,
                              gen_tree, grid_graph, number_of_free_trees,
                              parse_edge_list, path_tree, prufer_to_tree,
                              random_tree, serialize, spider_tree, star_tree,
                              theorem1_size, theorem1_tree)

# counts of non-isomorphic free trees, n = 1..13
FREE_TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301]


def test_parse_basics():
    f = parse_edge_list("0 1\n1 2\n")
    assert f.n == 3 and f.edges() == [(0, 1), (1, 2)]
    f = parse_edge_list("n 2\n")
    assert f.n == 2 and f.edges() == []
    f = parse_edge_list(b"# comment\n\nn 3\n0 2\n")
    assert f.n == 3 and f.edges() == [(0, 2)]


def test_parse_rejects_cycle_and_junk():
    with pytest.raises(StructureError) as err:
        parse_edge_list("0 1\n1 2\n2 0\n")
    assert str(err.value) == "line 3: edge (2, 0) would create a cycle"
    with pytest.raises(StructureError) as err:
        parse_edge_list("0 1\n# comment\n\n1 0\n")
    assert str(err.value) == "line 4: duplicate edge (1, 0)"
    with pytest.raises(StructureError) as err:
        parse_edge_list("n 3\n2 2\n")
    assert str(err.value) == "line 2: self-loop at vertex 2"
    with pytest.raises(ParseError) as err:
        parse_edge_list("0 1\nnope\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError):
        parse_edge_list("0 one\n")
    # lines are checked in order: the first bad line wins, whatever its kind
    with pytest.raises(StructureError, match="^line 3: "):
        parse_edge_list("0 1\n1 2\n2 0\n" + "3 4\n" * 5 + "junk\n")
    with pytest.raises(ParseError, match="^line 2: "):
        parse_edge_list("0 1\njunk\n1 0\n")


@given(st.integers(1, 40), st.integers(0, 10_000))
def test_parse_serialize_roundtrip(n, seed):
    f = random_tree(n, seed)
    assert parse_edge_list(serialize(f)) == f


@pytest.mark.parametrize("n, edges, seed, want", [
    (20, 12, 0, [(1, 8), (2, 10), (3, 19), (4, 9), (4, 16), (4, 19), (6, 18),
                 (8, 17), (9, 12), (11, 15), (12, 13), (15, 16)]),
    (20, 12, 1, [(0, 10), (0, 12), (0, 14), (0, 17), (2, 8), (3, 15), (3, 18),
                 (4, 18), (6, 12), (7, 8), (13, 19), (14, 15)]),
    (20, 12, 2, [(0, 11), (1, 2), (1, 8), (1, 18), (2, 11), (5, 9), (5, 13),
                 (6, 19), (8, 19), (11, 17), (12, 16), (14, 16)]),
    (30, 29, 4, [(0, 2), (0, 29), (1, 7), (2, 4), (2, 11), (3, 23), (3, 26),
                 (4, 10), (5, 14), (5, 24), (6, 8), (6, 13), (7, 9), (7, 15),
                 (8, 11), (8, 25), (9, 18), (9, 29), (10, 21), (12, 15),
                 (12, 17), (16, 17), (19, 27), (20, 26), (20, 27), (22, 28),
                 (24, 25), (26, 29), (27, 28)]),
])
def test_random_forest_edges_golden(n, edges, seed, want):
    # the seeded draws, and which of them are rejected, are part of the output
    from treesweep.forest import random_forest
    assert random_forest(n, edges, seed).edges() == want


def test_gen_tree_checks_argument_count():
    with pytest.raises(ArgumentError) as err:
        gen_tree("spider", 1, 2)
    assert str(err.value) == "spider expects l1 l2 l3, got 2 argument(s)"
    with pytest.raises(ArgumentError, match="^random expects n seed, got 3"):
        gen_tree("random", 5, 1, 2)
    with pytest.raises(ArgumentError, match="^path expects k, got 0"):
        gen_tree("path")


def test_generators_shapes():
    assert path_tree(4).edges() == [(0, 1), (1, 2), (2, 3)]
    assert star_tree(5).degree(0) == 5
    sp = spider_tree(2, 2, 2)
    assert sp.n == 7 and sp.degree(0) == 3
    assert gen_tree("path", 3) == path_tree(3)
    with pytest.raises(ArgumentError):
        path_tree(0)
    with pytest.raises(ArgumentError):
        random_tree(0, 1)
    with pytest.raises(ArgumentError):
        gen_tree("frob", 3)


def test_theorem1_structure():
    t1 = theorem1_tree(1)
    assert t1.n == 4 and t1.degree(3) == 3  # a claw: three singletons plus center
    t2 = theorem1_tree(2)
    assert t2.n == 13
    center = 12
    assert sorted(t2.neighbours(center)) == [3, 7, 11]  # the three star centers
    for k in range(7):
        assert theorem1_tree(k).n == theorem1_size(k) == (3 ** (k + 1) - 1) // 2
    for k in range(5):
        t = theorem1_tree(k)
        assert t.is_tree()


@given(st.integers(1, 50), st.integers(0, 10_000))
def test_random_tree_is_tree(n, seed):
    t = random_tree(n, seed)
    assert t.n == n and t.is_tree()
    assert random_tree(n, seed) == t  # deterministic in the seed


def test_enumeration_counts():
    for n, want in enumerate(FREE_TREE_COUNTS, start=1):
        assert number_of_free_trees(n) == want
    for n in range(1, 11):
        got = list(enumerate_trees(n))
        assert len(got) == FREE_TREE_COUNTS[n - 1]
        for t in got:
            assert t.n == n and t.is_tree()
    with pytest.raises(ArgumentError):
        next(enumerate_trees(14))
    with pytest.raises(ArgumentError):
        next(enumerate_trees(0))


def _ahu_canonical(tree: Forest) -> str:
    """Isomorphism-invariant code: AHU encoding rooted at the centroid(s)."""
    def encode_rooted(root):
        def rec(v, parent):
            subs = sorted(rec(u, v) for u in tree.neighbours(v) if u != parent)
            return "(" + "".join(subs) + ")"
        return rec(root, None)

    weights = []
    for v in tree.vertices:
        rest = tree.induced(set(tree.vertices) - {v})
        heaviest = max((len(c) for c in rest.components()), default=0)
        weights.append((heaviest, v))
    best = min(h for h, _ in weights)
    return min(encode_rooted(v) for h, v in weights if h == best)


def test_enumeration_vs_labeled_prufer():
    """Cross-check against exhaustive labeled-tree generation for n <= 7."""
    for n in range(3, 8):
        enumerated = {_ahu_canonical(t) for t in enumerate_trees(n)}
        assert len(enumerated) == FREE_TREE_COUNTS[n - 1]
        labeled = set()
        for seq in itertools.product(range(n), repeat=n - 2):
            labeled.add(_ahu_canonical(prufer_to_tree(list(seq), n)))
        assert labeled == enumerated


def test_forest_guards():
    f = Forest(range(3))
    f.add_edge(0, 1)
    f.add_edge(1, 2)
    with pytest.raises(StructureError):
        f.add_edge(0, 2)
    with pytest.raises(StructureError):
        f.add_edge(1, 1)
    g = cycle_graph(5)
    assert g.n == 5 and g.m() == 5
    gr = grid_graph(3, 3)
    assert gr.n == 9 and gr.m() == 12
    assert not gr.is_connected() or gr.is_connected()


def test_components():
    f = parse_edge_list("n 5\n0 1\n2 3\n")
    comps = sorted(sorted(c) for c in f.components())
    assert comps == [[0, 1], [2, 3], [4]]
    assert not f.is_connected()


def test_random_forest_roundtrips_disconnected():
    from treesweep.forest import random_forest
    f = random_forest(12, 7, seed=3)
    assert f.n == 12 and f.m() == 7 and not f.is_connected()
    assert parse_edge_list(serialize(f)) == f


class _UnionFind:
    """Reference connectivity for the cycle check, rebuilt after each removal."""

    def __init__(self, edges):
        self.parent = {}
        for u, v in edges:
            self.union(u, v)

    def find(self, v):
        root = v
        while self.parent.get(root, root) != root:
            root = self.parent[root]
        return root

    def union(self, u, v):
        self.parent[self.find(u)] = self.find(v)


@pytest.mark.parametrize("seed", range(6))
def test_cycle_check_matches_union_find(seed):
    rng = random.Random(seed)
    n = 24
    forest = Forest(range(n))
    edges: set[tuple[int, int]] = set()
    removed: list[tuple[int, int]] = []
    ref = _UnionFind(edges)
    for _ in range(600):
        kind = rng.choice(["add", "add", "add", "readd", "dup", "loop", "del", "del-missing"])
        if kind == "readd" and removed:
            u, v = rng.choice(removed)
        elif kind == "dup" and edges:
            u, v = rng.choice(sorted(edges))
            if rng.random() < 0.5:
                u, v = v, u
        elif kind == "loop":
            u = v = rng.randrange(n)
        else:
            u, v = rng.randrange(n), rng.randrange(n)
        key = (min(u, v), max(u, v))
        if kind.startswith("del"):
            if kind == "del" and edges:
                u, v = rng.choice(sorted(edges))
                key = (u, v)
            expected = None if key in edges else (
                ArgumentError, f"edge ({u}, {v}) does not exist")
            if expected is None:
                edges.remove(key)
                removed.append(key)
                ref = _UnionFind(edges)
            action = forest.remove_edge
        else:
            if u == v:
                expected = (StructureError, f"self-loop at vertex {u}")
            elif key in edges:
                expected = (StructureError, f"duplicate edge ({u}, {v})")
            elif ref.find(u) == ref.find(v):
                expected = (StructureError, f"edge ({u}, {v}) would create a cycle")
            else:
                expected = None
                edges.add(key)
                ref.union(u, v)
            action = forest.add_edge
        if expected is None:
            action(u, v)
        else:
            with pytest.raises(expected[0]) as info:
                action(u, v)
            assert type(info.value) is expected[0] and str(info.value) == expected[1]
        assert set(forest.edges()) == edges
        a, b = rng.randrange(n), rng.randrange(n)
        assert forest.connected(a, b) == (ref.find(a) == ref.find(b))


class _CountingAdjacency(dict):
    lookups = 0

    def __getitem__(self, v):
        type(self).lookups += 1
        return dict.__getitem__(self, v)


def _adjacency_lookups(n, edges):
    forest = Forest(range(n))
    forest.adj = _CountingAdjacency(forest.adj)
    _CountingAdjacency.lookups = 0
    for u, v in edges:
        forest.add_edge(u, v)
    assert forest.is_tree()
    return _CountingAdjacency.lookups


def _balanced_joins(lo, hi, out):
    """Path edges ordered so every insertion joins two halves of equal size."""
    if hi - lo > 1:
        mid = (lo + hi) // 2
        _balanced_joins(lo, mid, out)
        _balanced_joins(mid, hi, out)
        out.append((mid - 1, mid))
    return out


def test_cycle_check_cost_follows_the_smaller_side():
    # about six lookups per insertion are bookkeeping and the two starting
    # points; the rest is the cycle check, which stops when the smaller
    # component is exhausted (a full scan of one side would make these
    # builds quadratic: about n * n / 2 lookups)
    n = 2000
    sorted_path = [(i, i + 1) for i in range(n - 1)]
    star_centre_first = [(0, i) for i in range(1, n)]
    for edges in (sorted_path, sorted_path[::-1], star_centre_first):
        assert _adjacency_lookups(n, edges) <= 10 * n
    shuffled = random_tree(n, 3).edges()
    random.Random(3).shuffle(shuffled)
    for edges in (shuffled, _balanced_joins(0, n, [])):
        assert _adjacency_lookups(n, edges) <= n * (6 + math.log2(n))


def _random_edge_text(rng):
    """Edge-list lines over sparse ids: a shuffled random forest, sometimes
    with a duplicate (either orientation), a self-loop, a cycle-closing
    edge, a junk line, comments or an "n" line anywhere among them."""
    ids = rng.sample(range(80), rng.randint(1, 14))
    edges = [(ids[i], ids[rng.randrange(i)]) for i in range(1, len(ids))
             if rng.random() < 0.85]
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(edges)
    lines = [f"{u} {v}" for u, v in edges]
    for _ in range(rng.choice([0, 0, 1, 2])):
        kind = rng.choice(["dup", "loop", "cycle", "junk", "comment"])
        if kind == "dup" and edges:
            u, v = rng.choice(edges)
            line = f"{v} {u}" if rng.random() < 0.5 else f"{u} {v}"
        elif kind == "loop":
            u = rng.choice(ids)
            line = f"{u} {u}"
        elif kind == "cycle":
            line = f"{rng.choice(ids)} {rng.choice(ids)}"
        elif kind == "junk":
            line = rng.choice(["1 2 3", "x 1", "-1 2", "n", "n -2"])
        else:
            line = rng.choice(["", "# note", "  "])
        lines.insert(rng.randint(0, len(lines)), line)
    if rng.random() < 0.6:
        lines.insert(rng.randint(0, len(lines)), f"n {rng.randrange(90)}")
    return "\n".join(lines) + "\n"


def _replay(text):
    """Reference for `parse_edge_list`: one `Forest.add_edge` per edge line.
    Returns the forest, or the error's class, line and message (None for a
    malformed line)."""
    forest = Forest()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        try:
            if parts[0] == "n":
                count = int(parts[1])
                if len(parts) != 2 or count < 0:
                    raise ValueError(raw)
                for v in range(count):
                    forest.add_vertex(v)
                continue
            u, v = map(int, parts)
            if u < 0 or v < 0:
                raise ValueError(raw)
            forest.add_edge(u, v)
        except StructureError as exc:
            return StructureError, lineno, str(exc)
        except (ValueError, IndexError):
            return ParseError, lineno, None
    return forest


@pytest.mark.parametrize("seed", range(8))
def test_parse_matches_replay_through_add_edge(seed):
    rng = random.Random(seed)
    outcomes = set()
    for _ in range(150):
        text = _random_edge_text(rng)
        want = _replay(text)
        if isinstance(want, Forest):
            got = parse_edge_list(text)
            assert got.adj == want.adj and list(got.adj) == list(want.adj), text
            outcomes.add("ok")
            continue
        cls, lineno, message = want
        with pytest.raises(GraphError) as info:
            parse_edge_list(text)
        assert type(info.value) is cls, text
        prefix = f"line {lineno}: "
        assert str(info.value).startswith(prefix), text
        if message is not None:
            assert str(info.value) == prefix + message, text
        outcomes.add(message.split()[0] if message else "junk")
    # every kind of outcome is drawn: accepted, junk, self-loop, duplicate, cycle
    assert outcomes == {"ok", "junk", "self-loop", "duplicate", "edge"}


def test_bulk_builds_do_not_search(monkeypatch):
    from treesweep.forest import Graph

    def refuse(self, u, v):
        raise AssertionError("Graph.connected called")

    monkeypatch.setattr(Graph, "connected", refuse)
    tree = random_tree(300, 5)
    assert tree.is_tree() and parse_edge_list(serialize(tree)) == tree
    with pytest.raises(StructureError):
        parse_edge_list("0 1\n1 2\n2 0\n")


def test_bulk_build_cost_is_linear(monkeypatch):
    # the lockstep check costs the balanced joins about n * log2(n) adjacency
    # lookups; with the union-find an insertion makes four adjacency lookups
    # (the duplicate check and the two stores) and about seven union-find ones
    import treesweep.forest as forest_mod

    counts = {"sets": 0}

    class CountingSets(forest_mod._UnionFind):
        def __getitem__(self, v):
            counts["sets"] += 1
            return super().__getitem__(v)

    class CountingForest(Forest):
        def __init__(self, *args):
            super().__init__(*args)
            self.adj = _CountingAdjacency(self.adj)

    monkeypatch.setattr(forest_mod, "_UnionFind", CountingSets)
    monkeypatch.setattr(forest_mod, "Forest", CountingForest)
    n = 2000
    shuffled = random_tree(n, 3).edges()
    random.Random(3).shuffle(shuffled)
    for edges in (shuffled, _balanced_joins(0, n, [])):
        counts["sets"] = _CountingAdjacency.lookups = 0
        tree = parse_edge_list("".join(f"{u} {v}\n" for u, v in edges))
        assert _CountingAdjacency.lookups <= 4 * n
        assert counts["sets"] <= 8 * n
        assert type(tree) is CountingForest and tree.is_tree() and tree.n == n
