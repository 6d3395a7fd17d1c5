import itertools
import math
import random
import sys

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from treesweep.forest import (ArgumentError, Forest, Graph, GraphError,
                              ParseError, StructureError, enumerate_trees,
                              gen_tree, parse_edge_list, path_tree,
                              prufer_to_tree, random_tree, serialize,
                              spider_tree, star_tree, theorem1_tree)
from treesweep.oracle import gap_characterization_check

from helpers import (_balanced_joins, cycle_graph, grid_graph,
                     number_of_free_trees, random_forest)

# counts of non-isomorphic free trees, n = 1..13
FREE_TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301]


def test_parse_basics():
    f = parse_edge_list("0 1\n1 2\n")
    assert f.n == 3 and f.edges() == [(0, 1), (1, 2)]
    f = parse_edge_list("n 2\n")
    assert f.n == 2 and f.edges() == []
    f = parse_edge_list("# comment\n\nn 3\n0 2\n")
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


_ACCEPTED = [
    ("0 1\r\n1\t2\r\n", [(0, [1]), (1, [0, 2]), (2, [1])]),
    ("0 1 # the first edge\n1 2#no space\n", [(0, [1]), (1, [0, 2]), (2, [1])]),
    ("+3 007\n", [(3, [7]), (7, [3])]),
    (" \t \n0 1\n   \n\t\n", [(0, [1]), (1, [0])]),
    ("5 6\nn 3\n", [(5, [6]), (6, [5]), (0, []), (1, []), (2, [])]),
    ("\u0663 1\n", [(3, [1]), (1, [3])]),  # int() reads any Unicode digit
    # 1, 17 and 25 share a hash slot, so a set's order is its insertion order
    ("9 1\n9 17\n9 25\n", [(9, [1, 17, 25]), (1, [9]), (17, [9]), (25, [9])]),
    ("9 25\n17 9\n9 1\n", [(9, [25, 17, 1]), (25, [9]), (17, [9]), (1, [9])]),
    ("n 0\n", []),
    ("n 2\n0 5\n", [(0, [5]), (1, []), (5, [0])]),  # ids above the declared count
]

# more digits than `int` reads by default (`sys.get_int_max_str_digits()`)
_HUGE = "9" * 5000

_REJECTED = [
    ("n 2\n0 1\nn 2\n", ParseError, "line 3: bad vertex-count line 'n 2'"),
    ("n -1\n", ParseError, "line 1: negative vertex count"),
    ("n x\n", ParseError, "line 1: bad vertex count 'x'"),
    ("n 2 3\n", ParseError, "line 1: bad vertex-count line 'n 2 3'"),
    ("0 1 2\n", ParseError, "line 1: expected 'u v', got '0 1 2'"),
    ("0 -1\n", ParseError, "line 1: negative vertex id in '0 -1'"),
    ("0 1.5\n", ParseError, "line 1: non-integer endpoint in '0 1.5'"),
    ("0 1\n\u00e9\n", ParseError, "line 2: expected 'u v', got '\u00e9'"),
    ("0 1\n1 0\n", StructureError, "line 2: duplicate edge (1, 0)"),
    ("n 3\n2 2\n", StructureError, "line 2: self-loop at vertex 2"),
    ("0 1\r\n1 2\r\n2 0\r\n", StructureError, "line 3: edge (2, 0) would create a cycle"),
    # in `serialize`'s form: the bulk route gives up, the line loop words the error
    pytest.param("n 2\n0 " + _HUGE + "\n", ParseError,
                 f"line 2: non-integer endpoint in '0 {_HUGE}'", id="huge-endpoint"),
    pytest.param("n " + _HUGE + "\n", ParseError, f"line 1: bad vertex count '{_HUGE}'",
                 id="huge-count"),
    ("n 3\n0 1\n0 1\n", StructureError, "line 3: duplicate edge (0, 1)"),
    ("n 3\n0 1\n1 2\n0 2\n", StructureError, "line 4: edge (0, 2) would create a cycle"),
]


def _both_routes(text):
    """`text` as written, and with a comment line after it: the same edges
    on the same lines, but only the first can take the bulk route."""
    return text, text + "# end\n"


@pytest.mark.parametrize("text,adj", _ACCEPTED)
def test_parse_edge_cases_keep_the_adjacency_order(text, adj):
    for written in _both_routes(text):
        forest = parse_edge_list(written)
        assert [(v, list(nbrs)) for v, nbrs in forest.adj.items()] == adj


@pytest.mark.parametrize("text,error,message", _REJECTED)
def test_parse_edge_cases_keep_the_error(text, error, message):
    for written in _both_routes(text):
        with pytest.raises(Exception) as info:
            parse_edge_list(written)
        assert type(info.value) is error and str(info.value) == message


_LINE_LOOP_ONLY = [
    "0 1\n1 2", "0 1\n2",  # no final newline
    # one space and one newline per line, but a run of digits is empty
    "n \n0 1\n", "1 \n2 3\n", "0 1\n 2\n3 4\n", " 1\n2 3\n",
    "n 3 \n", "n 3\nn 3\n", "0 1\nn 3\n", "0 1 \n", "0  1\n", "0 1 2\n3\n", "0\n",
    "0 1\n\n", "\n0 1\n", "0 1\r\n", "0\t1\n", "+0 1\n", "\u0663 1\n", "0 1\n# end\n",
]


def test_parse_routes_by_form(monkeypatch):
    # exactly the text in `serialize`'s form tries the bulk route; the line
    # loop parses any other text, and any the bulk route cannot finish
    import treesweep.forest as forest_mod

    routes = []
    for name in ("_parse_serialized", "_parse_lines"):
        def spy(*args, _name=name, _route=getattr(forest_mod, name)):
            routes.append(_name)
            return _route(*args)
        monkeypatch.setattr(forest_mod, name, spy)

    def route(text):
        routes.clear()
        try:
            parse_edge_list(text)
        except GraphError:
            pass
        return routes

    for text in ("", "n 0\n", "n 3\n", "0 1\n", "007 3\n", serialize(random_tree(50, 1))):
        assert route(text) == ["_parse_serialized"], text
    for text in ("n 3\n0 1\n1 2\n0 2\n", "0 1\n1 0\n", "n 3\n2 2\n",
                 "n 2\n0 " + _HUGE + "\n", "n " + _HUGE + "\n"):
        assert route(text) == ["_parse_serialized", "_parse_lines"], text
    for text in _LINE_LOOP_ONLY:
        assert route(text) == ["_parse_lines"], text


@pytest.mark.parametrize("chunk", [1, 5, 64, None])
def test_bulk_route_reads_across_chunks(monkeypatch, chunk):
    # chunks end on whole lines, however small; a bad line in a later chunk
    # is still worded by the line loop
    import treesweep.forest as forest_mod

    if chunk is not None:
        monkeypatch.setattr(forest_mod, "_CHUNK", chunk)
    n = 20000
    text = serialize(random_tree(n, 2))
    assert len(text) > 2 * forest_mod._CHUNK
    got, want = (parse_edge_list(written) for written in _both_routes(text))
    assert list(got.adj.items()) == list(want.adj.items())
    assert list(map(list, got.adj.values())) == list(map(list, want.adj.values()))
    with pytest.raises(StructureError) as info:
        parse_edge_list(text + f"0 {n - 1}\n")
    assert str(info.value) == f"line {n + 1}: edge (0, {n - 1}) would create a cycle"


def test_pruefer_rejects_entries_outside_the_vertex_range():
    for seq in ([-1], [3], [1.0]):
        with pytest.raises(ArgumentError, match=r"^Pruefer entries must be ints in 0\.\.2, got "):
            prufer_to_tree(seq, 3)
    assert prufer_to_tree([True], 3).edges() == [(0, 1), (1, 2)]


@given(st.integers(1, 40), st.integers(0, 10_000))
def test_parse_serialize_roundtrip(n, seed):
    f = random_tree(n, seed)
    assert parse_edge_list(serialize(f)) == f


def test_serialize_keeps_sparse_ids():
    f = Forest([5, 7], [(5, 7)])
    assert serialize(f) == "n 0\n5 7\n"
    assert parse_edge_list(serialize(f)) == f
    with pytest.raises(ArgumentError, match="isolated vertex 9 .* ids below 3$"):
        serialize(Forest([0, 1, 2, 9], [(0, 1)]))


@given(st.integers(1, 30), st.integers(0, 10_000))
def test_serialize_roundtrips_sparse_ids_or_refuses_cleanly(n, seed):
    # a random forest (isolated vertices included) whose ids keep a dense
    # prefix of random length and are scattered above it
    rng = random.Random(seed)
    base = random_forest(n, rng.randint(0, n - 1), seed)
    dense = rng.randint(0, n)
    ids = list(range(dense)) + rng.sample(range(dense + 1, 4 * n + 2), n - dense)
    rng.shuffle(ids)
    f = Forest(ids, [(ids[u], ids[v]) for u, v in base.edges()])
    prefix = next(k for k in itertools.count() if k not in f.vertices)
    stranded = [v for v in f.vertices if v > prefix and f.degree(v) == 0]
    if stranded:
        with pytest.raises(ArgumentError, match="isolated vertex"):
            serialize(f)
    else:
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


@pytest.mark.parametrize("call,message", [
    (lambda: star_tree(0), "star needs at least 1 leaf, got 0"),
    (lambda: spider_tree(0, 1, 1), "spider legs must have length >= 1"),
    (lambda: theorem1_tree(-1), "theorem1 level must be >= 0, got -1"),
    (lambda: prufer_to_tree([0], 4), "sequence length 1 != n - 2 = 2"),
    (lambda: random_forest(3, 5, 0), "need 1 <= n and 0 <= edges <= n - 1"),
    (lambda: cycle_graph(2), "cycle needs k >= 3, got 2"),
    (lambda: grid_graph(0, 2), "grid needs positive dimensions"),
    (lambda: number_of_free_trees(-1), "order must be non-negative"),
], ids=["star", "spider", "theorem1", "pruefer", "random-forest", "cycle", "grid",
        "free-trees"])
def test_generator_error_paths(call, message):
    with pytest.raises(ArgumentError) as err:
        call()
    assert type(err.value) is ArgumentError and str(err.value) == message


def test_theorem1_structure():
    t1 = theorem1_tree(1)
    assert t1.n == 4 and t1.degree(3) == 3  # a claw: three singletons plus center
    t2 = theorem1_tree(2)
    assert t2.n == 13
    center = 12
    assert sorted(t2.neighbours(center)) == [3, 7, 11]  # the three star centers
    for k in range(7):
        assert theorem1_tree(k).n == (3 ** (k + 1) - 1) // 2
    for k in range(5):
        t = theorem1_tree(k)
        assert t.is_tree()


# each family's adjacency, vertex order and every neighbour set's iteration
# order included, as its generators built it before they emitted edge lists
GENERATOR_GOLDENS = {
    "path-star": ("9a150978947b7bb1dca4eb15f49e2cbee3ed3ba294466b7f06b7f9d320d58649",
                  lambda: [f(k) for f in (path_tree, star_tree) for k in (1, 2, 100)]),
    "spider": ("fefba214e3366e2ab75b5668b03e9d424eb5304239370b0c681d6e19ebc362df",
               lambda: [spider_tree(1, 1, 1), spider_tree(5, 7, 9)]),
    "theorem1": ("2f86978f655428339d0406ed624f9e04f2c6ea3b379aeceb77a452d883aa27ce",
                 lambda: [theorem1_tree(k) for k in range(7)]),
    "random": ("31e9d200fda62e625ef655571adaa289f0302eb0424e36d8dde6055e962a05e1",
               lambda: [random_tree(n, s) for n in range(1, 41) for s in range(3)]),
    "enumerate": ("e4d57baf8b2d49fe7b509937c656754b1c8a131aaff8121394543fbde59a9c82",
                  lambda: [t for n in range(1, 14) for t in enumerate_trees(n)]),
    "induced": ("07d31344c536c3fea885c147cb5264a73789f924529856fd17c300f3a0ba2f28",
                lambda: [random_tree(40, 2).induced(set(range(0, 40, 2)) | {1, 3}),
                         grid_graph(3, 4).induced({0, 1, 2, 4, 5, 6, 9, 11})]),
}


@pytest.mark.parametrize("family", GENERATOR_GOLDENS)
def test_generators_golden(family):
    import hashlib

    want, build = GENERATOR_GOLDENS[family]
    adjacency = [[(v, list(nbrs)) for v, nbrs in g.adj.items()] for g in build()]
    assert hashlib.sha256(repr(adjacency).encode()).hexdigest() == want


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65,
                               255, 256, 257, 1023, 1024, 1025, 4096, 4097])
def test_random_tree_draws_as_randrange(n):
    # a Pruefer sequence is its tree's one code, so equal trees mean equal
    # draws
    for seed in range(5):
        rng = random.Random(seed)
        want = prufer_to_tree([rng.randrange(n) for _ in range(n - 2)], n)
        assert random_tree(n, seed) == want


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
    assert gr.is_connected()


def test_components():
    f = parse_edge_list("n 5\n0 1\n2 3\n")
    comps = sorted(sorted(c) for c in f.components())
    assert comps == [[0, 1], [2, 3], [4]]
    assert not f.is_connected()


def test_random_forest_roundtrips_disconnected():
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
        assert (forest.exhausted_side(a, b) is None) == (ref.find(a) == ref.find(b))


class _CountingAdjacency(dict):
    lookups = 0

    def __getitem__(self, v):
        type(self).lookups += 1
        return dict.__getitem__(self, v)

    def get(self, v, default=None):
        type(self).lookups += 1
        return dict.get(self, v, default)


def _adjacency_lookups(n, edges):
    forest = Forest(range(n))
    forest.adj = _CountingAdjacency(forest.adj)
    _CountingAdjacency.lookups = 0
    for u, v in edges:
        forest.add_edge(u, v)
    assert forest.is_tree()
    return _CountingAdjacency.lookups


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


def test_add_edge_returns_the_side_its_cycle_check_exhausts(monkeypatch):
    forest = path_tree(1000)
    forest.add_vertex(1000)
    assert forest.add_edge(500, 1000) == {1000}
    # two 2-vertex paths: the search runs out of u's side first on a tie
    for u, v, side in ((0, 2, {0, 1}), (2, 0, {2, 3}), (1, 3, {0, 1})):
        forest = Forest(range(4), [(0, 1), (2, 3)])
        assert forest.copy().exhausted_side(u, v) == side
        assert forest.add_edge(u, v) == side
    # a self-loop or a duplicate is reported as such, not as a cycle: no search
    searches = []
    search = Graph.exhausted_side
    monkeypatch.setattr(Graph, "exhausted_side",
                        lambda self, u, v: searches.append((u, v)) or search(self, u, v))
    forest = Forest(range(4), [(0, 1), (1, 2)])
    for u, v, message in ((1, 1, "self-loop at vertex 1"),
                          (2, 1, "duplicate edge (2, 1)"),
                          (0, 2, "edge (0, 2) would create a cycle")):
        with pytest.raises(StructureError) as info:
            forest.add_edge(u, v)
        assert str(info.value) == message
    assert searches == [(0, 2)]
    assert forest.edges() == [(0, 1), (1, 2)]


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


def _parse_as_replayed(text, label):
    """Parses `text` by both routes, and requires of each what `_replay`
    gives: the same adjacency, in the same order, or an error of the same
    class at the same line, with the same message unless the line is
    malformed.  Returns the kind of outcome: "ok", "junk" for a malformed
    line, or the first word of the message."""
    want = _replay(text)
    for written in _both_routes(text):
        if isinstance(want, Forest):
            got = parse_edge_list(written)
            assert got.adj == want.adj and list(got.adj) == list(want.adj), label
            assert (list(map(list, got.adj.values()))
                    == list(map(list, want.adj.values()))), label
            continue
        cls, lineno, message = want
        with pytest.raises(GraphError) as info:
            parse_edge_list(written)
        assert type(info.value) is cls, label
        prefix = f"line {lineno}: "
        assert str(info.value).startswith(prefix), label
        if message is not None:
            assert str(info.value) == prefix + message, label
    if isinstance(want, Forest):
        return "ok"
    _, _, message = want
    return message.split()[0] if message else "junk"


@pytest.mark.parametrize("seed", range(8))
def test_parse_matches_replay_through_add_edge(seed):
    rng = random.Random(seed)
    outcomes = set()
    for _ in range(150):
        text = _random_edge_text(rng)
        outcomes.add(_parse_as_replayed(text, text))
    # every kind of outcome is drawn: accepted, junk, self-loop, duplicate, cycle
    assert outcomes == {"ok", "junk", "self-loop", "duplicate", "edge"}


def test_bulk_builds_do_not_search(monkeypatch):
    from treesweep.forest import Graph

    def refuse(self, u, v):
        raise AssertionError("Graph.exhausted_side called")

    monkeypatch.setattr(Graph, "exhausted_side", refuse)
    tree = random_tree(300, 5)
    assert tree.is_tree() and parse_edge_list(serialize(tree)) == tree
    with pytest.raises(StructureError):
        parse_edge_list("0 1\n1 2\n2 0\n")


def _parent_first(tree, root, rng):
    """The edges of `tree` in breadth-first order from `root`, each edge
    after its father's, so that each brings in a vertex; each pair is
    written father first or child first at random."""
    edges, seen, queue = [], {root}, [root]
    for u in queue:
        for w in sorted(tree.adj[u]):
            if w not in seen:
                seen.add(w)
                queue.append(w)
                edges.append((u, w) if rng.random() < 0.5 else (w, u))
    return edges


def test_parse_matches_replay_on_deep_fresh_link_chains():
    # a parent-first edge list links every edge by one parent store, so a
    # path in order hangs its n vertices in one n-deep chain; a root lookup
    # after that walks it.  One bad line anywhere must still be reported as
    # `Forest.add_edge` reports it
    rng = random.Random(5)
    n = 2000
    tree = random_tree(n, 5)
    shuffled = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in tree.edges()]
    rng.shuffle(shuffled)
    orders = {
        "shuffled": shuffled,
        "parent-first": _parent_first(tree, rng.randrange(n), rng),
        "path in order": [(i, i + 1) for i in range(n - 1)],
        "balanced joins": _balanced_joins(0, n, []),
    }
    outcomes = set()
    for name, edges in orders.items():
        lines = [f"{u} {v}" for u, v in edges]
        pairs = {(min(e), max(e)) for e in edges}
        texts = ["\n".join(lines) + "\n"]
        for kind in ("loop", "dup", "cycle") * 2:
            if kind == "loop":
                u = v = rng.randrange(n)
            elif kind == "dup":
                v, u = rng.choice(edges)
            else:  # two ends of no edge: the list then has n edges on n vertices
                u, v = rng.sample(range(n), 2)
                while (min(u, v), max(u, v)) in pairs:
                    u, v = rng.sample(range(n), 2)
            bad = list(lines)
            bad.insert(rng.randint(0, len(bad)), f"{u} {v}")
            texts.append("\n".join(bad) + "\n")
        for text in texts:
            outcomes.add(_parse_as_replayed(text, name))
    # no "junk": every rejected text's message was compared whole
    assert outcomes == {"ok", "self-loop", "duplicate", "edge"}


def test_bulk_build_cost_is_linear(monkeypatch):
    # the lockstep check costs the balanced joins about n * log2(n) adjacency
    # lookups; the bulk build makes two adjacency lookups per insertion (one
    # per endpoint), and asks its union-find only for an edge whose two ends
    # both have edges already, at least once per end
    import treesweep.forest as forest_mod

    counts = {"sets": 0}
    build = forest_mod._build.__code__

    def count_sets(frame, event, arg):
        # the union-find is a plain dict, so its lookups are the builtin
        # `get` calls of `_build` itself (the adjacency's `get` below is
        # Python code)
        if event == "c_call" and frame.f_code is build and arg.__name__ == "get":
            counts["sets"] += 1

    def parse_counting(text):
        counts["sets"] = _CountingAdjacency.lookups = 0
        profile = sys.getprofile()
        sys.setprofile(count_sets)
        try:
            tree = parse_edge_list(text)
        finally:
            sys.setprofile(profile)
        assert type(tree) is CountingForest and tree.is_tree()
        assert 2 * (tree.n - 1) <= _CountingAdjacency.lookups <= 4 * tree.n
        return tree

    def joins(edges):
        """How many edges come when both of their ends have edges."""
        touched, count = set(), 0
        for u, v in edges:
            count += u in touched and v in touched
            touched.update((u, v))
        return count

    class CountingForest(Forest):
        def __init__(self, *args):
            super().__init__(*args)
            self.adj = _CountingAdjacency(self.adj)

    n = 2000
    spine = n // 3
    caterpillar = serialize(Forest(range(3 * spine), [(i, i + 1) for i in range(spine - 1)]
                                   + [(i, spine + 2 * i + j) for i in range(spine) for j in (0, 1)]))
    monkeypatch.setattr(forest_mod, "Forest", CountingForest)
    shuffled = random_tree(n, 3).edges()
    random.Random(3).shuffle(shuffled)
    for edges in (shuffled, _balanced_joins(0, n, [])):
        tree = parse_counting("".join(f"{u} {v}\n" for u, v in edges))
        assert 2 * joins(edges) <= counts["sets"] <= 8 * n
        assert tree.n == n
    # every edge brings in a vertex: a path in order, a star centre-first,
    # and a caterpillar as `serialize` writes it (lines sorted, after an "n"
    # line that makes every vertex, with no edge, before the first line)
    for text in ("".join(f"{i} {i + 1}\n" for i in range(n - 1)),
                 "".join(f"0 {i}\n" for i in range(1, n)),
                 caterpillar):
        parse_counting(text)
        assert counts["sets"] == 0


def test_parse_validates_each_endpoint_once(monkeypatch):
    # the tokeniser checks each id once; the bulk build then trusts it and
    # creates vertices itself, never through `Graph.add_vertex`
    from treesweep.forest import Graph

    calls = {"add_vertex": 0}
    add_vertex = Graph.add_vertex

    def counting(self, v):
        calls["add_vertex"] += 1
        add_vertex(self, v)

    n = 4096
    text = serialize(random_tree(n, 1))
    monkeypatch.setattr(Graph, "add_vertex", counting)
    tree = parse_edge_list(text)
    assert tree.n == n and tree.is_tree()
    assert calls["add_vertex"] == 0


@pytest.mark.parametrize("build,n", [(path_tree, 4096), (lambda n: star_tree(n - 1), 4096)],
                         ids=["path", "star"])
def test_constructor_validates_each_endpoint_once(monkeypatch, build, n):
    # the vertex list adds every vertex once; then each edge validates its
    # two endpoints once, inside the insertion it makes
    from treesweep.forest import Graph

    calls = {"add_vertex": 0}
    add_vertex = Graph.add_vertex

    def counting(self, v):
        calls["add_vertex"] += 1
        add_vertex(self, v)

    monkeypatch.setattr(Graph, "add_vertex", counting)
    tree = build(n)
    assert tree.n == n and tree.is_tree()
    assert calls["add_vertex"] == n + 2 * (n - 1) == 12286


@pytest.mark.parametrize("edge", [(-1, -1), (1.5, 1.5), (-1, 2), (2, -1), (2, 2.0)])
@pytest.mark.parametrize("kind", ["Graph", "Forest"])
def test_constructor_reports_a_bad_id_before_a_self_loop(kind, edge):
    from treesweep.forest import Graph

    cls = {"Graph": Graph, "Forest": Forest}[kind]
    with pytest.raises(StructureError, match="vertex ids must be non-negative integers"):
        cls((), [edge])
    with pytest.raises(StructureError, match="self-loop at vertex 3"):
        cls((), [(0, 1), (3, 3)])


@pytest.mark.parametrize("edge,bad", [((-1, -1), "-1"), ((1.5, 1.5), "1.5"),
                                      ((2, 2.0), "2.0")])
@pytest.mark.parametrize("kind", ["Graph", "Forest"])
def test_add_edge_reports_a_bad_id_before_a_self_loop(kind, edge, bad):
    from treesweep.forest import Graph

    # a Graph takes its edges through its constructor, which checks them as
    # `Forest.add_edge` does
    add_edge = {"Graph": lambda u, v: Graph((), [(u, v)]),
                "Forest": Forest().add_edge}[kind]
    with pytest.raises(StructureError) as err:
        add_edge(*edge)
    assert str(err.value) == f"vertex ids must be non-negative integers, got {bad}"
    with pytest.raises(StructureError, match="^self-loop at vertex 3$"):
        add_edge(3, 3)


def test_induced_subgraph_keeps_the_kind_of_graph():
    tree = random_tree(40, 2)
    keep = set(range(0, 40, 2)) | {1, 3}
    sub = tree.induced(keep)
    assert type(sub) is Forest
    assert sub.adj == Graph.induced(tree, keep).adj
    whole = tree.induced(tree.vertices)
    assert type(whole) is Forest and whole == tree
    grid = grid_graph(3, 3)
    assert type(grid.induced({0, 1, 3, 4})) is Graph
    assert grid.induced({0, 1, 3, 4}).m() == 4  # the cycle survives


def test_gap_check_accepts_an_induced_tree():
    # three 4-paths joined through a fresh vertex: pathwidth 2, a genuine gap
    f = Forest(range(13), [(b + i, b + i + 1) for b in (0, 4, 8) for i in range(3)]
               + [(12, b) for b in (0, 4, 8)])
    assert gap_characterization_check(f.induced(f.vertices))


def test_forest_connectivity_counts_edges(monkeypatch):
    monkeypatch.setattr(Graph, "component_of", None)  # no search may run
    assert Forest().is_connected() and Forest([3]).is_connected()
    assert path_tree(5).is_connected() and path_tree(5).is_tree()
    assert not Forest(range(3), [(0, 1)]).is_connected()
    assert not Forest(range(4), [(0, 1), (2, 3)]).is_tree()
