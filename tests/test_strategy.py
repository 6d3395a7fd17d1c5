import functools
import hashlib
import random
import sys

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from treesweep.forest import (Forest, enumerate_trees, path_tree, random_tree,
                              serialize, spider_tree, star_tree, theorem1_tree)
from treesweep.hd import ContractError
from treesweep.protocol import Schedule, run_static
from treesweep.strategy import (Action, Strategy, StrategyError, _Extractor,
                                extract, validate)

from helpers import hdesc

P, R, S = "P", "R", "S"


def act(*pairs):
    return Strategy([Action(k, v) for k, v in pairs])


def test_star_strategy():
    g = star_tree(4)
    s = act((P, 0), (S, 1), (S, 2), (S, 3), (S, 4), (R, 0))
    assert validate(g, s) == 1


@pytest.mark.parametrize("actions,message", [
    (((P, 9),), "step 0: unknown vertex 9"),
    (((P, 0), (P, 0)), "step 1: place on non-fresh vertex 0"),
    (((R, 0),), "step 0: remove without agent at 0"),
    (((P, 0), (R, 0)), "step 1: remove at 0 with untouched neighbour 1"),
    (((P, 1), (S, 1)), "step 1: surround-process on non-fresh 1"),
    (((S, 1),), "step 0: 1 not surrounded, neighbour 0 has no agent"),
    ((("X", 1),), "step 0: unknown action kind 'X'"),
    (((P, 1), (S, 0)), "end state: vertex 1 not processed"),
])
def test_validate_error_paths(actions, message):
    with pytest.raises(StrategyError) as err:
        validate(path_tree(3), act(*actions))
    assert type(err.value) is StrategyError and str(err.value) == message


def test_single_vertex_conventions():
    g = path_tree(1)
    with pytest.raises(StrategyError):
        validate(g, Strategy([]))  # vertex left unprocessed
    assert validate(g, act((P, 0), (R, 0))) == 1
    assert validate(g, act((S, 0))) == 0  # vacuously surrounded


def test_validator_rejects_illegal_moves():
    g = path_tree(3)
    with pytest.raises(StrategyError) as err:
        validate(g, act((P, 0), (R, 0)))  # neighbour 1 untouched
    assert "step 1" in str(err.value)
    with pytest.raises(StrategyError):
        validate(g, act((S, 1)))  # not surrounded
    with pytest.raises(StrategyError):
        validate(g, act((P, 0), (P, 0)))
    with pytest.raises(StrategyError):
        validate(g, act((P, 1), (S, 0), (S, 2), (R, 1), (R, 1)))
    with pytest.raises(StrategyError):
        validate(g, act((P, 9), (R, 9)))


def test_path4_extraction():
    t = path_tree(4)
    run = run_static(t)
    s = extract(t, run)
    assert validate(t, s) == 2 == run.value


def test_theorem1_level2_two_agents():
    t = theorem1_tree(2)
    run = run_static(t)
    s = extract(t, run)
    assert validate(t, s) == 2


def test_extraction_exhaustive(trees_up_to_8):
    for t in trees_up_to_8:
        run = run_static(t)
        s = extract(t, run)
        assert validate(t, s) == run.value
        assert len(s) <= 3 * t.n


def test_extraction_seed_stable():
    t = random_tree(24, 17)
    want = run_static(t).value
    for seed in range(6):
        run = run_static(t, schedule=Schedule(seed))
        assert validate(t, extract(t, run)) == want


@given(st.integers(2, 48), st.integers(0, 3000))
@settings(max_examples=60, deadline=None)
def test_extraction_random(n, seed):
    t = random_tree(n, seed)
    run = run_static(t)
    s = extract(t, run)
    assert validate(t, s) == run.value
    assert len(s) <= 3 * n


def test_dump_format():
    s = act((P, 3), (S, 1), (R, 3))
    assert s.dump() == "P 3\nS 1\nR 3\n"


def test_dump_matches_the_actions_text():
    assert Strategy().dump() == "\n"
    t = random_tree(60, 2)
    s = extract(t, run_static(t))
    assert s.dump() == "\n".join(str(a) for a in s.actions) + "\n"


@pytest.mark.parametrize("tree", [theorem1_tree(7), spider_tree(300, 300, 300)],
                         ids=["theorem1_7", "spider300x3"])
def test_extract_builds_each_action_once(monkeypatch, tree):
    # reversed hand-offs are written backwards in place, not rebuilt from a
    # forward copy, so no action is built that the strategy does not keep
    import treesweep.strategy as strategy
    built = []
    real = strategy._action

    def counting(pair):
        built.append(pair)
        return real(pair)
    monkeypatch.setattr(strategy, "_action", counting)
    run = run_static(tree)
    s = extract(tree, run)
    assert validate(tree, s) == run.value
    assert all(type(a) is Action for a in s.actions)
    assert len(built) <= len(s) + 2


# sha256 over each tree's edge list and extracted strategy, in order; pinned
# from the recursive extractor, which needed one stack frame per tree level
GOLDEN = {
    "all_n_le_8": (lambda: [t for n in range(1, 9) for t in enumerate_trees(n)],
                   "72fadae64516dc9eceaeada3d12c7f7f876b298d00a2e2b8e49c8b2415290fdb"),
    "random20": (lambda: [random_tree(10 + 9 * s, s) for s in range(20)],
                 "adfca7274ccadf6f6b732d5524d133b61af5536f529be70aab3aba196e66d598"),
    "theorem1": (lambda: [theorem1_tree(k) for k in range(1, 6)],
                 "6ec14522ccf5ed906b203ac211f2f0606c30403f3365b5912f4fffcc29ca7c43"),
}


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("group", sorted(GOLDEN))
def test_extraction_golden(group, seed):
    build, want = GOLDEN[group]
    h = hashlib.sha256()
    for t in build():
        run = run_static(t, schedule=Schedule(seed))
        h.update(serialize(t).encode())
        h.update(extract(t, run).dump().encode())
    assert h.hexdigest() == want


def _caterpillar(spine, legs):
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(i, spine + legs * i + j) for i in range(spine) for j in range(legs)]
    return Forest(range(spine * (1 + legs)), edges)


def _deep_tree(n, seed):
    # vertex i hangs below one of the three before it: depth about n / 2
    rng = random.Random(seed)
    return Forest(range(n), [(i, rng.randrange(max(0, i - 3), i)) for i in range(1, n)])


DEEP = {
    "path4000": (lambda: path_tree(4000), 2),
    "spider1500x3": (lambda: spider_tree(1500, 1500, 1500), 3),
    "caterpillar3000x2": (lambda: _caterpillar(3000, 2), 2),
    "deep8000": (lambda: _deep_tree(8000, 1), 3),
}


# sha256 of one strategy each at the benchmark's sizes
SCALE_GOLDEN = {
    "random4096": (lambda: random_tree(4096, 1),
                   "43e0165c187ac31b8237b2bbbb36cedc6a6c3233faf47d22ce7aa1281b42a22f"),
    "path3000": (lambda: path_tree(3000),
                 "4be609675cbcb7c9829df629cb0880bc5ae107b80709887f8b4ec06d8d25fbb5"),
    "spider1000x3": (lambda: spider_tree(1000, 1000, 1000),
                     "81582f0722197efa4446d747ed7deac94457eda3791788b6acf174c0deb98545"),
    "caterpillar1000x2": (lambda: _caterpillar(1000, 2),
                          "c75ceffc016d260a00a58df425f96c9283419814f07fb5aa4265bbb06ce1a07a"),
}


@pytest.mark.parametrize("name", sorted(SCALE_GOLDEN))
def test_extraction_golden_at_scale(name):
    build, want = SCALE_GOLDEN[name]
    t = build()
    dump = extract(t, run_static(t)).dump()
    assert hashlib.sha256(dump.encode()).hexdigest() == want


def test_extract_rejects_a_tampered_stored_descriptor():
    t = random_tree(200, 4)
    run = run_static(t)
    v = next(u for u in t.adj if u in run.father and u in run.received)
    father = run.father[v]
    received = {u: dict(entries) for u, entries in run.received.items()}
    assert received[father][v] != hdesc(0, 0)
    received[father][v] = hdesc(0, 0)  # a valid descriptor, but a leaf's
    with pytest.raises(ContractError,
                       match=f"stored descriptor at {v} disagrees with a fresh merge"):
        extract(t, run._replace(received=received))
    assert validate(t, extract(t, run)) == run.value


@functools.cache
def _deep_run(name):
    tree = DEEP[name][0]()
    return tree, run_static(tree)


@pytest.mark.parametrize("name", sorted(DEEP))
def test_extraction_on_deep_trees(name):
    t, run = _deep_run(name)
    assert run.value == DEEP[name][1]
    assert validate(t, extract(t, run)) == run.value


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("name", ["spider1500x3", "deep8000"])
def test_extraction_stack_headroom(name):
    # recursion nests through side branches and remainder sweeps only, so
    # the stack a run needs does not grow with the tree's height
    t, run = _deep_run(name)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        s = extract(t, run)
    finally:
        sys.setrecursionlimit(limit)
    assert validate(t, s) == run.value


def test_extract_validates_few_descriptors(monkeypatch):
    # only a merge-memo miss validates, its children: extraction re-merges
    # every vertex in the run's order (all hits), so only the re-merges after
    # a cut can miss; every evaluation the builders read comes with its
    # merge, so nothing validates again
    import treesweep.hd as hd
    t = random_tree(4096, 1)
    run = run_static(t)
    calls = []
    original = hd.validate_descriptor

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(hd, "validate_descriptor", counting)
    extract(t, run)
    assert run.counters.messages == 4095
    assert len(calls) <= 0.5 * run.counters.messages


@pytest.mark.parametrize("name", ["random4096", "deep8000"])
def test_extract_remerges_about_once_per_vertex(monkeypatch, name):
    # a cut re-merges only the carrier path it walked down, so each vertex
    # is merged about once
    from treesweep.strategy import _Extractor
    if name == "deep8000":
        t, run = _deep_run(name)
        bound = t.n + 10
    else:
        t = random_tree(4096, 1)
        run = run_static(t)
        bound = 1.05 * t.n
    calls = []
    original = _Extractor._remerge

    def counting(self, v):
        calls.append(v)
        return original(self, v)
    monkeypatch.setattr(_Extractor, "_remerge", counting)
    assert validate(t, extract(t, run)) == run.value
    assert len(calls) <= bound


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_extract_rebuilds_the_run_from_the_memo(seed, cold_memos):
    # each vertex's children are merged in the order the run merged them
    # (the key order of its received set), so every merge is a memo hit,
    # whatever order the schedule made the messages arrive in
    import treesweep.hd as hd
    from treesweep.strategy import _Extractor
    t = random_tree(4096, seed)
    run = run_static(t, schedule=Schedule(seed))
    before = hd._merge_memo.cache_info()
    _Extractor(t, run)
    after = hd._merge_memo.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (t.n, 0)


def test_extract_rejects_a_run_with_two_roots():
    t = random_tree(20, 1)
    run = run_static(t)
    v = next(u for u in sorted(run.father) if u in run.received)  # not a leaf
    father = {u: f for u, f in run.father.items() if u != v}
    with pytest.raises(ContractError) as err:
        extract(t, run._replace(father=father))
    assert (type(err.value) is ContractError
            and str(err.value) == "the run describes 2 roots, want 1")


def test_end_at_rejects_a_budget_it_cannot_meet():
    t = random_tree(20, 1)
    ex = _Extractor(t, run_static(t))
    w = ex.root
    ex.info[w] = ex.info[w]._replace(pn_plus=0)
    with pytest.raises(ContractError) as err:
        ex.end_at(w, [])
    assert (type(err.value) is ContractError
            and str(err.value) == f"end_at({w}) cannot meet budget 0")


def _extractor_with_a_carrier_path():
    # random_tree(21, 10) has a pure (1,2) node, 6, and its value-2 piece
    # under 2 runs down the carrier path 2, 10 to its fold at 15
    t = random_tree(21, 10)
    return _Extractor(t, run_static(t))


@pytest.mark.parametrize("v, message", [
    (6, "pure (1,2) node 6 should have one child"),
    (2, "expected one carrier of the value-2 piece under 2"),
    (15, "fold at 15 without two maximal branches"),
], ids=["pure", "carrier", "fold"])
def test_sweep_rejects_a_node_stripped_of_its_children(v, message):
    ex = _extractor_with_a_carrier_path()
    ex.children[v] = ()
    with pytest.raises(ContractError) as err:
        ex.sweep(v, [])
    assert type(err.value) is ContractError and str(err.value) == message


def test_sweep_rejects_a_remainder_that_keeps_the_piece_value():
    # without the re-merge after the cut, 2 still reads the value-2 piece
    ex = _extractor_with_a_carrier_path()
    ex._remerge = lambda v: None
    with pytest.raises(ContractError) as err:
        ex.sweep(2, [])
    assert (type(err.value) is ContractError
            and str(err.value) == "remainder value 2 not below piece value 2")
