"""The memos of `hd.merge_detailed`, `codec.encode`, `codec.decode`
and `protocol.hop`: a hit returns what the uncached code returns, a
failure is never cached, and runs give the same results from a cold cache
and a warm one.  `protocol.hop` is a memo with no tag check: a dynamic
forest's entries are tagged by construction, and `check_invariants`
names any that is not."""

import copy
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

import treesweep.codec as codec
import treesweep.dynamic as dynamic
import treesweep.hd as hd
import treesweep.protocol as protocol
from treesweep.codec import (CapacityError, CodecError, FramingError,
                             KnownSize, UnknownSize, decode, encode)
from treesweep.dynamic import DynamicForest, inc_build
from treesweep.forest import path_tree, random_tree
from treesweep.hd import ContractError, HDescriptor, ParamVariant, Vect, merge
from treesweep.protocol import Schedule, default_scheme, run_static
from treesweep.strategy import extract

from helpers import _outcome, hdesc

PN = ParamVariant.PROCESS_NUMBER


def test_hit_does_not_skip_validation_of_an_equal_float_cell(cold_memos):
    assert merge([hdesc(0, 0, (0, 1))], PN) == hdesc(1, 1, (0, 1))
    for _ in range(2):
        with pytest.raises(ContractError, match="non-negative ints"):
            merge([hdesc(0, 0, (0, 1.0))], PN)


@pytest.mark.parametrize("child", [
    hdesc(0, 0, (0, 1.0)),
    hdesc(0, 0, (0, Fraction(1))),
    hdesc(0, 0, (0, Decimal(1))),
    hdesc(0, 0, (0, True)),
    HDescriptor((0, 0), (0, 1)),        # a plain tuple for the vector
    HDescriptor(Vect(0, 0), [0, 1]),    # a list for the table
    ((0, 0), (0, 1)),                   # a plain tuple for the descriptor
])
def test_merge_of_equal_children_matches_the_uncached_merge(child, cold_memos):
    merge([hdesc(0, 0, (0, 1))], PN)  # an equal plain-int key is cached
    assert _outcome(merge, [child], PN) == _outcome(lambda: hd._merge((child,), PN)[0])


@pytest.mark.parametrize("desc", [
    hdesc(1.0, 1.0, (0,)),
    hdesc(1, 1, (0.0,)),
    hdesc(1, 1, (False,)),
])
def test_encode_of_equal_input_matches_the_uncached_encode(desc, cold_memos):
    scheme = KnownSize(3)
    encode(decode(encode(hdesc(1, 1, (0,)), scheme), scheme), scheme)  # cached
    assert _outcome(encode, desc, scheme) == _outcome(codec._encode, desc, scheme)


def test_known_size_budget_must_be_an_int():
    # schemes are memo keys: 3.0 == 3 and True == 1 must not stand in for
    # a budget
    for cells in (3.0, True):
        with pytest.raises(CodecError):
            KnownSize(cells)


@pytest.mark.parametrize("call,error,memo", [
    (lambda: merge([hdesc(-1, -1, (0, 2))], PN), ContractError, hd._merge_memo),
    (lambda: decode("10", UnknownSize()), FramingError, codec.decode),
    (lambda: encode(hdesc(2, 2, (0, 0)), KnownSize.for_tree(3, PN)), CapacityError,
     codec._encode_memo),
], ids=["merge", "decode", "encode"])
def test_failures_are_never_cached(call, error, memo, cold_memos):
    for _ in range(2):
        with pytest.raises(error):
            call()
    assert memo.cache_info().currsize == 0


def test_merge_info_carries_the_evaluation_of_its_output(trees_up_to_8, cold_memos):
    # every tree up to 8 vertices, rooted at each vertex: the first pass
    # merges from a cold memo, the second takes every merge from the memo
    for _ in range(2):
        for tree in trees_up_to_8:
            for variant in ParamVariant:
                for root in tree.vertices:
                    order, parent = [root], {root: None}
                    for v in order:
                        kids = [u for u in tree.neighbours(v) if u != parent[v]]
                        parent.update((u, v) for u in kids)
                        order.extend(kids)
                    out = {}
                    for v in reversed(order):
                        kids = [out[u] for u in tree.neighbours(v) if u != parent[v]]
                        out[v], info = hd.merge_detailed(kids, variant)
                        assert info.result == hd.evaluate(out[v])
                        assert info.pn_plus == hd.pn_plus_from(out[v], info.result)
    memo = hd._merge_memo.cache_info()
    assert memo.misses and memo.hits > memo.misses


def _hung_under_the_root():
    """A dynamic forest rooted at the father of a node v that holds an entry
    with a cell of 1, with v and the key of that entry: a push from v is
    one hop."""
    df = DynamicForest.from_tree(random_tree(60, 1))
    v, kid = next((v, kid) for v, father in sorted(df.father.items())
                  if father is not None
                  for kid, entry in df.received[v].items() if 1 in entry.table)
    df.change_root(df.father[v])
    return df, v, kid


def test_check_invariants_names_a_pushed_equal_untagged_entry(cold_memos):
    # the hop memo reads no tag, so an untagged entry equal to a tagged one
    # takes the tagged hop's result; the forest's own check names the entry
    tagged, v, kid = _hung_under_the_root()
    planted, _, _ = _hung_under_the_root()
    tagged._push(v, False)  # caches the hop of the tagged entries
    entry = planted.received[v][kid]
    planted.received[v][kid] = HDescriptor(*entry)
    kids = tuple(planted.received[v].values())
    planted._push(v, False)
    father = planted.father[v]
    assert planted.received[father][v] == protocol._hop(kids, PN, planted.scheme)[1]
    assert planted.counters == tagged.counters
    for _ in range(2):
        with pytest.raises(AssertionError, match=f"^untagged entry from {kid} at {v}$"):
            planted.check_invariants()


def test_check_invariants_names_a_pushed_float_cell_every_time(cold_memos):
    df, v, kid = _hung_under_the_root()
    df._push(v, False)  # caches the hop of the tagged entries
    entry = df.received[v][kid]
    df.received[v][kid] = HDescriptor(
        entry.vect, tuple(1.0 if c == 1 else c for c in entry.table))
    size = protocol.hop.cache_info().currsize
    for _ in range(2):
        df._push(v, False)
        with pytest.raises(AssertionError, match=f"^untagged entry from {kid} at {v}$"):
            df.check_invariants()
    assert protocol.hop.cache_info().currsize == size


def test_a_broken_codec_roundtrip_raises_every_time(monkeypatch, cold_memos):
    # a receiver's decode that disagrees with the merge it was sent: a
    # static run and a dynamic hop that misses the memo both raise, on
    # every call, and the hop memo keeps nothing
    df, v, _ = _hung_under_the_root()
    tree = random_tree(30, 2)
    cold_memos()
    real = protocol.decode

    def disagreeing(*args):
        entry = real(*args)
        return entry._replace(vect=Vect(entry.vect.pn + 1, entry.vect.pn_plus + 1))
    monkeypatch.setattr(protocol, "decode", disagreeing)
    for call in (lambda: run_static(tree), lambda: df._push(v, False)):
        for _ in range(2):
            with pytest.raises(ContractError, match="codec roundtrip broke"):
                call()
        assert protocol.hop.cache_info().currsize == 0


def test_a_dynamic_hop_is_the_hop_memo_itself():
    # no tag-checking wrapper stands between `_push` and the memo
    assert dynamic.hop is protocol.hop and hasattr(dynamic.hop, "cache_info")


def test_a_repeated_reroot_walk_hits_the_hop_memo_once_per_replace_message(cold_memos):
    tree = random_tree(60, 1)
    far = max(tree.vertices)
    df = DynamicForest.from_tree(tree, encoding="unknown")
    for target in (0, far, 0, far):  # the walk from far to 0 is cached
        df.change_root(target)
    memo, before = protocol.hop.cache_info(), copy.copy(df.counters)
    df.change_root(0)
    after = protocol.hop.cache_info()
    replaces = (df.counters.messages - before.messages) // 2  # one notify per replace
    assert replaces > 1
    assert (after.hits - memo.hits, after.misses - memo.misses) == (replaces, 0)


@pytest.mark.parametrize("encoding", ["known", "unknown"])
def test_static_and_dynamic_hops_share_the_hop_memo(encoding, cold_memos):
    # a static run fills the entries that a dynamic forest in its scheme
    # reads: the forest's set-up run and its replace hops add no miss
    tree = random_tree(60, 1)
    run_static(tree, PN, default_scheme(tree.n, PN, encoding))
    memo = protocol.hop.cache_info()
    df = DynamicForest.from_tree(tree, encoding=encoding)
    v = max(v for v in tree.vertices if tree.degree(v) == 1)
    hops, node = 0, v
    while df.father[node] is not None:
        hops, node = hops + 1, df.father[node]
    assert hops > 1
    assert df._push(v, False) == df.root_of(v)
    after = protocol.hop.cache_info()
    assert (after.hits - memo.hits, after.misses - memo.misses) == (tree.n - 1 + hops, 0)


def test_trees_with_one_cell_budget_share_the_scheme_and_its_hops(cold_memos):
    # a known-size frame depends on n only through the budget: paths of 10
    # and 20 vertices both get 3 cells, and every hop of the longer path is
    # one the shorter path already made
    short = run_static(path_tree(10))
    memo = protocol.hop.cache_info()
    long = run_static(path_tree(20))
    after = protocol.hop.cache_info()
    assert long.scheme is short.scheme is KnownSize(3)
    assert after.hits - memo.hits == long.counters.messages
    assert after.misses - memo.misses == 0


def test_cold_memos_empties_every_memo(cold_memos):
    # every memo of hd, codec and protocol, found by name: one added or
    # removed later cannot leave the fixture behind
    memos = {id(memo): memo for module in (hd, codec, protocol)
             for memo in vars(module).values() if hasattr(memo, "cache_clear")}
    assert memos
    tree = random_tree(40, 2)
    run_static(tree)
    df = DynamicForest.from_tree(tree, encoding="unknown")
    df.change_root(0 if df.root_of(0) != 0 else 1)
    scheme = KnownSize(3)
    encode(decode(encode(hdesc(1, 1, (0,)), scheme), scheme), scheme)
    assert all(memo.cache_info().currsize for memo in memos.values())
    cold_memos()
    assert [memo.cache_info().currsize for memo in memos.values()] == [0] * len(memos)


def _everything(tree, seed):
    """Every result the memos could change: static runs and dynamic
    counters in all three variants and both encodings, and the strategy."""
    n = tree.n
    out = []
    for variant in ParamVariant:
        for encoding in ("known", "unknown"):
            run = run_static(tree, variant, default_scheme(n, variant, encoding),
                             Schedule(seed))
            out.append((run.transcript(), run.counters, run.root, run.value,
                        run.received, run.father))
            if variant is PN and encoding == "known":
                out.append(extract(tree, run).dump())
            df = DynamicForest.from_tree(tree, variant, encoding=encoding)
            df.change_root(0)
            if n > 1:
                child = n - 1
                father = df.father[child]
                df.delete_edge(child, father)
                df.change_root(child)
                df.add_edge(father, child)
                df.change_root(n // 2)
            df.check_invariants()
            grown = inc_build(tree.edges(), n, variant, encoding, early_stop=True)
            out.append((df.counters, df.roots, grown.counters, grown.roots))
    return out


@given(st.integers(1, 60), st.integers(0, 10**6))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cold_and_warm_memos_give_identical_results(cold_memos, n, seed):
    tree = random_tree(n, seed)
    cold_memos()
    cold = _everything(tree, seed)
    assert _everything(tree, seed) == cold
