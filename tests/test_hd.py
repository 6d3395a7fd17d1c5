import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from treesweep.codec import FramingError, KnownSize, UnknownSize, decode, encode
from treesweep.forest import (ArgumentError, Forest, enumerate_trees, path_tree,
                              prufer_to_tree, random_tree, spider_tree)
from treesweep.hd import (ContractError, HDescriptor, NO_STABLE, ParamVariant,
                          Vect, ceil_log3, evaluate, merge, merge_detailed,
                          pn_plus_from, validate_descriptor)
from treesweep.hd import _collapse, _merge, _merge_memo, _Minimal, _normalized
from treesweep.oracle import es_exact, ns_exact, pn_exact, stable_exact
from treesweep.protocol import run_static

from helpers import _outcome, hdesc, rooted_descriptors, rooted_value

PN = ParamVariant.PROCESS_NUMBER
NS = ParamVariant.NODE_SEARCH
ES = ParamVariant.EDGE_SEARCH


def test_ceil_log3():
    assert [ceil_log3(n) for n in (1, 2, 3, 4, 9, 10, 27, 1000)] == \
        [0, 1, 1, 2, 2, 3, 3, 7]


def _value_of_absent_vertex():
    from treesweep.dynamic import DynamicForest
    return DynamicForest.isolated(3).value_of(7)


@pytest.mark.parametrize("call,error,message", [
    (lambda: merge([hdesc(0, 0, (0, 1, 0))], PN), ContractError,
     "table length not normalized: HDescriptor(vect=Vect(pn=0, pn_plus=0), "
     "table=(0, 1, 0))"),
    # an empty frame is a short one, or one with no terminator
    (lambda: decode("", UnknownSize()), FramingError,
     "table stream ends without terminator"),
    (lambda: decode("", KnownSize(3)), FramingError, "expected 5 bits, got 0"),
    (lambda: decode("11000", UnknownSize()), FramingError,
     "expected 2 vector bits after terminator, got 3"),
    (_value_of_absent_vertex, ArgumentError, "vertex 7 not in forest"),
    (lambda: ceil_log3(0), ContractError, "ceil_log3 needs n >= 1, got 0"),
    (lambda: prufer_to_tree([], 1), ArgumentError, "Pruefer decoding needs n >= 2"),
], ids=["merge", "decode-empty", "decode-empty-known", "decode-vector", "value-of",
        "ceil-log3", "pruefer"])
def test_error_paths(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message


# --- evaluate ---------------------------------------------------------------

def test_evaluate_worked_table():
    # the running example: a decomposition table with value 9
    res = evaluate(hdesc(2, 2, [0, 0, 3, 2, 3, 1, 0, 0, 1]))
    assert res == (9, False)


def test_evaluate_case_a_derived():
    # hand application of the case split: cell 2 holds 0, cells 3..5 hold 1
    res = evaluate(hdesc(-1, -1, [0, 0, 1, 1, 1]))
    assert res.value == 5 and not res.stable


def test_evaluate_single_node():
    assert evaluate(hdesc(0, 0)) == (0, True)


def test_evaluate_more_cases():
    assert evaluate(hdesc(1, 1, [0])) == (1, True)          # a star
    assert evaluate(hdesc(1, 2, [0])) == (1, True)          # value-1 trees are stable
    assert evaluate(hdesc(3, 3, [0, 0, 0])) == (3, True)
    assert evaluate(hdesc(-1, -1, [0, 1])) == (2, False)
    assert evaluate(hdesc(0, 0, [0, 0, 2])) == (4, True)    # case (b)
    assert evaluate(hdesc(2, 2, [0, 0, 1])) == (3, False)


def test_evaluate_rejects_malformed():
    with pytest.raises(ContractError):
        evaluate(HDescriptor(Vect(2, 4), (0, 0)))
    with pytest.raises(ContractError):
        evaluate(hdesc(3, 3, [0, 1, 0]))  # nonzero cell below the stable value
    with pytest.raises(ContractError):
        evaluate(hdesc(0, 0, [1]))        # cell 1 must stay 0


def test_pn_plus_of():
    def pn_plus_of(hd):
        return pn_plus_from(hd, evaluate(hd))
    assert pn_plus_of(hdesc(0, 0)) == 1   # a single node still needs one agent
    assert pn_plus_of(hdesc(1, 2, [0])) == 2
    assert pn_plus_of(hdesc(2, 2, [0, 0])) == 2
    assert pn_plus_of(hdesc(-1, -1, [0, 1])) == 3


# --- merge ------------------------------------------------------------------

def test_merge_leaf_messages():
    assert merge([], PN) == hdesc(0, 0)
    assert merge([], NS) == hdesc(1, 1, [0])
    assert merge([], ES) == hdesc(0, 0)


def test_merge_star():
    out = merge([hdesc(0, 0)] * 3, PN)
    assert out == hdesc(1, 1, [0])
    assert evaluate(out).value == 1


def test_merge_level2_center():
    level1 = merge([hdesc(0, 0)] * 3, PN)
    out = merge([level1] * 3, PN)
    assert evaluate(out).value == 2


def test_merge_path_chain():
    # the unique-child chain produces (1,1) then (1,2) then (2,2)
    a = merge([hdesc(0, 0)], PN)
    assert a == hdesc(1, 1, [0])
    b = merge([a], PN)
    assert b == hdesc(1, 2, [0])
    c = merge([b], PN)
    assert c == hdesc(2, 2, [0, 0])
    assert evaluate(c).value == 2


def test_merge_pair_folds():
    out, info = merge_detailed([hdesc(2, 2, [0, 0])] * 2, PN)
    assert out == hdesc(-1, -1, [0, 1])
    assert info.folded and info.prefold == Vect(2, 3)
    assert evaluate(out) == (2, False)


def test_merge_triple_grows():
    out = merge([hdesc(2, 2, [0, 0])] * 3, PN)
    assert out == hdesc(3, 3, [0, 0, 0])


def test_merge_collision_absorbs_equal_value():
    # a stable branch and an unstable branch of the same value collapse one up
    out, info = merge_detailed([hdesc(2, 2, [0, 0]), hdesc(-1, -1, [0, 1])], PN)
    assert out == hdesc(3, 3, [0, 0, 0])
    assert info.fired == 3
    # dominated cells below a stable vector are absorbed without a bump
    out = merge([hdesc(3, 3, [0, 0, 0]), hdesc(-1, -1, [0, 1])], PN)
    assert out == hdesc(3, 3, [0, 0, 0])


def test_merge_piled_cells_collapse():
    out = merge([hdesc(-1, -1, [0, 0, 1])] * 2, PN)
    assert out == hdesc(4, 4, [0, 0, 0, 0])
    out = merge([hdesc(-1, -1, [0, 0, 1, 1, 1]), hdesc(-1, -1, [0, 0, 1])], PN)
    assert out == hdesc(6, 6, [0] * 6)


def test_merge_rejects_bad_children():
    with pytest.raises(ContractError):
        merge([hdesc(2, 2, [0, 2])], PN)  # not minimal
    with pytest.raises(ContractError):
        merge([HDescriptor(Vect(1, 3), (0,))], PN)


# hd's three merge repairs, one test each on the smallest tree found that
# needs it: with that repair removed and the other two kept, the tree gets
# a wrong value or a ContractError

def _every_root(tree, variant):
    return [rooted_value(tree, r, variant) for r in sorted(tree.vertices)]


def test_repair_1_init_chain_needs_every_other_child_without_a_stable_piece():
    # the 4-vertex path: an inner vertex hears a leaf, (0,0), and a (1,1)
    # child; read literally, the (1,2) case would label that value-2 tree
    # (1,2) and give pn 1
    tree = path_tree(4)
    out, info = merge_detailed([hdesc(0, 0), hdesc(1, 1, [0])], PN)
    assert (out, info.case) == (hdesc(2, 2, [0, 0]), "init-many")
    assert _every_root(tree, PN) == [pn_exact(tree)] * 4 == [2] * 4
    assert run_static(tree).value == 2


def test_repair_2_simplification_fires_on_a_stable_collision():
    # ns on the spider of three 2-edge legs: a leg vertex hears the rest of
    # the tree as one (1,1) child with an unstable value-2 cell.  es on
    # the 10-vertex tree of three cherries: the vertex above a cherry hears
    # two leaves beside an unstable value-2 branch.  Without the collision
    # firing, either merge would output the non-minimal
    # HDescriptor((2, 2), (0, 1)) and the next merge would reject it
    spider = spider_tree(2, 2, 2)
    out, info = merge_detailed([hdesc(1, 1, [0, 1])], NS)
    assert (out, info.fired) == (hdesc(3, 3, [0, 0, 0]), 3)
    assert _every_root(spider, NS) == [ns_exact(spider)] * 7 == [3] * 7
    cherries = Forest(range(10), [(0, 1), (0, 4), (0, 7), (1, 2), (1, 3),
                                  (4, 5), (4, 6), (7, 8), (7, 9)])
    out, info = merge_detailed([hdesc(-1, -1, [0, 1]), hdesc(0, 0), hdesc(0, 0)], ES)
    assert (out, info.fired) == (hdesc(3, 3, [0, 0, 0]), 3)
    assert _every_root(cherries, ES) == [es_exact(cherries)] * 10 == [3] * 10


REPAIR_3_WITNESS = [
    (0, 5), (0, 6), (0, 15), (1, 12), (1, 14), (2, 9), (2, 11), (3, 5),
    (3, 8), (3, 18), (4, 7), (4, 16), (5, 16), (6, 10), (6, 14), (8, 19),
    (9, 10), (12, 13), (16, 17)]


def test_repair_3_k1_lands_on_the_virtual_cell():
    # shrunk from random_tree(53, 5) by contracting edges and dropping
    # leaves: rooted at leaf 15, vertex 0 hears two 9-vertex branches of
    # descriptor ((-1,-1), (0,1)).  Their summed cell 2 is the last cell,
    # so k1 must land on the virtual cell 3; otherwise the merge keeps a
    # cell of 2 and the next merge rejects it
    tree = Forest(range(20), REPAIR_3_WITNESS)
    descriptors = rooted_descriptors(tree, 15, PN)
    assert descriptors[5] == descriptors[6] == hdesc(-1, -1, [0, 1])
    out, info = merge_detailed([hdesc(-1, -1, [0, 1])] * 2, PN)
    assert (out, info.fired) == (hdesc(3, 3, [0, 0, 0]), 3)
    assert descriptors[0] == out
    assert _every_root(tree, PN) == [3] * 20


def test_merge_output_minimal(trees_up_to_8):
    for t in trees_up_to_8:
        for variant in ParamVariant:
            for root in t.vertices:
                for hd in rooted_descriptors(t, root, variant).values():
                    validate_descriptor(hd, minimal=True)
                    assert all(c in (0, 1) for c in hd.table[1:])


def test_table_length_bound(trees_up_to_8):
    # every subtree table of an n-vertex tree fits the log3 budget
    for t in trees_up_to_8:
        bound = ceil_log3(t.n)
        for root in t.vertices:
            for hd in rooted_descriptors(t, root, PN).values():
                assert hd.length <= bound
            for hd in rooted_descriptors(t, root, NS).values():
                assert hd.length <= bound + 1


def _child_lists(tree, root, variant):
    """The children's descriptors each vertex merges in the rooted cascade
    from `root`."""
    desc = rooted_descriptors(tree, root, variant)
    parent, stack = {root: None}, [root]
    while stack:
        v = stack.pop()
        for u in tree.neighbours(v):
            if u not in parent:
                parent[u] = v
                stack.append(u)
    return [[desc[u] for u in tree.neighbours(v) if u != parent[v]]
            for v in tree.vertices]


def test_merge_record_is_the_same_in_any_child_order(trees_up_to_8):
    # the output and the MergeInfo depend on the multiset of children only
    multisets = {(variant, tuple(sorted(kids)))
                 for t in trees_up_to_8 for variant in ParamVariant
                 for root in t.vertices
                 for kids in _child_lists(t, root, variant)}
    reordered = 0
    for variant, kids in multisets:
        expected = merge_detailed(kids, variant)
        for order in set(itertools.permutations(kids)):
            assert merge_detailed(order, variant) == expected, (variant, order)
            reordered += order != kids
    assert reordered > 100


# --- simplify ---------------------------------------------------------------

def simplify(hd):
    """Fixpoint of the merge's simplification step, `_collapse`, on one
    descriptor: the restriction-based simplification of the paper."""
    validate_descriptor(hd)
    cur = _normalized(hd.vect, list(hd.table))
    while cur.table:
        cells, folded = [0, *cur.table], cur.vect == NO_STABLE
        # a folded root piece is the unstable piece at the lowest nonzero cell
        probe = next((i for i, c in enumerate(cells) if c), 0) if folded else cur.vect.pn
        fired = _collapse(cells, len(cur.table), probe, folded)
        nxt = cur if fired is None else _normalized(Vect(fired, fired), cells[1:])
        if nxt == cur:
            break
        cur = nxt
    return cur


def test_simplify_reduces_the_worked_example():
    # the value-9 table with its top subtree removed becomes a stable 7
    out = simplify(hdesc(2, 2, [0, 0, 3, 2, 3, 1]))
    assert out == hdesc(7, 7, [0] * 7)
    assert evaluate(out) == (7, True)
    # trailing zeros make no difference
    assert simplify(hdesc(2, 2, [0, 0, 3, 2, 3, 1, 0, 0])) == out


def test_simplify_restricted_pile():
    assert simplify(hdesc(-1, -1, [0, 0, 2])) == hdesc(4, 4, [0, 0, 0, 0])


def test_simplify_idempotent_and_value_preserving(trees_up_to_8):
    for t in trees_up_to_8:
        for root in t.vertices:
            for hd in rooted_descriptors(t, root, PN).values():
                assert simplify(hd) == hd  # minimal stays put
    piles = [hdesc(2, 2, [0, 0, 3, 2, 3, 1]), hdesc(0, 0, [0, 0, 2]),
             hdesc(-1, -1, [0, 0, 2]), hdesc(1, 1, [0, 2])]
    for hd in piles:
        out = simplify(hd)
        assert simplify(out) == out
        assert evaluate(out).value == evaluate(hd).value


# --- conformance against the exhaustive oracle --------------------------------

def test_values_match_oracle_small(trees_up_to_8):
    from treesweep.oracle import es_exact, ns_exact
    for t in trees_up_to_8:
        want = {PN: pn_exact(t), NS: ns_exact(t), ES: es_exact(t)}
        for variant in ParamVariant:
            for root in t.vertices:
                assert rooted_value(t, root, variant) == want[variant]


def test_stability_matches_oracle(trees_up_to_8):
    for t in trees_up_to_8:
        for root in t.vertices:
            hd = rooted_descriptors(t, root, PN)[root]
            assert evaluate(hd).stable == stable_exact(t, root)


@given(st.integers(2, 35), st.integers(0, 500))
@settings(max_examples=60, deadline=None)
def test_rooting_invariance(n, seed):
    t = random_tree(n, seed)
    for variant in ParamVariant:
        values = {rooted_value(t, r, variant) for r in t.vertices}
        assert len(values) == 1


# random_tree(50, 3) shrunk leaf by leaf while its edge-search value still
# depends on the root (38 vertices, sparse ids).
ES_ROOT_WITNESS = Forest(edges=[
    (0, 22), (0, 42), (0, 43), (1, 17), (1, 48), (2, 19), (2, 37), (4, 10),
    (4, 20), (4, 44), (6, 34), (9, 33), (9, 36), (9, 40), (10, 48), (12, 45),
    (14, 27), (14, 39), (14, 40), (16, 35), (17, 30), (18, 37), (19, 49),
    (21, 38), (24, 33), (24, 45), (24, 46), (25, 35), (25, 40), (30, 34),
    (30, 38), (31, 34), (32, 35), (37, 47), (38, 46), (42, 49), (45, 49)])


@pytest.mark.xfail(strict=True, reason="es depends on the root on this tree: "
                   "12 of its 38 roots give 4, run_static gives 3")
def test_es_is_root_independent_on_the_witness():
    t = ES_ROOT_WITNESS
    want = run_static(t, ES).value
    assert {r: rooted_value(t, r, ES) for r in t.vertices} == dict.fromkeys(t.vertices, want)


# random_tree(50, 3)'s witness shrunk further, by contracting edges and
# dropping leaves, until its edge-search value is wrong at every root
# (28 vertices, sparse ids).
ES_VALUE_WITNESS = Forest(edges=[
    (0, 22), (0, 43), (0, 49), (1, 20), (1, 30), (1, 44), (2, 18), (2, 47),
    (2, 49), (6, 34), (9, 24), (9, 36), (9, 40), (12, 45), (14, 27), (14, 39),
    (14, 40), (16, 25), (21, 38), (24, 38), (24, 45), (25, 32), (25, 40),
    (30, 34), (30, 38), (31, 34), (45, 49)])


def _es_by_parsons(t):
    """es(t) by Parsons' rule ("Pursuit-evasion in a graph", 1978), reading
    nothing from `hd`: es >= k + 1 iff some vertex has three branches of
    es >= k, each branch counted with its edge to that vertex.  So es is 1
    plus the largest third-largest branch value at any vertex, and 1 for a
    path, 0 for a single vertex.  Memoised on vertex sets, since a branch
    of a branch is a branch of t with one side cut off."""
    memo = {}

    def side(u, v, inside):
        """The vertices of `inside` reached from u without passing v."""
        seen, stack = {u, v}, [u]
        while stack:
            for w in t.neighbours(stack.pop()) & inside - seen:
                seen.add(w)
                stack.append(w)
        return seen - {v}

    def es(inside):
        if inside not in memo:
            best = 1 if len(inside) > 1 else 0
            for v in inside:
                near = t.neighbours(v) & inside
                if len(near) >= 3:  # so every branch is smaller than `inside`
                    values = sorted(es(frozenset(side(u, v, inside)) | {v})
                                    for u in near)
                    best = max(best, values[-3] + 1)
            memo[inside] = best
        return memo[inside]

    return es(frozenset(t.vertices))


def test_parsons_reference_equals_es_exact_up_to_9_vertices():
    trees = [t for n in range(1, 10) for t in enumerate_trees(n)]
    assert len(trees) == 95
    for t in trees:
        assert _es_by_parsons(t) == es_exact(t), t.edges()


def test_parsons_reference_on_the_witnesses():
    assert ES_VALUE_WITNESS.n == 28 and ES_VALUE_WITNESS.is_tree()
    assert _es_by_parsons(ES_VALUE_WITNESS) == 4
    assert _es_by_parsons(ES_ROOT_WITNESS) == 4


@pytest.mark.xfail(strict=True, reason="es is wrong at every root of this tree: "
                   "the protocol gives 3, Parsons' rule 4")
def test_es_value_on_the_witness():
    t = ES_VALUE_WITNESS
    assert run_static(t, ES).value == _es_by_parsons(t)


@pytest.mark.parametrize("variant", [PN, NS])
def test_pn_and_ns_are_root_independent_on_the_es_witness(variant):
    t = ES_ROOT_WITNESS
    assert t.n == 38 and t.is_tree()
    want = run_static(t, variant).value
    assert {rooted_value(t, r, variant) for r in t.vertices} == {want}


# --- the type tag of trusted descriptors --------------------------------------

def _tagged(hd):
    """The same descriptor as a receiver decodes it, carrying the tag."""
    return decode(encode(hd, UnknownSize()), UnknownSize())


def test_tagged_descriptors_print_as_plain_ones():
    out = merge([_tagged(hdesc(0, 0))] * 3, PN)
    assert type(out) is _Minimal
    assert repr(out) == repr(HDescriptor(Vect(1, 1), (0,)))
    assert str(out) == str(hdesc(1, 1, [0])) and out == hdesc(1, 1, [0])
    assert hash(out) == hash(hdesc(1, 1, [0]))
    with pytest.raises(ContractError, match=r"HDescriptor\(vect=Vect"):
        merge([out, hdesc(0, 0, (0, 2))], PN)


def test_replace_drops_the_tag():
    out = merge([], NS)
    changed = out._replace(table=(0, 2.0))
    assert type(changed) is HDescriptor
    with pytest.raises(ContractError):
        merge([changed], NS)


@pytest.mark.parametrize("cell", [True, 1.0, Fraction(1)])
@pytest.mark.parametrize("pair", [False, True])
def test_warm_memo_keeps_the_uncached_outcome_for_odd_cells(cell, pair, cold_memos):
    # the memo holds the tagged children; equal children built by hand with
    # an odd cell must still get what the uncached merge gives them
    tagged = _tagged(hdesc(-1, -1, (0, 1)))
    odd = hdesc(-1, -1, (0, cell))
    kids = (tagged, tagged) if pair else (tagged,)
    merge(kids, PN)
    odd_kids = (tagged, odd) if pair else (odd,)
    assert _outcome(merge, odd_kids, PN) == _outcome(
        lambda: _merge(odd_kids, PN)[0])


def test_built_children_never_touch_the_memo(cold_memos):
    # children built by hand get the uncached merge and leave the memo
    # alone, whether it is cold or holds the equal tagged key
    tagged = [_tagged(hdesc(-1, -1, (0, 1))), _tagged(hdesc(0, 0))]
    built = [hdesc(-1, -1, (0, 1)), hdesc(0, 0)]
    expected = _merge(tuple(built), PN)
    for kids in (built, [tagged[0], built[1]], [built[0], tagged[1]]):
        assert merge_detailed(kids, PN) == expected
    assert _merge_memo.cache_info()[:2] == (0, 0)
    warm = merge_detailed(tagged, PN)
    info = _merge_memo.cache_info()
    for kids in (built, [tagged[0], built[1]], [built[0], tagged[1]]):
        out = merge_detailed(kids, PN)
        assert out == expected and out[0] is not warm[0]
        assert type(out[0]) is HDescriptor
    assert _merge_memo.cache_info() == info
