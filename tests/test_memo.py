"""The memos of `hd.merge_detailed`, `codec.encode` and `codec.decode_bits`:
a hit returns what the uncached code returns, a failure is never cached,
and runs give the same results from a cold cache and a warm one."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

import treesweep.codec as codec
import treesweep.hd as hd
from treesweep.codec import (CapacityError, CodecError, FramingError,
                             KnownSize, UnknownSize, decode_bits, encode)
from treesweep.dynamic import DynamicForest, inc_build
from treesweep.forest import random_tree
from treesweep.hd import (ContractError, HDescriptor, ParamVariant, Vect,
                          hdesc, merge)
from treesweep.protocol import Schedule, default_scheme, run_static
from treesweep.strategy import extract

PN = ParamVariant.PROCESS_NUMBER


def _outcome(fn, *args):
    try:
        return "ok", repr(fn(*args))
    except Exception as exc:  # the exception type is the outcome compared
        return "raise", type(exc)


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


@pytest.mark.parametrize("desc,flag", [
    (hdesc(1.0, 1.0, (0,)), None),
    (hdesc(1, 1, (0.0,)), None),
    (hdesc(1, 1, (0,)), True),
    (hdesc(1, 1, (0,)), 1.0),
])
def test_encode_of_equal_input_matches_the_uncached_encode(desc, flag, cold_memos):
    scheme = KnownSize(27, 3)
    encode(hdesc(1, 1, (0,)), scheme)
    encode(hdesc(1, 1, (0,)), scheme, 1)
    assert _outcome(encode, desc, scheme, flag) == _outcome(codec._encode, desc, scheme, flag)


def test_known_size_budget_must_be_an_int():
    # schemes are memo keys, and KnownSize(27, 3.0) == KnownSize(27, 3)
    for cells in (3.0, True):
        with pytest.raises(CodecError):
            KnownSize(27, cells)


@pytest.mark.parametrize("call,error,memo", [
    (lambda: merge([hdesc(-1, -1, (0, 2))], PN), ContractError, hd._merge_memo),
    (lambda: decode_bits("10", UnknownSize()), FramingError, codec._decode_memo),
    (lambda: encode(hdesc(2, 2, (0, 0)), KnownSize.for_tree(3, PN)), CapacityError,
     codec._encode_memo),
], ids=["merge", "decode", "encode"])
def test_failures_are_never_cached(call, error, memo, cold_memos):
    for _ in range(2):
        with pytest.raises(error):
            call()
    assert memo.cache_info().currsize == 0


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
                        {v: state.received for v, state in run.states.items()}))
            if variant is PN and encoding == "known":
                out.append(extract(tree, run.states).dump())
            df = DynamicForest.from_tree(tree, variant, encoding=encoding)
            df.change_root(0)
            if n > 1:
                child = n - 1
                father = df.states[child].father
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
