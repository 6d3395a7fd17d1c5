import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import treesweep.codec as codec
from treesweep.codec import (CapacityError, CodecError, FramingError,
                             KnownSize, UnknownSize, decode, empty_frame,
                             encode)
from treesweep.forest import random_tree
from treesweep.hd import (ContractError, HDescriptor, NO_STABLE, ParamVariant,
                          Vect)
from treesweep.protocol import run_static

from helpers import hdesc

PN = ParamVariant.PROCESS_NUMBER


def test_known_size_leaf_message():
    scheme = KnownSize.for_tree(27, PN)
    msg = encode(hdesc(0, 0), scheme)
    assert msg == "00001" and len(msg) == 5  # 3 table cells + ab
    assert decode(msg, scheme) == hdesc(0, 0)


def test_known_size_artificial_one():
    scheme = KnownSize.for_tree(27, PN)
    msg = encode(hdesc(1, 1, [0]), scheme)
    assert msg == "10010"
    assert decode(msg, scheme) == hdesc(1, 1, [0])


def test_unknown_size_symbols():
    msg = encode(hdesc(-1, -1, [0, 1]), UnknownSize())
    assert msg == "00011100" and len(msg) == 2 * 2 + 4
    assert decode(msg, UnknownSize()) == hdesc(-1, -1, [0, 1])


def test_ab_11_means_pair_vector():
    scheme = KnownSize.for_tree(27, PN)
    bits = "10011"
    hd = decode(bits, scheme)
    assert hd == hdesc(1, 2, [0]) and len(bits) == scheme.cells + 2  # no flag bit


def test_empty_frame_is_the_frame_of_the_empty_descriptor():
    # a dynamic message is a flag bit before one of these frames; a
    # notification's is the empty descriptor's (see `dynamic`)
    scheme = KnownSize.for_tree(9, PN)
    msg = encode(hdesc(2, 2, [0, 0]), scheme)
    assert len(msg) == scheme.cells + 2
    assert decode(msg, scheme) == hdesc(2, 2, [0, 0])
    un = encode(hdesc(2, 2, [0, 0]), UnknownSize())
    assert len(un) == 2 * 2 + 4
    assert decode(un, UnknownSize()) == hdesc(2, 2, [0, 0])
    empty = HDescriptor(NO_STABLE, ())
    for scheme, payload in ((scheme, "0" * (scheme.cells + 2)),
                            (KnownSize(3), "00000"),
                            (UnknownSize(), "1100")):
        assert empty_frame(scheme) == payload == encode(empty, scheme)
        assert decode(payload, scheme) == empty


def test_capacity_error():
    scheme = KnownSize.for_tree(3, PN)  # one cell only
    with pytest.raises(CapacityError) as err:
        encode(hdesc(2, 2, [0, 0]), scheme)
    assert str(err.value) == "table of length 2 exceeds the 1-cell budget"


def test_framing_errors():
    with pytest.raises(FramingError):
        decode("000", KnownSize.for_tree(27, PN))  # short frame
    with pytest.raises(FramingError):
        decode("10" + "1100", UnknownSize())       # 10 inside the stream
    with pytest.raises(FramingError):
        decode("0000", UnknownSize())              # no terminator
    with pytest.raises(FramingError):
        decode("00010", UnknownSize())             # truncated vector bits
    with pytest.raises(FramingError):
        decode("00010", KnownSize.for_tree(27, PN))
    with pytest.raises(FramingError):
        decode("00010x", UnknownSize())
    # vector bits announce a value but no 1 anywhere in the table
    with pytest.raises(FramingError):
        decode("00010", KnownSize(3))


@pytest.mark.parametrize("hd", [
    hdesc(-1, -1, [0, 2]),       # a cell outside {0, 1}
    hdesc(2, 2, [0, 0, 2]),      # above the stable value
    hdesc(0, 0, [0, -1]),
    hdesc(2, 5, [0, 0]),         # a vector with no wire encoding
    hdesc(3, 3, [0, 1, 0]),      # a 1 below the artificial one
])
@pytest.mark.parametrize("scheme", [KnownSize(4), UnknownSize()],
                         ids=["known", "unknown"])
def test_encode_rejects_bad_descriptor(hd, scheme):
    with pytest.raises((CodecError, ContractError)):
        encode(hd, scheme)


@given(st.integers(1, 60), st.integers(0, 2000))
@settings(max_examples=80, deadline=None)
def test_roundtrip_over_protocol_messages(n, seed):
    tree = random_tree(n, seed)
    for variant in ParamVariant:
        for encoding in ("known", "unknown"):
            from treesweep.protocol import default_scheme
            scheme = default_scheme(tree.n, variant, encoding)
            run = run_static(tree, variant, scheme)
            for _, _, hd, bits in run.wires:
                assert decode(bits, scheme) == hd
                re = encode(hd, scheme)
                assert re == bits


def test_unknown_size_needs_no_n():
    # the unknown-size decoder recovers length from the terminator alone
    msg = encode(hdesc(3, 3, [0, 0, 0]), UnknownSize())
    assert decode(msg, UnknownSize()) == hdesc(3, 3, [0, 0, 0])


def test_decoded_descriptors_print_as_plain_ones():
    scheme = KnownSize.for_tree(27, PN)
    for hd in (hdesc(0, 0), hdesc(-1, -1, (0, 1)), hdesc(2, 3, (0, 0, 1))):
        out = decode(encode(hd, scheme), scheme)
        assert repr(out) == repr(HDescriptor(Vect(*hd.vect), tuple(hd.table)))
        assert out == hd


def test_built_descriptors_never_touch_the_encode_memo(cold_memos):
    # a descriptor built by hand is encoded afresh and leaves the memo
    # alone, whether it is cold or holds the equal tagged key
    scheme = UnknownSize()
    built = hdesc(2, 3, (0, 0, 1))
    wire = encode(built, scheme)
    assert wire == codec._encode(built, scheme)
    assert codec._encode_memo.cache_info()[:2] == (0, 0)
    tagged = decode(wire, scheme)
    cached = encode(tagged, scheme)
    info = codec._encode_memo.cache_info()
    again = encode(built, scheme)
    assert again == cached
    assert codec._encode_memo.cache_info() == info  # not served from the memo


def test_schemes_hash_and_compare_by_value():
    assert KnownSize(3) == KnownSize(3)
    assert hash(KnownSize(3)) == hash(KnownSize(3))
    assert KnownSize(3) != KnownSize(4)
    assert repr(KnownSize(3)) == "KnownSize(cells=3)"
    assert KnownSize.for_tree(27, PN) is KnownSize.for_tree(27, PN)
    assert repr(KnownSize.for_tree(3.0, PN)) == "KnownSize(cells=1)"
    assert UnknownSize() is UnknownSize() and repr(UnknownSize()) == "UnknownSize()"
    assert UnknownSize() != KnownSize(3)


def test_known_size_is_interned():
    # one instance per budget: memo keys holding a scheme hash and compare
    # in C, and trees whose budgets match share one scheme
    scheme = KnownSize(3)
    assert KnownSize(3) is KnownSize(3) is scheme
    assert KnownSize.for_tree(10, PN) is KnownSize.for_tree(27, PN) is scheme
    assert KnownSize.for_tree(27.0, PN) is scheme
    assert KnownSize.for_tree(28, PN) is KnownSize(4)
    assert KnownSize.for_tree(27, ParamVariant.NODE_SEARCH) is KnownSize(4)
    assert type(KnownSize.for_tree(27, PN)).__hash__ is object.__hash__
    assert type(scheme).__eq__ is object.__eq__
    with pytest.raises(AttributeError):
        scheme.cells = 4
    assert scheme.cells == 3


def test_known_size_cells_cannot_be_deleted():
    scheme = KnownSize(3)
    with pytest.raises(AttributeError) as err:
        del scheme.cells
    assert (type(err.value) is AttributeError
            and str(err.value) == "KnownSize is immutable: cannot delete 'cells'")
    assert scheme.cells == 3
