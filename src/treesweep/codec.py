"""Bit-exact wire encodings of descriptor messages.

Known-size scheme: the table is sent as a fixed budget of cells (one bit
each, the minimal table is 0/1), padded with zeros; when the vector holds a
real value pn >= 1 an artificial 1 is written at index pn, recoverable
because every cell at or below pn is 0.  Two trailing bits ab give the
vector kind: 00 (-1,-1), 01 (0,0), 10 (pn,pn), 11 (pn,pn+1), with pn read
off as the index of the first 1.  Unknown-size scheme: each cell is sent as
a 2-bit symbol (00 for 0, 01 for 1) with terminator 11, so the receiver
needs no knowledge of n.

Known-size budget is ceil(log3 n) cells; the node-search variant gets one
extra cell because its values run one above the process number on small
subtrees.

A frame is its bit string, a plain `str` of "0" and "1", and it carries
one descriptor: both ends know the scheme.  `encode(hd, scheme)` and
`decode(bits, scheme)` mirror each other.  The dynamic forest's flag bit
is no part of a frame (see `dynamic`); the payload of its change-root
notification is the frame of the empty descriptor, which `empty_frame`
returns without encoding it.

Validation sits on the receiving side: `decode` checks every descriptor it
reads off the wire against the minimal-descriptor contract.  `encode` runs
no full validation; it rejects only what would make a frame lie about its
descriptor: a vector with no wire encoding, a nonzero cell at or below pn
(where the artificial 1 goes) and any cell outside {0, 1}, the last while it
builds the body.

`encode` and `decode` are memoised, keyed on all their arguments and
bounded by `hd.MEMO_SIZE` entries each.  Both are pure and return immutable
values, so one cached frame or descriptor serves every caller.  Every
static message still goes through `encode` and is counted.  The
receiver's `decode` runs in `protocol.hop`, for static and dynamic
messages alike, only on a miss of its memo, which keeps the frame and
the receiver's entry (see `protocol`).  The decode memo still pays: a
hop key is the sender's whole entry tuple, so the misses of a cold
dynamic forest repeat a few dozen frames (1808 decodes of 32 frames in
the first pass of the benchmark's dynamic-churn stream, seed 1), and
without the memo that workload's median update took 6-8 % longer
(30 s runs, Python 3.11.7, shared 2-vCPU host).  The checks above run
once per distinct input; a repeat reuses that result, and a failure is
never cached, so a bad frame or descriptor raises on every call.  The
rule of `hd` holds here too: tagged input takes the memo; anything else
is computed and validated afresh.
`decode` hands out the tag (`hd._Minimal`) on the descriptors it has
validated, and `encode` takes its memo only for a tagged descriptor, so a
hand-built descriptor is encoded afresh.

Memo keys hash and compare in C.  Both schemes are interned: `UnknownSize`
has a single instance, and `KnownSize` one instance per cell budget, so
equality is identity and a key holding a scheme hashes by
`object.__hash__`.  A known-size frame depends on n only through the
budget, so trees whose budgets match share one scheme and every memo
entry keyed on it.
"""

from __future__ import annotations

from functools import lru_cache

from .hd import (MEMO_SIZE, HDescriptor, NO_STABLE, ParamVariant, Vect,
                 _Minimal, _normalized, ceil_log3, validate_descriptor)


class CodecError(Exception):
    pass


class FramingError(CodecError):
    pass


class CapacityError(CodecError):
    pass


class KnownSize:
    """The scheme for receivers that know n: a fixed budget of `cells`
    table cells per frame.  A frame depends on n only through that budget,
    so the scheme holds the budget alone; `for_tree` derives it from n.
    One instance per budget, so equality is identity and a memo key
    holding it hashes and compares in C."""

    __slots__ = ("cells",)

    def __new__(cls, cells: int) -> "KnownSize":
        # schemes are memo keys: 3.0 == 3 must not stand in for a budget
        if type(cells) is not int:
            raise CodecError(f"cell budget must be an int, got {cells!r}")
        self = _KNOWN_SIZES.get(cells)
        if self is None:
            self = _KNOWN_SIZES[cells] = object.__new__(cls)
            object.__setattr__(self, "cells", cells)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"KnownSize is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"KnownSize is immutable: cannot delete {name!r}")

    def __repr__(self) -> str:
        return f"KnownSize(cells={self.cells!r})"

    @classmethod
    def for_tree(cls, n: int, variant: ParamVariant) -> "KnownSize":
        """The scheme of an n-vertex tree: ceil(log3 n) cells, one more for
        the node-search variant."""
        extra = 1 if variant is ParamVariant.NODE_SEARCH else 0
        return cls(ceil_log3(n) + extra)


# the interned instances, kept for the life of the process
_KNOWN_SIZES: dict[int, KnownSize] = {}


class UnknownSize:
    """The scheme for receivers that do not know n.  It has no parameters,
    so there is one instance: equality is identity, and a memo key holding
    it hashes and compares in C."""

    __slots__ = ()

    def __new__(cls) -> "UnknownSize":
        return _UNKNOWN_SIZE

    def __repr__(self) -> str:
        return "UnknownSize()"


_UNKNOWN_SIZE = object.__new__(UnknownSize)


Scheme = KnownSize | UnknownSize

_KNOWN_SYMBOL = {0: "0", 1: "1"}
_UNKNOWN_SYMBOL = {0: "00", 1: "01"}


def _ab_and_artificial(hd: HDescriptor) -> tuple[str, list[int]]:
    vect = hd.vect
    transmitted = list(hd.table)
    if vect == NO_STABLE:
        return "00", transmitted
    if vect == Vect(0, 0):
        return "01", transmitted
    if vect.pn < 1 or not vect.pn <= vect.pn_plus <= vect.pn + 1:
        raise CodecError(f"vector {vect} has no wire encoding")
    if len(transmitted) < vect.pn or any(transmitted[:vect.pn]):
        raise CodecError(f"cells up to index pn must be 0 before the artificial 1: {hd}")
    transmitted[vect.pn - 1] = 1
    return ("10" if vect.pn_plus == vect.pn else "11"), transmitted


def encode(hd: HDescriptor, scheme: Scheme) -> str:
    """The frame of `hd`."""
    if type(hd) is _Minimal:
        return _encode_memo(hd, scheme)
    return _encode(hd, scheme)


def _encode(hd: HDescriptor, scheme: Scheme) -> str:
    ab, transmitted = _ab_and_artificial(hd)
    if isinstance(scheme, KnownSize):
        if len(transmitted) > scheme.cells:
            raise CapacityError(
                f"table of length {len(transmitted)} exceeds the "
                f"{scheme.cells}-cell budget")
        symbol, tail = _KNOWN_SYMBOL, "0" * (scheme.cells - len(transmitted))
    else:
        symbol, tail = _UNKNOWN_SYMBOL, "11"
    try:
        body = "".join([symbol[c] for c in transmitted]) + tail
    except (KeyError, TypeError):
        raise CodecError(f"table cells must be 0 or 1 on the wire: {hd}") from None
    return body + ab


_encode_memo = lru_cache(maxsize=MEMO_SIZE)(_encode)


@lru_cache(maxsize=MEMO_SIZE)
def decode(bits: str, scheme: Scheme) -> HDescriptor:
    """The descriptor a frame carries."""
    if any(b not in "01" for b in bits):
        raise FramingError(f"non-bit character in {bits!r}")
    if isinstance(scheme, KnownSize):
        if len(bits) != scheme.cells + 2:
            raise FramingError(
                f"expected {scheme.cells + 2} bits, got {len(bits)}")
        raw = [int(b) for b in bits[:scheme.cells]]
        ab = bits[scheme.cells:]
    else:
        raw = []
        pos = 0
        while True:
            sym = bits[pos:pos + 2]
            if len(sym) < 2:
                raise FramingError("table stream ends without terminator")
            pos += 2
            if sym == "11":
                break
            if sym == "10":
                raise FramingError("symbol 10 inside table stream")
            raw.append(1 if sym == "01" else 0)
        ab = bits[pos:]
        if len(ab) != 2:
            raise FramingError(f"expected 2 vector bits after terminator, got {len(ab)}")

    if ab == "00":
        hd = _normalized(NO_STABLE, raw)
    elif ab == "01":
        hd = _normalized(Vect(0, 0), raw)
    else:
        try:
            first = raw.index(1) + 1
        except ValueError:
            raise FramingError("vector bits announce a value but the table has no 1") from None
        raw[first - 1] = 0
        hd = _normalized(Vect(first, first + (1 if ab == "11" else 0)), raw)
    validate_descriptor(hd, minimal=True)
    return _Minimal(*hd)


def empty_frame(scheme: Scheme) -> str:
    """The frame of the empty descriptor `HDescriptor(NO_STABLE, ())`,
    built without encoding it: a change-root notification's payload."""
    if isinstance(scheme, KnownSize):
        return "0" * (scheme.cells + 2)
    return "1100"
