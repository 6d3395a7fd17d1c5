"""Bit-exact wire encodings of descriptor messages.

Known-size scheme: the table is sent as a fixed budget of cells (one bit
each, the minimal table is 0/1), padded with zeros; when the vector holds a
real value pn >= 1 an artificial 1 is written at index pn, recoverable
because every cell at or below pn is 0.  Two trailing bits ab give the
vector kind: 00 (-1,-1), 01 (0,0), 10 (pn,pn), 11 (pn,pn+1), with pn read
off as the index of the first 1.  Unknown-size scheme: each cell is sent as
a 2-bit symbol (00 for 0, 01 for 1) with terminator 11, so the receiver
needs no knowledge of n.  Dynamic mode prepends one flag bit: 0 means
"replace the stored entry for this neighbour", 1 is a change-root
notification.

Known-size budget is ceil(log3 n) cells; the node-search variant gets one
extra cell because its values run one above the process number on small
subtrees.

Validation sits on the receiving side: `decode` checks every descriptor it
reads off the wire against the minimal-descriptor contract.  `encode` runs
no full validation; it rejects only what would make a frame lie about its
descriptor: a vector with no wire encoding, a nonzero cell at or below pn
(where the artificial 1 goes) and any cell outside {0, 1}, the last while it
builds the body.

`encode` and `decode_bits` are memoised, keyed on all their arguments and
bounded by `hd.MEMO_SIZE` entries each.  Both are pure and return immutable
values, so one cached frame or descriptor serves every caller.  Every
message still goes through `encode`, is counted and is decoded by its
receiver with `decode`, which reads the `decode_bits` memo directly: it
runs once per message in both layers.  The checks above run once per
distinct input; a repeat reuses that result, and a failure is never cached,
so a bad frame or descriptor raises on every call.  The rule of `hd` holds here too: tagged input takes
the memo; anything else is computed and validated afresh.  `decode_bits`
hands out the tag (`hd._Minimal`) on the descriptors it has validated, and
`encode` takes its memo only for a tagged descriptor with an int or absent
flag, so a hand-built descriptor, or a flag of `True` or 1.0, is encoded
afresh.

Memo keys hash in C, or from a stored value: `KnownSize` computes its hash
once when it is built, `KnownSize.for_tree` hands out one instance per
argument pair so that later runs' keys match by identity, and `UnknownSize`
has a single instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .hd import (MEMO_SIZE, HDescriptor, NO_STABLE, ParamVariant, Vect,
                 _Minimal, _normalized, ceil_log3, validate_descriptor)


class CodecError(Exception):
    pass


class FramingError(CodecError):
    pass


class CapacityError(CodecError):
    pass


@dataclass(frozen=True)
class KnownSize:
    n: int
    cells: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # schemes are memo keys: 3.0 == 3 must not stand in for a budget
        if type(self.cells) is not int:
            raise CodecError(f"cell budget must be an int, got {self.cells!r}")
        object.__setattr__(self, "_hash", hash((self.n, self.cells)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    @lru_cache(maxsize=MEMO_SIZE, typed=True)
    def for_tree(cls, n: int, variant: ParamVariant) -> "KnownSize":
        """The scheme of an n-vertex tree; one instance per argument pair,
        so memo keys of later runs match earlier ones by identity."""
        extra = 1 if variant is ParamVariant.NODE_SEARCH else 0
        return cls(n, ceil_log3(n) + extra)


class UnknownSize:
    """The scheme for receivers that do not know n.  It has no parameters,
    so there is one instance: equality is identity, and a memo key holding
    it hashes and compares in C."""

    __slots__ = ()

    def __new__(cls) -> "UnknownSize":
        return _UNKNOWN_SIZE

    def __reduce__(self):
        return UnknownSize, ()

    def __repr__(self) -> str:
        return "UnknownSize()"


_UNKNOWN_SIZE = object.__new__(UnknownSize)


Scheme = KnownSize | UnknownSize

REPLACE_FLAG = 0
REROOT_FLAG = 1


@dataclass(frozen=True)
class WireMessage:
    bits: str
    scheme: Scheme
    dyn_flag: int | None = None

    def __len__(self) -> int:
        return len(self.bits)


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


def encode(hd: HDescriptor, scheme: Scheme, dyn_flag: int | None = None) -> WireMessage:
    if type(hd) is _Minimal and (dyn_flag is None or type(dyn_flag) is int):
        return _encode_memo(hd, scheme, dyn_flag)
    return _encode(hd, scheme, dyn_flag)


def _encode(hd: HDescriptor, scheme: Scheme, dyn_flag: int | None) -> WireMessage:
    ab, transmitted = _ab_and_artificial(hd)
    if isinstance(scheme, KnownSize):
        if len(transmitted) > scheme.cells:
            raise CapacityError(
                f"table of length {len(transmitted)} exceeds the "
                f"{scheme.cells}-cell budget for n={scheme.n}")
        symbol, tail = _KNOWN_SYMBOL, "0" * (scheme.cells - len(transmitted))
    else:
        symbol, tail = _UNKNOWN_SYMBOL, "11"
    try:
        body = "".join([symbol[c] for c in transmitted]) + tail
    except (KeyError, TypeError):
        raise CodecError(f"table cells must be 0 or 1 on the wire: {hd}") from None
    prefix = "" if dyn_flag is None else str(dyn_flag)
    return WireMessage(prefix + body + ab, scheme, dyn_flag)


_encode_memo = lru_cache(maxsize=MEMO_SIZE)(_encode)


def decode(message: WireMessage) -> HDescriptor:
    return _decode_memo(message.bits, message.scheme, message.dyn_flag is not None)[0]


def decode_bits(bits: str, scheme: Scheme,
                has_dyn_flag: bool = False) -> tuple[HDescriptor, int | None]:
    return _decode_memo(bits, scheme, has_dyn_flag)


def _decode_bits(bits: str, scheme: Scheme,
                 has_dyn_flag: bool) -> tuple[HDescriptor, int | None]:
    if any(b not in "01" for b in bits):
        raise FramingError(f"non-bit character in {bits!r}")
    dyn = None
    if has_dyn_flag:
        if not bits:
            raise FramingError("empty message")
        dyn = int(bits[0])
        bits = bits[1:]
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
    return _Minimal(*hd), dyn


_decode_memo = lru_cache(maxsize=MEMO_SIZE)(_decode_bits)


def notification(scheme: Scheme) -> WireMessage:
    """Change-root notification: the dynamic flag bit set, placeholder payload."""
    if isinstance(scheme, KnownSize):
        body = "0" * (scheme.cells + 2)
    else:
        body = "1100"
    return WireMessage("1" + body, scheme, REROOT_FLAG)
