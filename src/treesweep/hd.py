"""Hierarchical-decomposition descriptors and the merge that maintains them.

A descriptor is a pair (vect, table).  The vector describes the stable
associated-tree of the decomposition, (-1, -1) when there is none; since
pn <= pn+ <= pn + 1 it fits in an integer and a bit.  Cell i of the table
counts the unstable associated-trees with vector (i, i+1); cell 1 is kept
in storage but is always 0 because value-1 trees count as stable.

This module is the descriptor algebra alone and imports no other module of
the package.  Trees reach it through the protocol, whose static run and
`DynamicForest.change_root` do the merging; the tests keep a plain
post-order merge cascade (`tests/helpers.py`) as their reference.

The merge follows the fusion procedure of the distributed algorithm with
three repairs where a literal reading of the fusion rules is inconsistent;
each has a test on a tree that fails without it, in `tests/test_hd.py`
(`test_repair_1_...`, `test_repair_2_...` and `test_repair_3_...`, in
the order below):

* the (1,2) initial case additionally requires every non-maximum child to
  be vector (-1,-1), otherwise a value-2 tree would be labeled (1,2);
* the simplification also fires, without any cell exceeding 1, when the
  stable vector collides with nonzero cells at or below the k2 probe (a
  stable subtree plus an unstable subtree of the same value must collapse
  into a stable piece one level up);
* k1, like k2, may land on the virtual zero cell at L+1, extending the
  table; otherwise summed cells above 1 could survive and break the 0/1
  minimality of the output.

Tables are normalized so their length is max(vect.pn, last nonzero cell);
trailing zeros would otherwise corrupt the evaluator's case (a) scan.

Descriptors are validated where they enter from outside: `merge` checks its
children (caller input), `evaluate` checks its argument, and `codec.decode`
checks every descriptor read off the wire.  The merge does not
re-check its own output: its minimality is pinned by the test suite, and on
every protocol path the output is framed and decoded by the receiver in
`protocol.hop`, whose decode validated that frame the first time it saw
it.  That function is a memo: it runs the decode and its round-trip
check once per distinct hop, in static runs and dynamic forests alike,
while every message is still encoded and counted.  For the same reason
the merge evaluates its output unvalidated, and records the result and
the output's pn+ in its `MergeInfo`: `result` is `evaluate` of the
output, and `pn_plus` is `pn_plus_from` of the output and that result.

The merge is memoised.  A run draws its messages from a few dozen distinct
minimal descriptors, so most merges repeat an earlier one.  The output and
its `MergeInfo` depend only on the multiset of children, not on their order.
The memo is still keyed on the ordered children and the variant, since
sorting every key would cost more than the few entries it would save; it
holds at most `MEMO_SIZE` entries and is shared by every caller.
Validation and evaluation run once per distinct input; a repeat reuses the
output and its `MergeInfo`, evaluation included, and a failure is never
cached, so invalid children raise on every call.

One rule decides who takes the memo: tagged input takes the memo; anything
else is computed and validated afresh.  The tag is the private subclass
`_Minimal`, which adds no state and prints as an `HDescriptor`; it marks a
descriptor known to be minimal and made of plain ints.  Only two places hand
it out: the memoised merge (its children carried the tag, so its output is
minimal and made of plain ints too) and `codec.decode`, after
`validate_descriptor(..., minimal=True)`.  `merge_detailed` sends children
that all carry the tag to the memo; any other input, a user-built
`HDescriptor` included, goes to the uncached `_merge` and gets its exact
result or error.  The tag, not equality, opens the memo because keys compare
by value and 1.0 == 1: a hand-built child with a cell of 1.0 would otherwise
hit the entry of an equal tagged one.  The tag never changes a result or an
error, only how fast it comes.  The hop memo of `protocol` reads no tag:
the entries it is given are decodes and hop results, tagged by
construction, and `DynamicForest.check_invariants` reports any other.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence


MEMO_SIZE = 1 << 16  # entries kept by each memo, here and in codec


class ContractError(Exception):
    """A descriptor or merge input violates the documented invariants."""


class Vect(NamedTuple):
    pn: int
    pn_plus: int


NO_STABLE = Vect(-1, -1)


class HDescriptor(NamedTuple):
    vect: Vect
    table: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.table)


class _Minimal(HDescriptor):
    """An `HDescriptor` known to be minimal and made of plain ints (see the
    module notes); equal to, and hashed like, the untagged descriptor."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"HDescriptor(vect={self.vect!r}, table={self.table!r})"

    def _replace(self, **changes) -> HDescriptor:
        # a changed descriptor is no longer known to be minimal
        return HDescriptor(*self)._replace(**changes)


class ParamVariant(Enum):
    PROCESS_NUMBER = "pn"
    NODE_SEARCH = "ns"
    EDGE_SEARCH = "es"

    # members are singletons compared by identity; the identity hash runs in
    # C, where `Enum.__hash__` would run Python code on every memo lookup
    __hash__ = object.__hash__


class EvalResult(NamedTuple):
    value: int
    stable: bool


class MergeInfo(NamedTuple):
    """Derivation record of one merge, consumed by strategy extraction."""

    case: str
    prefold: Vect                  # vector before the fold step
    folded: bool
    fired: int | None              # simplification target, when it fired
    result: EvalResult             # evaluate() of the merge output
    pn_plus: int                   # pn_plus_from(output, result)


def ceil_log3(n: int) -> int:
    """Smallest k with 3**k >= n."""
    if n < 1:
        raise ContractError(f"ceil_log3 needs n >= 1, got {n}")
    k, power = 0, 1
    while power < n:
        k += 1
        power *= 3
    return k


def validate_descriptor(hd: HDescriptor, minimal: bool = False) -> None:
    vect, table = hd
    if not (vect == NO_STABLE or 0 <= vect.pn <= vect.pn_plus <= vect.pn + 1):
        raise ContractError(f"bad vector {vect}")
    if any(not isinstance(c, int) or c < 0 for c in table):
        raise ContractError(f"table cells must be non-negative ints: {table}")
    if table and table[0] != 0:
        raise ContractError("cell 1 must be 0 (value-1 trees are stable)")
    if vect.pn >= 1 and any(table[i] for i in range(min(vect.pn, len(table)))):
        raise ContractError(f"cells at or below the stable value must be 0: {hd}")
    if minimal:
        if any(c > 1 for c in table[1:]):
            raise ContractError(f"minimal descriptor has 0/1 cells beyond cell 1: {hd}")
        last = _last_nonzero(table)
        if len(table) != max(vect.pn if vect.pn >= 0 else 0, last):
            raise ContractError(f"table length not normalized: {hd}")


def _last_nonzero(table: Sequence[int]) -> int:
    for i in range(len(table), 0, -1):
        if table[i - 1]:
            return i
    return 0


def _normalized(vect: Vect, cells: list[int]) -> HDescriptor:
    length = max(vect.pn if vect.pn >= 0 else 0, _last_nonzero(cells))
    cells = cells[:length] + [0] * (length - len(cells))
    return HDescriptor(vect, tuple(cells))


def evaluate(hd: HDescriptor) -> EvalResult:
    """Value and stability of a tree admitting this decomposition.

    Case (a): some cell holds 0 with only 1s above it; the value is the
    table length.  That covers the degenerate all-zero table, which is the
    stable piece itself, hence stable; a genuine 1 in the top cell is an
    unstable piece of maximal value and makes the tree unstable.  Case (b):
    otherwise the value is max(pn, L + 1), stable.
    """
    validate_descriptor(hd)
    return _evaluate(hd)


def _evaluate(hd: HDescriptor) -> EvalResult:
    """`evaluate` of a descriptor known to be valid."""
    table = hd.table
    length = len(table)
    if length == 0:
        return EvalResult(max(hd.vect.pn, 0), True)
    i = length
    while i >= 1 and table[i - 1] == 1:
        i -= 1
    if i >= 1 and table[i - 1] == 0:
        return EvalResult(length, table[length - 1] == 0)
    return EvalResult(max(hd.vect.pn, length + 1), True)


def pn_plus_from(hd: HDescriptor, res: EvalResult) -> int:
    """Minimum agents for a strategy ending at the subtree root (>= 1),
    given `res = evaluate(hd)`."""
    if res.stable:
        return max(hd.vect.pn_plus, 1)
    return res.value + 1


# ---------------------------------------------------------------------------
# merge

def _vector_step(vects: list[Vect], variant: ParamVariant) -> tuple[Vect, str]:
    if variant is ParamVariant.EDGE_SEARCH:
        eff = [Vect(2, 2) if v == Vect(1, 2) else v for v in vects]
        if all(v.pn_plus < 2 for v in eff):
            # Every received subtree counts as a branch here, the (-1,-1)
            # ones included: each pins a searcher at the merging node, which
            # is what the 0/1/2/many split is really counting.  (Excluding
            # them mislabels one 10-vertex tree; the oracle arbitrates.)
            if len(eff) == 0:
                return Vect(0, 0), "init-lone"
            if len(eff) == 1:
                return Vect(1, 1), "init-one"
            if len(eff) == 2:
                return Vect(1, 2), "init-pair"
            return Vect(2, 2), "init-many"
    else:
        eff = vects

    maxpn = max((v.pn for v in eff), default=-1)
    m = [v for v in eff if v.pn == maxpn]  # the maximal branches, the set M

    if variant is ParamVariant.NODE_SEARCH and maxpn < 2:
        if maxpn == -1:
            return Vect(1, 1), "init-lone"
        return Vect(2, 2), "init-many"

    if variant is ParamVariant.PROCESS_NUMBER and maxpn < 2:
        if maxpn == -1:
            return Vect(0, 0), "init-lone"
        if maxpn == 0:
            return Vect(1, 1), "init-star"
        if m == [Vect(1, 1)] and all(v == NO_STABLE for v in eff if v.pn != 1):
            return Vect(1, 2), "init-chain"
        return Vect(2, 2), "init-many"

    p = maxpn
    if len(m) == 1:
        return Vect(p, p), "gen-single"
    if len(m) == 2:
        return Vect(p, p + 1), "gen-pair"
    return Vect(p + 1, p + 1), "gen-triple"


def merge_detailed(children: Iterable[HDescriptor],
                   variant: ParamVariant) -> tuple[HDescriptor, MergeInfo]:
    """Minimal descriptor of the subtree rooted at the merging node, given
    the minimal descriptors already received from its visited neighbours.
    An empty children list is the leaf initialization."""
    kids = tuple(children)
    for kid in kids:
        if type(kid) is not _Minimal:
            return _merge(kids, variant)
    return _merge_memo(kids, variant)


def _merge(kids: tuple[HDescriptor, ...],
           variant: ParamVariant) -> tuple[HDescriptor, MergeInfo]:
    for child in kids:
        validate_descriptor(child, minimal=True)

    vect, case = _vector_step([c.vect for c in kids], variant)
    pv, pvp = vect

    length = max([c.length for c in kids] + [pv])
    cells = [0] * (length + 1)  # 1-based working array, cells[0] unused
    for child in kids:
        for i, c in enumerate(child.table, start=1):
            cells[i] += c

    folded = pv < pvp and pv > 1
    if folded:
        cells[pv] += 1
        for i in range(2, pv):
            cells[i] = 0

    fired = _collapse(cells, length, pv, folded)
    if fired is not None:
        out_vect = Vect(fired, fired)
    elif folded:
        out_vect = NO_STABLE
    else:
        out_vect = vect

    out = _normalized(out_vect, cells[1:])
    result = _evaluate(out)
    return out, MergeInfo(case, vect, folded, fired, result,
                          pn_plus_from(out, result))


@lru_cache(maxsize=MEMO_SIZE)
def _merge_memo(kids: tuple[HDescriptor, ...],
                variant: ParamVariant) -> tuple[HDescriptor, MergeInfo]:
    """`_merge` of tagged children, whose output is tagged."""
    out, info = _merge(kids, variant)
    return _Minimal(*out), info


def merge(children: Iterable[HDescriptor], variant: ParamVariant) -> HDescriptor:
    return merge_detailed(children, variant)[0]


def _collapse(cells: list[int], length: int, probe: int, folded: bool) -> int | None:
    """The merge's simplification step.

    `cells` is a 1-based working array of `length` cells (cells[0] unused)
    and `probe`, at most `length`, the value of the root piece.  When the
    step fires it zeroes cells 1..fired in place, appending the virtual zero
    cell at length + 1 when fired lands there, and returns fired; otherwise
    it returns None and leaves the cells alone.
    """
    k = None
    for i in range(length, 1, -1):
        if cells[i] > 1:
            k = i
            break
    k1 = None
    if k is not None:
        k1 = next(i for i in range(k + 1, length + 2)
                  if i > length or cells[i] == 0)
    if probe == 0 or cells[probe] == 0:
        k2 = probe
    else:
        k2 = next(i for i in range(probe + 1, length + 2)
                  if i > length or cells[i] == 0)

    fire = k is not None or (
        not folded and probe >= 1
        and any(cells[i] for i in range(2, min(k2, length) + 1)))
    if not fire:
        return None
    fired = max(k1 or 0, k2)
    if fired > length:
        cells.extend([0] * (fired - length))
    for i in range(1, fired + 1):
        cells[i] = 0
    return fired

