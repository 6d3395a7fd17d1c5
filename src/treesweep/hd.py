"""Hierarchical-decomposition descriptors and the merge that maintains them.

A descriptor is a pair (vect, table).  The vector describes the stable
associated-tree of the decomposition, (-1, -1) when there is none; since
pn <= pn+ <= pn + 1 it fits in an integer and a bit.  Cell i of the table
counts the unstable associated-trees with vector (i, i+1); cell 1 is kept
in storage but is always 0 because value-1 trees count as stable.

The merge follows the fusion procedure of the distributed algorithm with
three repairs where a literal reading of the fusion rules is inconsistent;
each is exercised by the oracle-conformance suite:

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
children (caller input), `evaluate` and `simplify` check their argument, and
`codec.decode` checks every descriptor read off the wire.  The merge does not
re-check its own output: its minimality is pinned by the test suite, and on
every protocol path the output is encoded, then decoded by the receiver,
whose decode validated that frame the first time it saw it.

The merge is memoised.  A run draws its messages from a few dozen distinct
minimal descriptors, so most merges repeat an earlier one.  The memo is keyed
on the ordered children and the variant (`MergeInfo.max_children` depends on
the order), holds at most `MEMO_SIZE` entries and is shared by every caller.
Validation runs once per distinct input; a repeat reuses that result, and a
failure is never cached, so invalid children raise on every call.  Keys
compare by value, and 1.0 == 1, so only children made of plain ints take
the memo (`plain_descriptors`); any other input is validated afresh.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

from .forest import Forest


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

    def cell(self, i: int) -> int:
        """1-based table access; cells beyond the length read as 0."""
        return self.table[i - 1] if 1 <= i <= len(self.table) else 0

    @property
    def length(self) -> int:
        return len(self.table)


def hdesc(pn: int, pn_plus: int, cells: Sequence[int] = ()) -> HDescriptor:
    return HDescriptor(Vect(pn, pn_plus), tuple(cells))


class ParamVariant(Enum):
    PROCESS_NUMBER = "pn"
    NODE_SEARCH = "ns"
    EDGE_SEARCH = "es"


class EvalResult(NamedTuple):
    value: int
    stable: bool


@dataclass(frozen=True)
class MergeInfo:
    """Derivation record of one merge, consumed by strategy extraction."""

    case: str
    max_children: tuple[int, ...]  # indices into the children list (the set M)
    prefold: Vect                  # vector before the fold step
    folded: bool
    fired: int | None              # simplification target, when it fired


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


def pn_plus_of(hd: HDescriptor) -> int:
    """Minimum agents for a strategy ending at the subtree root (>= 1)."""
    return pn_plus_from(hd, evaluate(hd))


def pn_plus_from(hd: HDescriptor, res: EvalResult) -> int:
    """`pn_plus_of` given `res = evaluate(hd)` already computed."""
    if res.stable:
        return max(hd.vect.pn_plus, 1)
    return res.value + 1


# ---------------------------------------------------------------------------
# merge

def _vector_step(vects: list[Vect], variant: ParamVariant) -> tuple[Vect, tuple[int, ...], str]:
    if variant is ParamVariant.EDGE_SEARCH:
        eff = [Vect(2, 2) if v == Vect(1, 2) else v for v in vects]
        if all(v.pn_plus < 2 for v in eff):
            # Every received subtree counts as a branch here, the (-1,-1)
            # ones included: each pins a searcher at the merging node, which
            # is what the 0/1/2/many split is really counting.  (Excluding
            # them mislabels one 10-vertex tree; the oracle arbitrates.)
            m = tuple(range(len(eff)))
            if len(m) == 0:
                return Vect(0, 0), m, "init-lone"
            if len(m) == 1:
                return Vect(1, 1), m, "init-one"
            if len(m) == 2:
                return Vect(1, 2), m, "init-pair"
            return Vect(2, 2), m, "init-many"
    else:
        eff = vects

    maxpn = max((v.pn for v in eff), default=-1)
    m = tuple(i for i, v in enumerate(eff) if v.pn == maxpn) if eff else ()

    if variant is ParamVariant.NODE_SEARCH and maxpn < 2:
        if maxpn == -1:
            return Vect(1, 1), m, "init-lone"
        return Vect(2, 2), m, "init-many"

    if variant is ParamVariant.PROCESS_NUMBER and maxpn < 2:
        if maxpn == -1:
            return Vect(0, 0), m, "init-lone"
        if maxpn == 0:
            return Vect(1, 1), m, "init-star"
        lone = len(m) == 1 and eff[m[0]] == Vect(1, 1)
        if lone and all(eff[j] == NO_STABLE for j in range(len(eff)) if j != m[0]):
            return Vect(1, 2), m, "init-chain"
        return Vect(2, 2), m, "init-many"

    p = maxpn
    if len(m) == 1:
        return Vect(p, p), m, "gen-single"
    if len(m) == 2:
        return Vect(p, p + 1), m, "gen-pair"
    return Vect(p + 1, p + 1), m, "gen-triple"


def plain_descriptors(items: tuple) -> bool:
    """True when every item is an `HDescriptor` of a `Vect` and a tuple,
    all holding ints: then equal inputs behave alike and may share a memo
    entry.  A float, Fraction or Decimal anywhere makes the sum non-int."""
    for hd in items:
        if (type(hd) is not HDescriptor or type(hd.vect) is not Vect
                or type(hd.table) is not tuple):
            return False
    try:
        return type(sum(chain.from_iterable(chain.from_iterable(items)))) is int
    except TypeError:
        return False


def merge_detailed(children: Iterable[HDescriptor],
                   variant: ParamVariant) -> tuple[HDescriptor, MergeInfo]:
    """Minimal descriptor of the subtree rooted at the merging node, given
    the minimal descriptors already received from its visited neighbours.
    An empty children list is the leaf initialization."""
    kids = tuple(children)
    if plain_descriptors(kids):
        return _merge_memo(kids, variant)
    return _merge(kids, variant)


def _merge(kids: tuple[HDescriptor, ...],
           variant: ParamVariant) -> tuple[HDescriptor, MergeInfo]:
    for child in kids:
        validate_descriptor(child, minimal=True)

    vect, m_indices, case = _vector_step([c.vect for c in kids], variant)
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

    return _normalized(out_vect, cells[1:]), MergeInfo(case, m_indices, vect, folded, fired)


_merge_memo = lru_cache(maxsize=MEMO_SIZE)(_merge)


def merge(children: Iterable[HDescriptor], variant: ParamVariant) -> HDescriptor:
    return merge_detailed(children, variant)[0]


def simplify(hd: HDescriptor) -> HDescriptor:
    """Fixpoint of the restriction-based simplification; idempotent and
    value-preserving.  Minimal descriptors pass through unchanged."""
    validate_descriptor(hd)
    cur = _normalized(hd.vect, list(hd.table))
    while True:
        nxt = _simplify_once(cur)
        if nxt == cur:
            return cur
        cur = nxt


def _simplify_once(hd: HDescriptor) -> HDescriptor:
    vect, table = hd
    length = len(table)
    if length == 0:
        return hd
    cells = [0] + list(table)
    folded = vect == NO_STABLE
    if folded:
        # the root piece is the unstable piece at the lowest nonzero cell
        pv = next((i for i in range(1, length + 1) if cells[i]), 0)
    else:
        pv = vect.pn
    fired = _collapse(cells, length, pv, folded)
    if fired is None:
        return hd
    return _normalized(Vect(fired, fired), cells[1:])


def _collapse(cells: list[int], length: int, probe: int, folded: bool) -> int | None:
    """The simplification step shared by the merge and `simplify`.

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


# ---------------------------------------------------------------------------
# rooted cascade (shared by tests and conformance)

def rooted_descriptors(tree: Forest, root: int,
                       variant: ParamVariant) -> dict[int, HDescriptor]:
    """Descriptor of every rooted subtree via a post-order merge cascade."""
    if root not in tree.vertices:
        raise ContractError(f"root {root} not in tree")
    parent: dict[int, int | None] = {root: None}
    stack = [root]
    order = []
    while stack:
        v = stack.pop()
        order.append(v)
        for u in tree.neighbours(v):
            if u not in parent:
                parent[u] = v
                stack.append(u)
    if len(order) != tree.n:
        raise ContractError("tree is not connected")
    out: dict[int, HDescriptor] = {}
    for v in reversed(order):
        kids = [out[u] for u in tree.neighbours(v) if parent.get(u) == v]
        out[v] = merge(kids, variant)
    return out


def rooted_value(tree: Forest, root: int, variant: ParamVariant) -> int:
    return evaluate(rooted_descriptors(tree, root, variant)[root]).value
