"""Explicit process strategies: a rule simulator that validates any action
list, and extraction of an optimal strategy from the per-node descriptors a
static run leaves behind.

Extraction reads the run's two maps in place, `received` and `father`,
and builds no object per vertex.  It makes one pass over the tree's
vertices: it merges each vertex's own stored entries (none for a leaf), in
the order the run merged them, and checks the result against the entry
stored at the vertex's father; the one vertex without a father is the
root.  The merge memo hands each
merge back with its `MergeInfo`, which carries the value, stability and pn+
of the merged descriptor, so nothing is evaluated or validated again.
Builders over the rooted tree append actions to one list, each built once
by `_action` and never copied.

end_at(v) processes the subtree with the agent on v removed last.  A node
is either held first while each child branch is swept (leaves cost
nothing: a held father surrounds them), or hands off: one child is
processed to its final agent, the node is placed and the child's agent
removed.  end_at walks the hand-off chain v, c1, ..., ck in a loop, then
emits it bottom-up: ck held over its branches; each node above placed, the
one below removed, its other branches swept; v removed last.  sweep(v)
achieves the optimal count: stable subtrees use end_at; a pure (1,2)
subtree is processed through its single branch, surrounding its root for
free; an unstable subtree locates the fold node w that created its topmost
piece, processes one stable branch of w to its final agent, parks an agent
on w, sweeps w's small branches, sweeps the whole remainder of the tree
while w stays covered, and finishes out through w's second stable branch
(end_at reversed).  After w's subtree is cut, the remainder is re-merged
along the carrier path the descent walked, from w's father up to the swept
node; nothing above that node is read again.  The remainder's value is
strictly below the piece value, which keeps its sweep inside the optimal
budget.  Recursion nests only into side branches, fold branches and
remainders, never once per tree level: a 4000-vertex path, or a spider with
three 1500-vertex legs, takes fewer than 15 frames.

Each action is emitted once.  The builders take the kinds they write for
PLACE and REMOVE, so the reversed end_at(w2) is end_at(w2) run with the two
swapped, which writes the hand-off backwards step by step, followed by one
in-place reversal of that list; nested reversals come out right the same
way, and nothing is rebuilt.

`Action` is a `NamedTuple`; `Strategy` is a small mutable class around
one action list.
"""

from __future__ import annotations

from functools import partial
from typing import Collection, NamedTuple

from .forest import Graph
from .hd import (ContractError, EvalResult, HDescriptor, MergeInfo,
                 ParamVariant, Vect, merge_detailed)
from .hd import evaluate  # noqa: F401  (perfbench/tracer.py patches strategy.evaluate)
from .protocol import RunResult

PLACE = "P"
REMOVE = "R"
SURROUND = "S"


class StrategyError(Exception):
    pass


class Action(NamedTuple):
    """One step: PLACE, REMOVE or SURROUND-process `vertex`.  A plain
    tuple, so `Action("P", 1) == ("P", 1)`."""

    kind: str
    vertex: int

    def __str__(self) -> str:
        return f"{self.kind} {self.vertex}"


# Action((kind, vertex)) without NamedTuple's Python-level __new__; every
# action extraction emits is built here
_action = partial(tuple.__new__, Action)


class Strategy:
    """An action list; equal when the lists are.  Each instance made
    without one gets its own empty list."""

    def __init__(self, actions: list[Action] | None = None):
        self.actions = [] if actions is None else actions

    def __eq__(self, other):
        if type(other) is not Strategy:
            return NotImplemented
        return self.actions == other.actions

    def __repr__(self) -> str:
        return f"Strategy(actions={self.actions!r})"

    def dump(self) -> str:
        return "\n".join([f"{kind} {v}" for kind, v in self.actions]) + "\n"

    def __len__(self) -> int:
        return len(self.actions)


def validate(g: Graph, strategy: Strategy) -> int:
    """Simulate the three rules and return the peak agent count.

    Raises StrategyError naming the offending step for an illegal placement,
    removal, or surrounded-processing, and when vertices are left
    unprocessed at the end.
    """
    UNTOUCHED, OCCUPIED, PROCESSED = 0, 1, 2
    adj = g.adj
    state = dict.fromkeys(adj, UNTOUCHED)
    live = peak = 0
    for step, (kind, v) in enumerate(strategy.actions):
        if v not in state:
            raise StrategyError(f"step {step}: unknown vertex {v}")
        if kind == PLACE:
            if state[v] != UNTOUCHED:
                raise StrategyError(f"step {step}: place on non-fresh vertex {v}")
            state[v] = OCCUPIED
            live += 1
            if live > peak:
                peak = live
        elif kind == REMOVE:
            if state[v] != OCCUPIED:
                raise StrategyError(f"step {step}: remove without agent at {v}")
            for u in adj[v]:
                if state[u] == UNTOUCHED:
                    raise StrategyError(
                        f"step {step}: remove at {v} with untouched neighbour {u}")
            state[v] = PROCESSED
            live -= 1
        elif kind == SURROUND:
            if state[v] != UNTOUCHED:
                raise StrategyError(f"step {step}: surround-process on non-fresh {v}")
            for u in adj[v]:
                if state[u] != OCCUPIED:
                    raise StrategyError(
                        f"step {step}: {v} not surrounded, neighbour {u} has no agent")
            state[v] = PROCESSED
        else:
            raise StrategyError(f"step {step}: unknown action kind {kind!r}")
    left = [v for v, s in state.items() if s != PROCESSED]
    if left:
        raise StrategyError(f"end state: vertex {left[0]} not processed")
    return peak


class _Extractor:
    """Mutable rooted view of the tree: per node its children, its
    descriptor and the `MergeInfo` of its last merge, which carries the
    descriptor's value, stability and pn+.  A node's children are the keys
    of its entries in the run's `received` map, read in place (a leaf has
    none): the order the run merged them, so every merge of `__init__` is a
    memo hit.  No record depends on that order, and the builders visit
    children in id order, so the actions do not depend on it either.
    sweep() may cut a processed subtree, which gives the node above it a
    list of the children left, and re-merge the carrier path above it; the
    run's maps are never changed.  The builders append their actions to the
    list they are given."""

    def __init__(self, tree: Graph, run: RunResult):
        children: dict[int, Collection[int]] = {}
        hds: dict[int, HDescriptor] = {}
        info: dict[int, MergeInfo] = {}
        self.children, self.hd, self.info = children, hds, info
        received, father = run.received, run.father
        pn = ParamVariant.PROCESS_NUMBER
        roots = []
        for v in tree.adj:
            heard = children[v] = received.get(v, ())
            hd, info[v] = merge_detailed(
                tuple(heard.values()) if heard else (), pn)
            hds[v] = hd
            f = father.get(v)
            if f is None:
                roots.append(v)
            elif received[f][v] != hd:
                raise ContractError(
                    f"stored descriptor at {v} disagrees with a fresh merge")
        if len(roots) != 1:
            raise ContractError(f"the run describes {len(roots)} roots, want 1")
        self.root = roots[0]

    def _remerge(self, v: int) -> None:
        kids = [self.hd[c] for c in self.children[v]]
        self.hd[v], self.info[v] = merge_detailed(kids, ParamVariant.PROCESS_NUMBER)

    # -- builders ----------------------------------------------------------

    def _hand_off(self, v: int) -> int | None:
        """The child end_at(v) finishes first and hands over to v, or None
        to place v first: the plan with the lower peak, checked against pn+.

        Placing v first peaks at 1 + the largest child value.  A hand-off
        from c sweeps c's siblings beside v's agent, so it peaks at least at
        1 + the largest sibling value: only a child whose value is above
        all its siblings' can do better."""
        info = self.info
        top = second = 0  # the two largest child values
        plan = None       # a child of value top
        for c in self.children[v]:
            value = info[c].result.value
            if value > top:
                top, second, plan = value, top, c
            elif value > second:
                second = value
        peak = handed = 1 + top
        if second < top:  # plan is the only child of value top
            handed = max(info[plan].pn_plus, 2, 1 + second)
        if handed < peak:
            peak = handed
        else:
            plan = None
        budget = info[v].pn_plus
        if peak > budget:
            raise ContractError(f"end_at({v}) cannot meet budget {budget}")
        return plan

    def end_at(self, v: int, out: list[Action], place: str = PLACE,
               remove: str = REMOVE, finish: bool = True) -> None:
        """Process T_v with v's agent removed last, writing `place` and
        `remove` for PLACE and REMOVE; without `finish` that last removal
        is left out."""
        chain = [v]
        while (plan := self._hand_off(chain[-1])) is not None:
            chain.append(plan)
        below = None
        for node in reversed(chain):
            out.append(_action((place, node)))
            if below is not None:
                out.append(_action((remove, below)))
            for c in sorted(self.children[node]):
                if c != below:
                    self.sweep(c, out, place, remove)
            below = node
        if finish:
            out.append(_action((remove, v)))

    def sweep(self, v: int, out: list[Action], place: str = PLACE,
              remove: str = REMOVE) -> None:
        """Process T_v; a leaf, value 0, is surrounded by its held father."""
        hd, info = self.hd[v], self.info[v]
        value = info.result.value
        if value == 0:
            out.append(_action((SURROUND, v)))
        elif info.pn_plus == value:
            self.end_at(v, out, place, remove)
        elif hd.vect == Vect(1, 2) and not any(hd.table):
            if len(self.children[v]) != 1:
                raise ContractError(f"pure (1,2) node {v} should have one child")
            (c,) = self.children[v]
            self.end_at(c, out, place, remove, finish=False)
            out += (_action((SURROUND, v)), _action((remove, c)))
        else:
            self._sweep_unstable(v, value, out, place, remove)

    def _sweep_unstable(self, v: int, top: int, out: list[Action],
                        place: str, remove: str) -> None:
        info = self.info
        piece = EvalResult(top, False)
        path, w = [], v
        while not (info[w].folded and info[w].prefold.pn == top):
            carriers = [c for c in self.children[w] if info[c].result == piece]
            if len(carriers) != 1:
                raise ContractError(
                    f"expected one carrier of the value-{top} piece under {w}")
            path.append(w)
            w = carriers[0]
        # the fold's vector before folding is (p, p+1): M is the children of
        # pn p, and a fold needs exactly two of them
        p = info[w].prefold.pn
        m = [c for c in self.children[w] if self.hd[c].vect.pn == p]
        if len(m) != 2:
            raise ContractError(f"fold at {w} without two maximal branches")
        w1, w2 = sorted(m)

        # w1 is removed once w is placed
        self.end_at(w1, out, place, remove, finish=False)
        out += (_action((place, w)), _action((remove, w1)))
        for c in sorted(self.children[w]):
            if c != w1 and c != w2:
                self.sweep(c, out, place, remove)
        # the tail places w2, removes w and runs end_at(w2) backwards up to
        # w2's removal: written with the kinds swapped, then reversed
        back: list[Action] = []
        self.end_at(w2, back, remove, place, finish=False)
        back.reverse()
        if path:
            above = path[-1]
            self.children[above] = [c for c in self.children[above] if c != w]
            for node in reversed(path):
                self._remerge(node)
            if info[v].result.value >= top:
                raise ContractError(
                    f"remainder value {info[v].result.value} not below piece value {top}")
            self.sweep(v, out, place, remove)
        out += (_action((place, w2)), _action((remove, w)))
        out += back


def extract(tree: Graph, run: RunResult) -> Strategy:
    """Optimal process strategy from the descriptors a static run of `tree`
    left behind.

    Only meaningful for the process-number variant: the descriptors must be
    the ones the run computed, and the returned strategy validates to
    exactly the computed process number.
    """
    ex = _Extractor(tree, run)
    actions: list[Action] = []
    ex.sweep(ex.root, actions)
    return Strategy(actions)
