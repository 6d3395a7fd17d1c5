"""Explicit process strategies: a rule simulator that validates any action
list, and extraction of an optimal strategy from the per-node descriptors a
static run leaves behind.

Extraction re-merges every vertex and checks the result against the
descriptor the run stored; the merge memo hands each merge back with its
`MergeInfo`, which carries the value, stability and pn+ of the merged
descriptor, so nothing is evaluated or validated again.  Builders over the
rooted tree append actions to one list.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .forest import Forest, Graph
from .hd import (ContractError, EvalResult, HDescriptor, MergeInfo,
                 ParamVariant, Vect, merge_detailed)
from .hd import evaluate  # noqa: F401  (perfbench/tracer.py patches strategy.evaluate)
from .protocol import NodeState

PLACE = "P"
REMOVE = "R"
SURROUND = "S"
_REVERSED = {PLACE: REMOVE, REMOVE: PLACE, SURROUND: SURROUND}  # a run backwards


class StrategyError(Exception):
    pass


class Action(NamedTuple):
    """One step: PLACE, REMOVE or SURROUND-process `vertex`.  A plain
    tuple, so `Action("P", 1) == ("P", 1)`."""

    kind: str
    vertex: int

    def __str__(self) -> str:
        return f"{self.kind} {self.vertex}"


@dataclass
class Strategy:
    actions: list[Action] = field(default_factory=list)

    def dump(self) -> str:
        return "\n".join(str(a) for a in self.actions) + "\n"

    def __len__(self) -> int:
        return len(self.actions)


def validate(g: Graph, strategy: Strategy) -> int:
    """Simulate the three rules and return the peak agent count.

    Raises StrategyError naming the offending step for an illegal placement,
    removal, or surrounded-processing, and when vertices are left
    unprocessed at the end.
    """
    UNTOUCHED, OCCUPIED, PROCESSED = 0, 1, 2
    state = {v: UNTOUCHED for v in g.vertices}
    live = 0
    peak = 0
    for step, (kind, v) in enumerate(strategy.actions):
        if v not in state:
            raise StrategyError(f"step {step}: unknown vertex {v}")
        if kind == PLACE:
            if state[v] != UNTOUCHED:
                raise StrategyError(f"step {step}: place on non-fresh vertex {v}")
            state[v] = OCCUPIED
            live += 1
            peak = max(peak, live)
        elif kind == REMOVE:
            if state[v] != OCCUPIED:
                raise StrategyError(f"step {step}: remove without agent at {v}")
            bad = [u for u in g.neighbours(v) if state[u] == UNTOUCHED]
            if bad:
                raise StrategyError(
                    f"step {step}: remove at {v} with untouched neighbour {bad[0]}")
            state[v] = PROCESSED
            live -= 1
        elif kind == SURROUND:
            if state[v] != UNTOUCHED:
                raise StrategyError(f"step {step}: surround-process on non-fresh {v}")
            bad = [u for u in g.neighbours(v) if state[u] != OCCUPIED]
            if bad:
                raise StrategyError(
                    f"step {step}: {v} not surrounded, neighbour {bad[0]} has no agent")
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
    descriptor's value, stability and pn+.  The children are kept in the
    order the run merged them (the key order of the node's received set),
    so every merge of `__init__` is a memo hit and `max_children` indexes
    that list; the builders visit children in id order, so the actions do
    not depend on the arrival order.  sweep() may cut a processed subtree
    and re-merge the carrier path above it.  The builders append their
    actions to the list they are given."""

    def __init__(self, states: dict[int, NodeState]):
        roots = [v for v, st in states.items() if st.father is None]
        if len(roots) != 1:
            raise ContractError(f"states describe {len(roots)} roots, want 1")
        self.root = roots[0]
        self.children = {v: list(st.received) for v, st in states.items()}
        self.hd: dict[int, HDescriptor] = {}
        self.info: dict[int, MergeInfo] = {}
        order = [self.root]
        for v in order:
            order.extend(self.children[v])
        for v in reversed(order):
            self._remerge(v)
            if v != self.root:
                sent = states[states[v].father].received[v]
                if self.hd[v] != sent:
                    raise ContractError(
                        f"stored descriptor at {v} disagrees with a fresh merge")

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

    def end_at(self, v: int, out: list[Action]) -> None:
        chain = [v]
        while (plan := self._hand_off(chain[-1])) is not None:
            chain.append(plan)
        below = None
        for node in reversed(chain):
            out.append(Action(PLACE, node))
            if below is not None:
                out.append(Action(REMOVE, below))
            for c in sorted(self.children[node]):
                if c != below:
                    self.sweep(c, out)
            below = node
        out.append(Action(REMOVE, v))

    def sweep(self, v: int, out: list[Action]) -> None:
        """Process T_v; a leaf, value 0, is surrounded by its held father."""
        hd, info = self.hd[v], self.info[v]
        value = info.result.value
        if value == 0:
            out.append(Action(SURROUND, v))
        elif info.pn_plus == value:
            self.end_at(v, out)
        elif hd.vect == Vect(1, 2) and not any(hd.table):
            if len(self.children[v]) != 1:
                raise ContractError(f"pure (1,2) node {v} should have one child")
            self.end_at(self.children[v][0], out)
            out.insert(-1, Action(SURROUND, v))  # before the child's removal
        else:
            self._sweep_unstable(v, value, out)

    def _sweep_unstable(self, v: int, top: int, out: list[Action]) -> None:
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
        m = [self.children[w][i] for i in info[w].max_children]
        if len(m) != 2:
            raise ContractError(f"fold at {w} without two maximal branches")
        w1, w2 = sorted(m)

        self.end_at(w1, out)
        out.pop()  # w1 is removed once w is placed
        out += (Action(PLACE, w), Action(REMOVE, w1))
        for c in sorted(self.children[w]):
            if c != w1 and c != w2:
                self.sweep(c, out)
        back: list[Action] = []
        self.end_at(w2, back)
        back.pop()  # the tail places w2 instead
        tail = [Action(PLACE, w2), Action(REMOVE, w)]
        tail += [Action(_REVERSED[kind], u) for kind, u in reversed(back)]
        if path:
            self.children[path[-1]].remove(w)
            for node in reversed(path):
                self._remerge(node)
            if info[v].result.value >= top:
                raise ContractError(
                    f"remainder value {info[v].result.value} not below piece value {top}")
            self.sweep(v, out)
        out += tail


def extract(tree: Forest, states: dict[int, NodeState]) -> Strategy:
    """Optimal process strategy from a static run's retained descriptors.

    Only meaningful for the process-number variant: the descriptors must be
    the ones the run computed, and the returned strategy validates to
    exactly the computed process number.
    """
    ex = _Extractor(states)
    actions: list[Action] = []
    ex.sweep(ex.root, actions)
    return Strategy(actions)
