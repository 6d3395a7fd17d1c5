"""Explicit process strategies: a rule simulator that validates any action
list, and extraction of an optimal strategy from the per-node descriptors a
static run leaves behind.

Extraction composes three builders over the rooted tree.  end_at(v)
processes the subtree with the agent on v removed last, either by holding v
first and sweeping each child branch (leaves cost nothing: a held father
surrounds them), or by processing one hand-off child to its final agent,
placing v, and sweeping the rest.  start_at(v) is the reversal.  sweep(v)
achieves the optimal count: stable subtrees use end_at; a pure (1,2)
subtree is processed through its single branch, surrounding its root for
free; an unstable subtree locates the fold node w that created its topmost
piece, processes one stable branch of w to its final agent, parks an agent
on w, sweeps w's small branches, recursively sweeps the whole remainder of
the tree while w stays covered, and finishes out through w's second stable
branch.  The remainder is re-merged along the ancestor chain after cutting
w's subtree, and its value is strictly below the piece value, which is what
keeps the recursion inside the optimal budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .forest import Forest, Graph
from .hd import (ContractError, HDescriptor, MergeInfo, ParamVariant, Vect,
                 evaluate, merge_detailed, pn_plus_of)
from .protocol import NodeState

PLACE = "P"
REMOVE = "R"
SURROUND = "S"


class StrategyError(Exception):
    pass


@dataclass(frozen=True)
class Action:
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
    for step, act in enumerate(strategy.actions):
        v = act.vertex
        if v not in state:
            raise StrategyError(f"step {step}: unknown vertex {v}")
        if act.kind == PLACE:
            if state[v] != UNTOUCHED:
                raise StrategyError(f"step {step}: place on non-fresh vertex {v}")
            state[v] = OCCUPIED
            live += 1
            peak = max(peak, live)
        elif act.kind == REMOVE:
            if state[v] != OCCUPIED:
                raise StrategyError(f"step {step}: remove without agent at {v}")
            bad = [u for u in g.neighbours(v) if state[u] == UNTOUCHED]
            if bad:
                raise StrategyError(
                    f"step {step}: remove at {v} with untouched neighbour {bad[0]}")
            state[v] = PROCESSED
            live -= 1
        elif act.kind == SURROUND:
            if state[v] != UNTOUCHED:
                raise StrategyError(f"step {step}: surround-process on non-fresh {v}")
            bad = [u for u in g.neighbours(v) if state[u] != OCCUPIED]
            if bad:
                raise StrategyError(
                    f"step {step}: {v} not surrounded, neighbour {bad[0]} has no agent")
            state[v] = PROCESSED
        else:
            raise StrategyError(f"step {step}: unknown action kind {act.kind!r}")
    left = [v for v, s in state.items() if s != PROCESSED]
    if left:
        raise StrategyError(f"end state: vertex {left[0]} not processed")
    return peak


def _reversed_actions(actions: list[Action]) -> list[Action]:
    swap = {PLACE: REMOVE, REMOVE: PLACE, SURROUND: SURROUND}
    return [Action(swap[a.kind], a.vertex) for a in reversed(actions)]


def _peak(actions: list[Action]) -> int:
    live = peak = 0
    for a in actions:
        if a.kind == PLACE:
            live += 1
            peak = max(peak, live)
        elif a.kind == REMOVE:
            live -= 1
    return peak


class _Extractor:
    """Mutable rooted view of the tree with per-node descriptors and merge
    derivations; sweep() may cut a processed subtree and re-merge the
    ancestor chain."""

    def __init__(self, states: dict[int, NodeState]):
        roots = [v for v, st in states.items() if st.father is None]
        if len(roots) != 1:
            raise ContractError(f"states describe {len(roots)} roots, want 1")
        self.root = roots[0]
        self.parent = {v: st.father for v, st in states.items()}
        self.children: dict[int, list[int]] = {v: [] for v in states}
        for v, st in states.items():
            if st.father is not None:
                self.children[st.father].append(v)
        for kids in self.children.values():
            kids.sort()
        self.hd: dict[int, HDescriptor] = {}
        self.info: dict[int, MergeInfo] = {}
        order = [self.root]
        for v in order:
            order.extend(self.children[v])
        for v in reversed(order):
            self._remerge(v)
            if v != self.root:
                sent = states[self.parent[v]].received[v]
                if self.hd[v] != sent:
                    raise ContractError(
                        f"stored descriptor at {v} disagrees with a fresh merge")

    def _remerge(self, v: int) -> None:
        kids = [self.hd[c] for c in self.children[v]]
        self.hd[v], self.info[v] = merge_detailed(kids, ParamVariant.PROCESS_NUMBER)

    def _cut(self, w: int) -> None:
        node = self.parent[w]
        self.children[node].remove(w)
        while node is not None:
            self._remerge(node)
            node = self.parent[node]

    # -- builders ----------------------------------------------------------

    def end_at(self, v: int) -> list[Action]:
        kids = self.children[v]
        values = {c: evaluate(self.hd[c]).value for c in kids}
        budget = max(pn_plus_of(self.hd[v]), 1)
        best_plan = None
        best_peak = max(1, 1 + max(values.values(), default=0))
        for c in kids:
            rest = max((values[o] for o in kids if o != c), default=0)
            peak = max(pn_plus_of(self.hd[c]), 2, 1 + rest)
            if peak < best_peak:
                best_peak, best_plan = peak, c
        if best_peak > budget:
            raise ContractError(f"end_at({v}) cannot meet budget {budget}")
        actions: list[Action] = []
        if best_plan is None:
            actions.append(Action(PLACE, v))
            for c in kids:
                actions.extend(self.sweep_held(c))
        else:
            actions.extend(self.end_at(best_plan)[:-1])
            actions.append(Action(PLACE, v))
            actions.append(Action(REMOVE, best_plan))
            for c in kids:
                if c != best_plan:
                    actions.extend(self.sweep_held(c))
        actions.append(Action(REMOVE, v))
        return actions

    def start_at(self, v: int) -> list[Action]:
        return _reversed_actions(self.end_at(v))

    def sweep_held(self, c: int) -> list[Action]:
        """Process T_c while c's father holds an agent; leaves are free."""
        if not self.children[c]:
            return [Action(SURROUND, c)]
        return self.sweep(c)

    def sweep(self, v: int) -> list[Action]:
        hd = self.hd[v]
        res = evaluate(hd)
        if res.value == 0:
            return [Action(SURROUND, v)]
        if pn_plus_of(hd) == res.value:
            return self.end_at(v)
        if hd.vect == Vect(1, 2) and not any(hd.table):
            c = self._single_child(v)
            inner = self.end_at(c)
            return inner[:-1] + [Action(SURROUND, v), inner[-1]]
        return self._sweep_unstable(v, res.value)

    def _single_child(self, v: int) -> int:
        if len(self.children[v]) != 1:
            raise ContractError(f"pure (1,2) node {v} should have one child")
        return self.children[v][0]

    def _sweep_unstable(self, v: int, top: int) -> list[Action]:
        w = v
        while not (self.info[w].folded and self.info[w].prefold.pn == top):
            carriers = [c for c in self.children[w]
                        if evaluate(self.hd[c]).value == top
                        and not evaluate(self.hd[c]).stable]
            if len(carriers) != 1:
                raise ContractError(
                    f"expected one carrier of the value-{top} piece under {w}")
            w = carriers[0]
        m = [self.children[w][i] for i in self.info[w].max_children]
        if len(m) != 2:
            raise ContractError(f"fold at {w} without two maximal branches")
        w1, w2 = sorted(m)

        part1 = self.end_at(w1)[:-1]
        part1.append(Action(PLACE, w))
        part1.append(Action(REMOVE, w1))
        for c in self.children[w]:
            if c not in (w1, w2):
                part1.extend(self.sweep_held(c))
        tail = self.start_at(w2)
        if tail[0] != Action(PLACE, w2):
            raise ContractError("start_at must open by placing its root")
        part3 = [tail[0], Action(REMOVE, w)] + tail[1:]

        if w == v:
            part2: list[Action] = []
        else:
            self._cut(w)
            rest_value = evaluate(self.hd[v]).value
            if rest_value >= top:
                raise ContractError(
                    f"remainder value {rest_value} not below piece value {top}")
            part2 = self.sweep(v)
        return part1 + part2 + part3


def extract(tree: Forest, states: dict[int, NodeState]) -> Strategy:
    """Optimal process strategy from a static run's retained descriptors.

    Only meaningful for the process-number variant: the descriptors must be
    the ones the run computed, and the returned strategy validates to
    exactly the computed process number.
    """
    ex = _Extractor(states)
    actions = ex.sweep(ex.root)
    return Strategy(actions)
