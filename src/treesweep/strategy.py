"""Explicit process strategies: a rule simulator that validates any action
list, and extraction of an optimal strategy from the per-node descriptors a
static run leaves behind.

Extraction composes builders over the rooted tree; they read values,
stability and pn+ from the one evaluation kept per (re-)merged node.
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

from .forest import Forest, Graph
from .hd import (ContractError, EvalResult, HDescriptor, MergeInfo,
                 ParamVariant, Vect, evaluate, merge_detailed, pn_plus_from)
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


class _Extractor:
    """Mutable rooted view of the tree with per-node descriptors, their
    evaluations and merge derivations; sweep() may cut a processed subtree
    and re-merge the carrier path above it."""

    def __init__(self, states: dict[int, NodeState]):
        roots = [v for v, st in states.items() if st.father is None]
        if len(roots) != 1:
            raise ContractError(f"states describe {len(roots)} roots, want 1")
        self.root = roots[0]
        self.children: dict[int, list[int]] = {v: [] for v in states}
        for v, st in states.items():
            if st.father is not None:
                self.children[st.father].append(v)
        for kids in self.children.values():
            kids.sort()
        self.hd: dict[int, HDescriptor] = {}
        self.res: dict[int, EvalResult] = {}
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
        self.res[v] = evaluate(self.hd[v])

    # -- builders ----------------------------------------------------------

    def _hand_off(self, v: int) -> int | None:
        """The child end_at(v) finishes first and hands over to v, or None
        to place v first: the plan with the lower peak, checked against pn+."""
        kids = self.children[v]
        values = [self.res[c].value for c in kids]
        top, second = (sorted(values, reverse=True) + [0, 0])[:2]
        best_plan, best_peak = None, 1 + top
        for c, value in zip(kids, values):
            rest = second if value == top else top  # max over the other kids
            peak = max(pn_plus_from(self.hd[c], self.res[c]), 2, 1 + rest)
            if peak < best_peak:
                best_peak, best_plan = peak, c
        budget = pn_plus_from(self.hd[v], self.res[v])
        if best_peak > budget:
            raise ContractError(f"end_at({v}) cannot meet budget {budget}")
        return best_plan

    def end_at(self, v: int) -> list[Action]:
        chain = [v]
        while (plan := self._hand_off(chain[-1])) is not None:
            chain.append(plan)
        actions: list[Action] = []
        below = None
        for node in reversed(chain):
            actions.append(Action(PLACE, node))
            if below is not None:
                actions.append(Action(REMOVE, below))
            for c in self.children[node]:
                if c != below:
                    actions.extend(self.sweep(c))
            below = node
        actions.append(Action(REMOVE, v))
        return actions

    def sweep(self, v: int) -> list[Action]:
        """Process T_v; a leaf, value 0, is surrounded by its held father."""
        hd, res = self.hd[v], self.res[v]
        if res.value == 0:
            return [Action(SURROUND, v)]
        if pn_plus_from(hd, res) == res.value:
            return self.end_at(v)
        if hd.vect == Vect(1, 2) and not any(hd.table):
            if len(self.children[v]) != 1:
                raise ContractError(f"pure (1,2) node {v} should have one child")
            inner = self.end_at(self.children[v][0])
            return inner[:-1] + [Action(SURROUND, v), inner[-1]]
        return self._sweep_unstable(v, res.value)

    def _sweep_unstable(self, v: int, top: int) -> list[Action]:
        path, w = [], v
        while not (self.info[w].folded and self.info[w].prefold.pn == top):
            carriers = [c for c in self.children[w]
                        if self.res[c] == EvalResult(top, False)]
            if len(carriers) != 1:
                raise ContractError(
                    f"expected one carrier of the value-{top} piece under {w}")
            path.append(w)
            w = carriers[0]
        m = [self.children[w][i] for i in self.info[w].max_children]
        if len(m) != 2:
            raise ContractError(f"fold at {w} without two maximal branches")
        w1, w2 = sorted(m)

        actions = self.end_at(w1)[:-1] + [Action(PLACE, w), Action(REMOVE, w1)]
        for c in self.children[w]:
            if c not in (w1, w2):
                actions.extend(self.sweep(c))
        swap = {PLACE: REMOVE, REMOVE: PLACE, SURROUND: SURROUND}
        tail = [Action(PLACE, w2), Action(REMOVE, w)]
        tail += [Action(swap[a.kind], a.vertex) for a in reversed(self.end_at(w2)[:-1])]
        if path:
            self.children[path[-1]].remove(w)
            for node in reversed(path):
                self._remerge(node)
            if self.res[v].value >= top:
                raise ContractError(
                    f"remainder value {self.res[v].value} not below piece value {top}")
            actions.extend(self.sweep(v))
        return actions + tail


def extract(tree: Forest, states: dict[int, NodeState]) -> Strategy:
    """Optimal process strategy from a static run's retained descriptors.

    Only meaningful for the process-number variant: the descriptors must be
    the ones the run computed, and the returned strategy validates to
    exactly the computed process number.
    """
    ex = _Extractor(states)
    actions = ex.sweep(ex.root)
    return Strategy(actions)
