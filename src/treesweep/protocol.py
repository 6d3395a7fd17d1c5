"""Deterministic simulation of the asynchronous leaf-to-root convergecast.

Execution is organized in peel rounds: every node that currently misses a
message from exactly one neighbour fires during the round, sending its
merged descriptor to that neighbour (its father).  The seeded schedule
permutes firing order inside a round, which reorders transcripts without
affecting results; the round snapshot keeps the emergent root, hence every
per-node descriptor, schedule-independent.  When the final two unvisited
nodes each miss only the other, both are root candidates and the larger
identifier wins the election; the loser fires, so exactly n - 1 messages
cross the wire in every run.

Every message is genuinely bit-encoded and decoded by the receiver, so the
codec sits on the hot path and the bit counters measure real frames.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .codec import KnownSize, Scheme, UnknownSize, WireMessage, decode, encode
from .forest import ArgumentError, Forest
from .hd import (ContractError, EvalResult, HDescriptor, ParamVariant,
                 ceil_log3, evaluate, merge)


def elect_root(u: int, v: int) -> int:
    """Tie break between two root candidates: the largest identifier wins."""
    return u if u > v else v


@dataclass
class CostCounters:
    messages: int = 0
    bits: int = 0
    steps: int = 0

    def add_message(self, wire: WireMessage) -> None:
        self.messages += 1
        self.bits += len(wire)


@dataclass
class NodeState:
    neighbours: set[int]
    received: dict[int, HDescriptor] = field(default_factory=dict)
    father: int | None = None
    visited: bool = False

    def unheard(self) -> set[int]:
        return set(self.neighbours) - set(self.received)


@dataclass(frozen=True)
class Schedule:
    seed: int = 0
    policy: str = "fifo"  # "fifo" orders rounds by id, "shuffle" permutes per round

    def order(self, ready: list[int], rng: random.Random) -> list[int]:
        ready = sorted(ready)
        if self.policy == "shuffle":
            rng.shuffle(ready)
        elif self.policy != "fifo":
            raise ArgumentError(f"unknown schedule policy {self.policy!r}")
        return ready


@dataclass
class RunResult:
    value: int
    root: int
    states: dict[int, NodeState]
    counters: CostCounters
    evaluation: EvalResult
    root_hd: HDescriptor
    wires: list[tuple[int, int, HDescriptor, WireMessage]]  # in sending order

    def transcript(self) -> str:
        lines = []
        for v, father, _, wire in self.wires:
            lines.append(f"SEND {v}→{father} {wire.bits}")
            lines.append(f"VISIT {v}")
        lines.append(f"VISIT {self.root}")
        return "\n".join(lines) + "\n"


def default_scheme(n: int, variant: ParamVariant, encoding: str = "known") -> Scheme:
    if encoding == "known":
        return KnownSize.for_tree(n, variant)
    if encoding == "unknown":
        return UnknownSize()
    raise ArgumentError(f"unknown encoding {encoding!r}")


def run_static(tree: Forest, variant: ParamVariant = ParamVariant.PROCESS_NUMBER,
               scheme: Scheme | None = None,
               schedule: Schedule = Schedule()) -> RunResult:
    """Run the convergecast on a single tree and evaluate at the root."""
    if tree.n < 1:
        raise ArgumentError("empty tree")
    if not tree.is_connected():
        raise ArgumentError("tree is disconnected; use the dynamic module for forests")
    n = tree.n
    if scheme is None:
        scheme = default_scheme(n, variant)
    max_cells = ceil_log3(n) + (1 if variant is ParamVariant.NODE_SEARCH else 0)

    states = {v: NodeState(set(tree.neighbours(v))) for v in tree.vertices}
    counters = CostCounters()
    wires: list[tuple[int, int, HDescriptor, WireMessage]] = []
    rng = random.Random(schedule.seed)
    root: int | None = None

    while True:
        ready = [v for v, st in states.items()
                 if not st.visited and v != root and len(st.unheard()) == 1]
        if not ready:
            break
        if root is None:
            pairs = [(v, next(iter(states[v].unheard()))) for v in ready]
            targets = dict(pairs)
            for v, f in pairs:
                if targets.get(f) == v:
                    root = elect_root(v, f)
                    ready = [u for u in ready if u != root]
                    break
        for v in schedule.order(ready, rng):
            st = states[v]
            father = next(iter(st.unheard()))
            hd = merge(list(st.received.values()), variant)
            counters.steps += 1
            if hd.length > max_cells:
                raise ContractError(
                    f"table length {hd.length} breaks the log3 bound at node {v}")
            wire = encode(hd, scheme)
            counters.add_message(wire)
            decoded = decode(wire)
            if decoded != hd:
                raise ContractError(f"codec roundtrip broke for {hd}")
            states[father].received[v] = decoded
            st.father = father
            st.visited = True
            wires.append((v, father, hd, wire))

    unvisited = [v for v, st in states.items() if not st.visited]
    if len(unvisited) != 1 or (root is not None and unvisited != [root]):
        raise ContractError(f"peeling left {unvisited} unvisited")
    root = unvisited[0]
    root_hd = merge(list(states[root].received.values()), variant)
    counters.steps += 1
    if root_hd.length > max_cells:
        raise ContractError("root table length breaks the log3 bound")
    result = evaluate(root_hd)
    return RunResult(result.value, root, states, counters, result, root_hd, wires)
