"""Deterministic simulation of the asynchronous leaf-to-root convergecast.

A node stores only what the paper gives it: the descriptor received from
each neighbour and its father pointer; adjacency is read from the tree.
Execution is organized in peel rounds: every node that currently misses a
message from exactly one neighbour fires during the round, sending its
merged descriptor to that neighbour (its father).  The peel keeps, per node,
the count of neighbours not heard from yet: round one fires the leaves, and
each later round fires the fathers that a send brought down to a count of
one.  The seeded schedule permutes firing order inside a round, which
reorders transcripts without affecting results; a ready list fixed per round
keeps the emergent root, hence every per-node descriptor,
schedule-independent.  When the final two unvisited nodes each miss only the
other, both are root candidates and the larger identifier wins the election;
the loser fires, so exactly n - 1 messages cross the wire in every run.  The
final pair is a ready list of two nodes after n - 2 messages: no edge
carries two messages before the election, so the two nodes yet to fire are
the ends of the one silent edge.  A firing node reads its father off its
received set, which no send of the round changes before it fires: the one
neighbour missing from it.

The input must be connected.  A `Forest` is acyclic by construction, so it
is connected exactly when it has n - 1 edges (`Forest.is_connected`); a
plain `Graph`, which may hold cycles, is searched.  Descriptors that a
receiver decodes carry the type tag of `hd` and the merge output carries it
too, so every merge and encode of the run takes its memo without re-checking
its input (see `hd`).

Every message is genuinely bit-encoded and decoded by the receiver, so the
codec sits on the hot path and the bit counters measure real frames.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .codec import KnownSize, Scheme, UnknownSize, WireMessage, decode, encode
from .forest import ArgumentError, Forest
from .hd import (ContractError, EvalResult, HDescriptor, ParamVariant,
                 evaluate, merge)


def elect_root(u: int, v: int) -> int:
    """Tie break between two root candidates: the largest identifier wins."""
    return u if u > v else v


@dataclass
class CostCounters:
    messages: int = 0
    bits: int = 0
    steps: int = 0


@dataclass(slots=True)
class NodeState:
    received: dict[int, HDescriptor] = field(default_factory=dict)
    father: int | None = None


@dataclass(frozen=True)
class Schedule:
    seed: int = 0

    def order(self, ready: list[int], rng: random.Random) -> list[int]:
        """Permute one peel round; sorting first makes the order depend
        only on the seed, not on how the ready list was collected."""
        ready = sorted(ready)
        rng.shuffle(ready)
        return ready


@dataclass
class RunResult:
    value: int
    root: int
    states: dict[int, NodeState]
    counters: CostCounters
    evaluation: EvalResult
    wires: list[tuple[int, int, HDescriptor, WireMessage]]  # in sending order

    def transcript(self) -> str:
        lines = []
        for v, father, _, wire in self.wires:
            lines.append(f"SEND {v}→{father} {wire.bits}")
            lines.append(f"VISIT {v}")
        lines.append(f"VISIT {self.root}")
        return "\n".join(lines) + "\n"


def default_scheme(n: int, variant: ParamVariant, encoding: str = "known") -> Scheme:
    if n < 1:
        raise ArgumentError("empty tree")
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
    max_cells = KnownSize.for_tree(n, variant).cells

    adj = tree.adj
    states = {v: NodeState() for v in adj}
    unheard = {v: len(nbrs) for v, nbrs in adj.items()}
    wires: list[tuple[int, int, HDescriptor, WireMessage]] = []
    rng = random.Random(schedule.seed)
    messages = bits = 0
    root: int | None = None

    ready = [v for v, count in unheard.items() if count == 1]
    while ready:
        if len(ready) == 2 and messages == n - 2:  # the final pair
            root = elect_root(*ready)
            ready.remove(root)
        brought_to_one = []
        for v in schedule.order(ready, rng):
            st = states[v]
            received = st.received
            if received:
                (father,) = adj[v] - received.keys()
            else:
                (father,) = adj[v]
            hd = merge(tuple(received.values()), variant)
            if len(hd.table) > max_cells:
                raise ContractError(
                    f"table length {len(hd.table)} breaks the log3 bound at node {v}")
            wire = encode(hd, scheme)
            messages += 1
            bits += len(wire.bits)
            decoded = decode(wire)
            if decoded != hd:
                raise ContractError(f"codec roundtrip broke for {hd}")
            states[father].received[v] = decoded
            st.father = father
            wires.append((v, father, hd, wire))
            left = unheard[father] - 1
            unheard[father] = left
            if left == 1:
                brought_to_one.append(father)
        # a later send of the same round may bring a father on to zero: the root
        ready = [f for f in brought_to_one if unheard[f] == 1]

    fatherless = [v for v, st in states.items() if st.father is None]
    if len(fatherless) != 1 or (root is not None and fatherless != [root]):
        raise ContractError(f"peeling left {fatherless} without a father")
    root = fatherless[0]
    root_hd = merge(tuple(states[root].received.values()), variant)
    if len(root_hd.table) > max_cells:
        raise ContractError("root table length breaks the log3 bound")
    result = evaluate(root_hd)
    # one merge per send, and one at the root
    counters = CostCounters(messages, bits, messages + 1)
    return RunResult(result.value, root, states, counters, result, wires)
