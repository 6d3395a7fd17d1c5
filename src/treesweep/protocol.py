"""Deterministic simulation of the asynchronous leaf-to-root convergecast.

A node stores only what the paper gives it: the descriptor received from
each neighbour and its father pointer; adjacency is read from the tree.
The run keeps exactly that in two maps: `received`, which gives each node
that heard a message its entries in arrival order (a leaf that only sends
gets none), and `father`, from each sender to its father.  A node sends
once and `father[v]` is written at that send, so `father`'s key order is
the sending order; the run keeps no other list of senders.
Execution is organized in peel rounds: every node that currently misses a
message from exactly one neighbour fires during the round, sending its
merged descriptor to that neighbour (its father).  A node misses
`len(adj[v]) - len(received[v])` neighbours, so round one fires the leaves,
and each later round fires the fathers that a send brought down to one, in
a list the round builds as it sends and hands on as the next ready list.
A father brought down to zero has heard from every neighbour: it is the
root, every other node has sent, and the round is the last.  So after the
(n - 1)-th send the list holds at most the root (a star's centre joins it
at one and is heard out in the same round), and nothing is handed on.
The seeded schedule permutes firing order inside a round, which
reorders transcripts without affecting results; a ready list fixed per round
keeps the emergent root, hence every per-node descriptor,
schedule-independent.  The permutation is a Fisher-Yates pass that
`Schedule.order` writes out over `getrandbits`, making the same draws as
`random.Random.shuffle` without its frame or a per-item `_randbelow`
frame; literal goldens pin it to the `getrandbits` stream of a seeded
generator.  When the final two unvisited nodes each miss only the
other, both are root candidates and the larger identifier wins the election;
the loser fires, so exactly n - 1 messages cross the wire in every run.  The
final pair is a ready list of two nodes after n - 2 messages: no edge
carries two messages before the election, so the two nodes yet to fire are
the ends of the one silent edge.  A firing leaf's father is its one
neighbour; any other node scans its adjacency once for the neighbour
missing from its entries.  A node fires once, so the scans visit each edge
at most twice and the run stays linear on any shape, stars included.  No
send of the round gives a node an entry before it fires.

The input must be connected.  A `Forest` is acyclic by construction, so it
is connected exactly when it has n - 1 edges (`Forest.is_connected`); a
plain `Graph`, which may hold cycles, is searched.

A message has one definition, `hop`, which the dynamic forest shares: it
merges the sender's entries, frames the merge through the `codec` module,
has the receiver decode the frame and checks that the receiver's entry
equals the merge.  `hop` is itself a memo: it keeps the frame and entry per
sender's entries, variant and scheme, for this run, the dynamic forest and
the forest's set-up run alike.  It holds at most `hd.MEMO_SIZE` entries,
and a failure is never cached.  It reads no tag: the rule of `hd`, that
only tagged input takes a memo, holds for hops by construction.  A run
stores only its receivers' decodes, which carry the tag, so its encodes
take their memo too; a dynamic forest stores those of its set-up run and
the results of its own hops, and `DynamicForest.check_invariants` reports
any other entry.  So the merge, the receiver's decode and the round-trip
check run once per distinct hop, here and in `dynamic`.  Every message is
still encoded and counted: the sender calls this module's `encode` once
per message, from cold memos or warm ones, for the frame it counts, and a
message costs that bit string's length.  A miss of `hop` frames through
`codec.encode`, not this module's name, so the frames of `encode` are
exactly the run's messages.  The log3 bound is checked on every message.
The run keeps no record per message beyond the stored descriptors.
`RunResult.wires` and `transcript()` render each message on demand from
`father`, in its key order, the stored descriptors and the run's scheme;
its bits come back from the encode memo, which the run filled.

`Schedule` and `RunResult` are `NamedTuple`s, immutable like the
descriptors: `run._replace(...)` gives a changed copy.  `CostCounters` is
a small mutable class, compared and printed by value, that the dynamic
forest adds to in place.  No record of the package is a dataclass:
`dataclasses`, and the `inspect` module it loads, took most of the time of
`import treesweep`.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import NamedTuple

from . import codec
from .codec import KnownSize, Scheme, UnknownSize, decode, encode
from .forest import ArgumentError, Forest
from .hd import (MEMO_SIZE, ContractError, EvalResult, HDescriptor,
                 ParamVariant, evaluate, merge)


def elect_root(u: int, v: int) -> int:
    """Tie break between two root candidates: the largest identifier wins."""
    return u if u > v else v


class CostCounters:
    """Running totals, added to in place; equal when all three are."""

    def __init__(self, messages: int = 0, bits: int = 0, steps: int = 0):
        self.messages = messages
        self.bits = bits
        self.steps = steps

    def __eq__(self, other):
        if type(other) is not CostCounters:
            return NotImplemented
        return ((self.messages, self.bits, self.steps)
                == (other.messages, other.bits, other.steps))

    def __repr__(self) -> str:
        return (f"CostCounters(messages={self.messages!r}, bits={self.bits!r}, "
                f"steps={self.steps!r})")


class Schedule(NamedTuple):
    seed: int = 0

    def order(self, ready: list[int], rng: random.Random) -> list[int]:
        """Permute one peel round; sorting first makes the order depend
        only on the seed, not on how the ready list was collected.

        The permutation is Durstenfeld's Fisher-Yates over
        `rng.getrandbits`, with the draws `random.Random.shuffle` makes:
        for i from the last index down to 1, j takes (i + 1).bit_length()
        bits, redrawn while j > i, and the items at i and j swap.  It is
        written out rather than a call to `shuffle` to save that call's
        frame and one `_randbelow` frame per item, which a path or a
        spider pays once per round of two or three sends."""
        ready = sorted(ready)
        getrandbits = rng.getrandbits
        for i in range(len(ready) - 1, 0, -1):
            k = (i + 1).bit_length()
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            ready[i], ready[j] = ready[j], ready[i]
        return ready


class RunResult(NamedTuple):
    value: int
    root: int
    # per vertex that heard a message, its entries in arrival order
    received: dict[int, dict[int, HDescriptor]]
    father: dict[int, int]  # per sender, in sending order: all but the root
    counters: CostCounters
    evaluation: EvalResult
    scheme: Scheme

    @property
    def wires(self) -> list[tuple[int, int, HDescriptor, str]]:
        """(sender, father, descriptor, bits) per message in sending order,
        rendered from the entries as the run left them."""
        received, scheme = self.received, self.scheme
        out = []
        for v, f in self.father.items():
            hd = received[f][v]
            out.append((v, f, hd, encode(hd, scheme)))
        return out

    def transcript(self) -> str:
        lines = []
        for v, father, _, bits in self.wires:
            lines.append(f"SEND {v}→{father} {bits}")
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


def _hop(kids: tuple[HDescriptor, ...], variant: ParamVariant,
         scheme: Scheme) -> tuple[str, HDescriptor]:
    """One message: the frame of the merge of the sender's entries `kids`,
    and the receiver's entry, its decode of that frame, checked equal to
    the merge.  `hop` is its memo (see the module notes)."""
    hd = merge(kids, variant)
    frame = codec.encode(hd, scheme)
    entry = decode(frame, scheme)
    if entry != hd:
        raise ContractError(f"codec roundtrip broke for {hd}")
    return frame, entry


hop = lru_cache(maxsize=MEMO_SIZE)(_hop)


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
    received: dict[int, dict[int, HDescriptor]] = {}
    father: dict[int, int] = {}
    rng = random.Random(schedule.seed)
    messages = bits = 0
    root: int | None = None

    ready = [v for v, nbrs in adj.items() if len(nbrs) == 1]
    while ready:
        if len(ready) == 2 and messages == n - 2:  # the final pair
            root = elect_root(*ready)
            ready.remove(root)
        brought_to_one = []
        for v in schedule.order(ready, rng):
            heard = received.get(v)
            if heard is None:  # a leaf
                (f,) = adj[v]
                kids = ()
            else:  # the one neighbour it has not heard from
                for f in adj[v]:
                    if f not in heard:
                        break
                kids = tuple(heard.values())
            entry = hop(kids, variant, scheme)[1]
            if len(entry.table) > max_cells:
                raise ContractError(
                    f"table length {len(entry.table)} breaks the log3 bound at node {v}")
            messages += 1
            bits += len(encode(entry, scheme))  # the counted frame
            into = received.get(f)
            if into is None:
                into = received[f] = {}
            into[v] = entry
            father[v] = f
            if len(adj[f]) - len(into) == 1:
                brought_to_one.append(f)
        # after the last send only the root can be on the list, heard out
        ready = brought_to_one if messages < n - 1 else []

    fatherless = [v for v in adj if v not in father]
    if len(fatherless) != 1 or (root is not None and fatherless != [root]):
        raise ContractError(f"peeling left {fatherless} without a father")
    root = fatherless[0]
    root_hd = merge(tuple(received.get(root, {}).values()), variant)
    if len(root_hd.table) > max_cells:
        raise ContractError("root table length breaks the log3 bound")
    result = evaluate(root_hd)
    # one merge per send, and one at the root
    counters = CostCounters(messages, bits, messages + 1)
    return RunResult(result.value, root, received, father, counters, result,
                     scheme)
