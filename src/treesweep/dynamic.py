"""Dynamic forest maintenance: change-root, edge addition/deletion, and the
incremental builder that grows a forest edge by edge from isolated vertices.

Each node permanently stores the descriptor received from every neighbour
except its father, which is exactly the state the change-root walk needs:
the old root drops the entry toward the new root, re-merges, and the
corrected descriptors ripple down the path while father pointers flip.
It is kept as a static run keeps it, in two maps, `received` and `father`;
every vertex is a key in both, with an empty dict when it holds no entry
and None at a root.
Adjacency lives in `forest` alone.  Edge addition inserts into it first, so
the forest's own cycle check rejects a bad edge before any reroot, message
or counter change.
Edge addition has one path: reroot w1's tree at w1, hang w1 under w2, and
push replacement entries up from w1 until one is unchanged or the root is
reached.  Paper mode also reroots at w2 first and hangs the loser of
`elect_root`, so its push ends at once; `early_stop` keeps w2's root.
Every dynamic message is a flag bit followed by a codec frame: 0 and the
frame of a replacement entry, or 1 and the frame of the empty descriptor
for a change-root notification (`codec.empty_frame`).  This module alone
knows the flag; it costs one bit per message, and the receiver never
reads it back, so it is counted and never built.  Every replace entry is
sent by one loop, `_push`: it follows father pointers from a node, and at
each hop merges the sender's received entries, encodes, and stores the
receiver's decode.  It adds the walk's messages, bits and steps to
`counters` once, the flag bits with them, as `_notify` counts a walk of h
hops as h copies of its one notification.  `change_root` flips the father
pointers on its way up, dropping each path node's entry from its child,
then pushes from the old root down to the new one; `add_edge` pushes from
w1, stopping where a receiver already holds the descriptor (never at the
first hop: w2 has no entry from w1 yet).  A root's value is read off the
`MergeInfo` of its memoised merge, one step, without evaluating the
descriptor again.

A hop is one lookup.  It is the static run's message, `protocol.hop`: it
maps the sender's ordered entries, the variant and the scheme to the
frame of their merge and the receiver's entry, its decode of that frame,
which a miss checks equals the merge.  So the receiver's decode and the
round-trip check run once per distinct hop, while every replace message
is counted from its frame.  The set-up run of `from_tree` is in the
forest's scheme, so its hops fill the memo entries that the forest's
later hops read.  The rule of `hd` holds: the hop takes its memo only when
every entry carries the `hd._Minimal` tag; any other input is computed
afresh and gets its exact result or error, and a failure is never
cached.  A hit runs no merge, encode or decode: the hop is counted from
its cached frame.  The early stop compares the receiver's
entry with the one it would store before anything is counted.

A query walks no father chain.  Each tree of two or more vertices has one
shared `TreeRecord`, holding its root alone, and `record_of` maps each of
its vertices to it; an isolated vertex has no record and is its own root.
So `value_of` reads the vertex's record and the value held at its root in
`roots`, two dict reads; only a vertex with no record goes through
`root_of`, which answers the vertex itself or, for an absent one, its
error.  The records are local bookkeeping,
not messages.  One rule relabels: the side that the lockstep search
`Graph.exhausted_side` runs out of first moves (Even and Shiloach, "An
on-line edge-deletion problem", J. ACM 1981).  `add_edge` moves the side
that `Forest.add_edge` returns from its cycle check into the other
endpoint's record; `delete_edge` moves the side it finds on the cut to a
new record.  An endpoint left with degree 0 keeps no record.  The moved
side is at most about half of the tree (when one side runs out, the
other has scanned about as many entries), so a search costs
O(min(|A|, |B|)) and additions relabel each vertex O(log n) times.

`TreeRecord` is a small mutable class with `__slots__`, compared by root;
`DynamicForest` is a plain class, compared by identity.
"""

from __future__ import annotations

from .codec import Scheme, empty_frame
from .codec import decode, encode  # noqa: F401  (perfbench/tracer.py patches both)
from .forest import ArgumentError, Forest, GraphError
from .hd import HDescriptor, ParamVariant, evaluate, merge, merge_detailed
from .protocol import CostCounters, default_scheme, elect_root, hop, run_static


class TreeRecord:
    """The root of one tree of two or more vertices, compared by root."""

    __slots__ = ("root",)

    def __init__(self, root: int):
        self.root = root

    def __eq__(self, other):
        if type(other) is not TreeRecord:
            return NotImplemented
        return self.root == other.root

    def __repr__(self) -> str:
        return f"TreeRecord(root={self.root!r})"


class DynamicForest:
    def __init__(self, forest: Forest, variant: ParamVariant, scheme: Scheme,
                 received: dict[int, dict[int, HDescriptor]],
                 father: dict[int, int | None],
                 roots: dict[int, int] | None = None, early_stop: bool = False):
        self.forest = forest
        self.variant = variant
        self.scheme = scheme
        self.received = received
        self.father = father
        self.roots = {} if roots is None else roots
        self.record_of: dict[int, TreeRecord] = {}
        self.counters = CostCounters()
        self.early_stop = early_stop

    # -- construction ------------------------------------------------------

    @classmethod
    def isolated(cls, n: int, variant: ParamVariant = ParamVariant.PROCESS_NUMBER,
                 encoding: str = "known", early_stop: bool = False) -> "DynamicForest":
        if n < 1:
            raise ArgumentError("need at least one vertex")
        scheme = default_scheme(n, variant, encoding)
        forest = Forest(range(n))
        base = evaluate(merge([], variant)).value
        return cls(forest, variant, scheme, {v: {} for v in range(n)},
                   dict.fromkeys(range(n)), dict.fromkeys(range(n), base),
                   early_stop=early_stop)

    @classmethod
    def from_tree(cls, tree: Forest, variant: ParamVariant = ParamVariant.PROCESS_NUMBER,
                  encoding: str = "known", early_stop: bool = False) -> "DynamicForest":
        """Adopt the entries and fathers left behind by a static run in the
        forest's own scheme: its two maps, with an empty dict for each
        vertex that heard nothing and None at the root.  The set-up
        messages are not counted: `counters` start at zero."""
        scheme = default_scheme(tree.n, variant, encoding)
        run = run_static(tree, variant, scheme)
        received, father = run.received, run.father
        received.update((v, {}) for v in tree.adj if v not in received)
        father[run.root] = None
        df = cls(tree.copy(), variant, scheme, received, father, early_stop=early_stop)
        df.roots[run.root] = run.value
        if tree.n > 1:
            df.record_of = dict.fromkeys(tree.vertices, TreeRecord(run.root))
        return df

    # -- queries -----------------------------------------------------------

    def root_of(self, v: int) -> int:
        record = self.record_of.get(v)
        if record is not None:
            return record.root
        if v not in self.father:
            raise ArgumentError(f"vertex {v} not in forest")
        return v

    def value_of(self, v: int) -> int:
        """The value held at the root of v's tree, read off v's record and
        `roots` without calling `root_of`; only a vertex with no record,
        isolated or absent, goes through it."""
        record = self.record_of.get(v)
        if record is not None:
            return self.roots[record.root]
        return self.roots[self.root_of(v)]

    # -- messaging ---------------------------------------------------------

    def _notify(self, hops: int) -> None:
        payload = empty_frame(self.scheme)
        self.counters.messages += hops
        self.counters.bits += hops * (1 + len(payload))  # flag 1, then payload

    def _push(self, node: int, stop_when_unchanged: bool) -> int | None:
        """Send replace entries up the father chain from `node`: each hop
        merges the sender's received entries, encodes, and stores the
        receiver's decode, all in one `hop`.  Returns the root reached, or
        None once a receiver already holds the descriptor
        (`stop_when_unchanged`)."""
        received, father_of = self.received, self.father
        variant, scheme = self.variant, self.scheme
        messages = bits = steps = 0
        entries = received[node]  # the sender's; each receiver's is the next sender's
        while (father := father_of[node]) is not None:
            frame, entry = hop(tuple(entries.values()), variant, scheme)
            steps += 1
            entries = received[father]
            if stop_when_unchanged and entries.get(node) == entry:
                node = None  # nothing upstream can change
                break
            messages += 1
            bits += len(frame)
            entries[node] = entry
            node = father
        counters = self.counters
        counters.messages += messages
        counters.bits += bits + messages  # each frame behind its flag bit 0
        counters.steps += steps
        return node

    def _root_value(self, v: int) -> int:
        """The value at root v, read off the memoised merge's result."""
        info = merge_detailed(self.received[v].values(), self.variant)[1]
        self.counters.steps += 1
        return info.result.value

    # -- operations ----------------------------------------------------------

    def change_root(self, r2: int) -> None:
        """Move the component root to r2 along the father chain; 2*dist
        messages (the notification walk up, the corrected wave down)."""
        if r2 not in self.father:
            raise ArgumentError(f"vertex {r2} not in forest")
        received, father_of = self.received, self.father
        hops, child, node = 0, None, r2
        while (father := father_of[node]) is not None:
            del received[father][node]
            father_of[node] = child
            hops, child, node = hops + 1, node, father
        if child is None:
            return
        father_of[node] = child
        self._notify(hops)
        self._push(node, False)
        self.record_of[r2].root = r2
        del self.roots[node]
        self.roots[r2] = self._root_value(r2)

    def add_edge(self, w1: int, w2: int) -> None:
        """Hang w1's tree, rerooted at w1, under w2 (see the module notes);
        unless `early_stop`, also reroot at w2 and let `elect_root` pick
        which endpoint hangs."""
        if w1 not in self.father or w2 not in self.father:
            raise ArgumentError(f"unknown vertex in edge ({w1}, {w2})")
        side = self.forest.add_edge(w1, w2)  # rejects a cycle before any change
        self.change_root(w1)
        if not self.early_stop:
            self.change_root(w2)
            if elect_root(w1, w2) == w1:
                w1, w2 = w2, w1
        self.father[w1] = w2
        del self.roots[w1]
        self._join(side, w1, w2)
        root = self._push(w1, True)
        if root is not None:
            self.roots[root] = self._root_value(root)

    def delete_edge(self, w1: int, w2: int) -> None:
        if not self.forest.has_edge(w1, w2):
            raise ArgumentError(f"edge ({w1}, {w2}) does not exist")
        if self.father[w1] == w2:
            child, father = w1, w2
        elif self.father[w2] == w1:
            child, father = w2, w1
        else:
            raise ArgumentError(f"edge ({w1}, {w2}) is not a father link")
        self.forest.remove_edge(child, father)
        self._split(child, father)
        del self.received[father][child]
        self.father[child] = None
        self.roots[child] = self._root_value(child)

        if self.father[father] is None:
            self.roots[father] = self._root_value(father)
        else:
            self.change_root(father)

    # -- tree records ----------------------------------------------------------

    def _join(self, side: set[int], w1: int, w2: int) -> None:
        """Give the tree just made by hanging w1 under w2 one record, rooted
        at w2's root: `side`, the old tree of one endpoint, moves into the
        other endpoint's record, made new if that endpoint was isolated."""
        record_of = self.record_of
        root = self.root_of(w2)
        other = w2 if w1 in side else w1
        record = record_of.setdefault(other, TreeRecord(root))
        record.root = root
        for v in side:
            record_of[v] = record

    def _split(self, child: int, father: int) -> None:
        """Split the record of the tree that just lost the edge child-father.
        The side the lockstep search exhausts first moves to a new record;
        the child's side is rooted at child, the father's keeps the old
        root.  A side of one vertex is left with no record."""
        record_of = self.record_of
        record = record_of[child]
        side = self.forest.exhausted_side(child, father)
        if child in side:
            moved = TreeRecord(child)
        else:
            moved = TreeRecord(record.root)
            record.root = child
        for v in side:
            record_of[v] = moved
        for w in (child, father):
            if self.forest.degree(w) == 0:
                del record_of[w]

    # -- consistency ---------------------------------------------------------

    def check_invariants(self) -> None:
        if self.received.keys() != self.father.keys():
            raise AssertionError("received and father maps hold different vertices")
        root_count = 0
        for v, father in self.father.items():
            entries = self.received[v]
            if set(entries) != self.forest.neighbours(v) - {father}:
                raise AssertionError(f"received set drift at {v}")
            if father is None:
                root_count += 1
                if v not in self.roots:
                    raise AssertionError(f"untracked root {v}")
                fresh = evaluate(merge(list(entries.values()), self.variant)).value
                if self.roots[v] != fresh:
                    raise AssertionError(f"stale value at root {v}")
        if root_count != len(self.roots):
            raise AssertionError("root bookkeeping drift")
        self._check_records()

    def _check_records(self) -> None:
        """Every record against the father chains, in O(n) in all: each
        chain is walked once, and every vertex on it remembers its root."""
        chain_root: dict[int, int] = {}
        for v in self.father:
            path = []
            while v not in chain_root:
                father = self.father[v]
                if father is None:
                    chain_root[v] = v
                elif len(path) == len(self.father):
                    raise AssertionError(f"father chain through {v} is a cycle")
                else:
                    path.append(v)
                    v = father
            for u in path:
                chain_root[u] = chain_root[v]
        by_root: dict[int, TreeRecord] = {}
        for v, root in chain_root.items():
            record = self.record_of.get(v)
            if (record is None) != (self.forest.degree(v) == 0):
                raise AssertionError(f"record presence at {v} disagrees with its degree")
            if record is None:
                continue
            if record.root != root:
                raise AssertionError(f"record drift at {v}")
            if by_root.setdefault(root, record) is not record:
                raise AssertionError(f"two records for the tree of root {root}")


def inc_build(edges: list[tuple[int, int]], n: int,
              variant: ParamVariant = ParamVariant.PROCESS_NUMBER,
              encoding: str = "known", early_stop: bool = False) -> DynamicForest:
    """Insert tree edges one by one starting from n isolated vertices."""
    df = DynamicForest.isolated(n, variant, encoding, early_stop)
    for u, v in edges:
        df.add_edge(u, v)
    return df


def run_script(text: str, variant: ParamVariant = ParamVariant.PROCESS_NUMBER,
               encoding: str = "known") -> tuple[list[str], DynamicForest]:
    """Execute a dynamic script: lines "add u v", "del u v", "query u",
    "reroot u", on a forest of max id + 1 vertices.  Returns the printed
    query lines and the final forest.  The ids are read before any line
    runs, so a bad integer or a negative id anywhere is reported first,
    then a script whose command lines name no vertex, at its first line;
    every `GraphError` a line raises when it runs is re-raised as the same
    class with its message prefixed by "line N: "."""
    lines = []
    n = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        ids = []
        if parts[0] in ("add", "del", "query", "reroot"):
            try:
                ids = [int(x) for x in parts[1:]]
            except ValueError:
                raise ArgumentError(f"line {lineno}: bad integer in {raw!r}") from None
            if min(ids, default=0) < 0:
                raise ArgumentError(f"line {lineno}: negative vertex id in {raw!r}")
            n = max([n] + [v + 1 for v in ids])
        lines.append((lineno, raw, parts[0], ids))
    if n == 0:
        if lines:  # each command needs a vertex, so the first line is bad
            lineno, raw = lines[0][:2]
            raise ArgumentError(f"line {lineno}: bad command {raw!r}")
        raise ArgumentError("script names no vertices")

    df = DynamicForest.isolated(n, variant, encoding)
    out: list[str] = []
    for lineno, raw, command, ids in lines:
        try:
            if command == "add" and len(ids) == 2:
                df.add_edge(*ids)
            elif command == "del" and len(ids) == 2:
                df.delete_edge(*ids)
            elif command == "query" and len(ids) == 1:
                out.append(f"query {ids[0]} value={df.value_of(ids[0])}")
            elif command == "reroot" and len(ids) == 1:
                df.change_root(ids[0])
            else:
                raise ArgumentError(f"bad command {raw!r}")
        except GraphError as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
    return out, df
