"""Undirected forests and trees: data model, parsing, generators, enumeration.

Vertices are dense non-negative integers so that identifier comparison
doubles as the total order used for root election.  `Graph` allows cycles
(it exists as oracle input; the cycles and grids the tests feed the
oracles are built in the tests); `Forest` rejects any cycle-creating
insertion at the model layer.  Three kinds of traffic insert edges, each
through one path:

- A forest's edge list known up front (the `Forest` constructor, and so
  every generator and `induced`; `parse_edge_list`; `prufer_to_tree`)
  goes through `_build`, one loop that links an edge with an end that has
  no edge yet by one parent store, and asks a union-find local to the call
  only for an edge whose ends both have edges: plain parent pointers with
  path halving, O(log n) amortised per lookup (Tarjan and van Leeuwen,
  J. ACM 1984).  So a build, a parse or a Pruefer decode takes O(n log n)
  time at worst, and linear time when every edge brings in a vertex.
- Incremental insertion into a forest (`DynamicForest`) goes through
  `Forest.add_edge`, the model's only `add_edge`, whose cycle check
  `exhausted_side` searches from both endpoints in lockstep and returns
  the side it exhausts first, for `DynamicForest` to relabel:
  O(min(|A|, |B|)) for the components A and B it joins, so O(n log n)
  for any tree in any edge order.  A search, not a union-find, because
  `DynamicForest.delete_edge` also deletes edges (and searches the cut
  the same way); a union cannot be undone.
- A `Graph`'s edges, which may close cycles, go through `Graph._join`
  from the `Graph` constructor.

The two forest paths raise the same `StructureError`s in the same order:
a self-loop, a duplicate, then a cycle (`Graph._join` the first two).
The constructors and `Forest.add_edge` check each endpoint's id first,
u then v, with `add_vertex`.

`parse_edge_list` feeds `_build` by one of two routes, chosen from the
text itself.  Text in exactly `serialize`'s form (an optional "n <count>"
line, then "u v" lines of ASCII digits, one space and a newline: every
file `serialize` and `treesweep gen` write) is checked whole, then split
and converted by C-level `str.split` and `map(int, ...)` over chunks of
whole lines.  Every other text goes through the line loop, and so does
any the bulk route cannot finish.  Only the line loop words parse errors,
so an error reads the same whatever the route.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from itertools import chain
from typing import Iterable, Iterator


class GraphError(Exception):
    """Base class for structural and parse errors."""


class ParseError(GraphError):
    pass


class StructureError(GraphError):
    pass


class ArgumentError(GraphError):
    pass


class Graph:
    """Undirected graph with symmetric adjacency, no self-loops, no parallel edges."""

    __slots__ = ("adj",)

    def __init__(self, vertices: Iterable[int] = (), edges: Iterable[tuple[int, int]] = ()):
        self.adj: dict[int, set[int]] = {}
        for v in vertices:
            self.add_vertex(v)
        for u, v in self._checked(edges):
            self._join(u, v)

    def _checked(self, edges: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int]]:
        """Yield each edge once `add_vertex` has checked and created u, then
        v, so a bad id is reported before a self-loop."""
        add_vertex = self.add_vertex
        for u, v in edges:
            add_vertex(u)
            add_vertex(v)
            yield u, v

    @property
    def n(self) -> int:
        return len(self.adj)

    @property
    def vertices(self):
        return self.adj.keys()

    def neighbours(self, v: int) -> set[int]:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def add_vertex(self, v: int) -> None:
        if not isinstance(v, int) or v < 0:
            raise StructureError(f"vertex ids must be non-negative integers, got {v!r}")
        if v not in self.adj:
            self.adj[v] = set()

    def has_edge(self, u: int, v: int) -> bool:
        return u in self.adj and v in self.adj[u]

    def _join(self, u: int, v: int) -> None:
        """Link u and v, which are vertices unless u == v."""
        if u == v:
            raise StructureError(f"self-loop at vertex {u}")
        if v in self.adj[u]:
            raise StructureError(f"duplicate edge ({u}, {v})")
        self.adj[u].add(v)
        self.adj[v].add(u)

    def remove_edge(self, u: int, v: int) -> None:
        if not self.has_edge(u, v):
            raise ArgumentError(f"edge ({u}, {v}) does not exist")
        self.adj[u].discard(v)
        self.adj[v].discard(u)

    def edges(self) -> list[tuple[int, int]]:
        return sorted((u, v) for u in self.adj for v in self.adj[u] if u < v)

    def m(self) -> int:
        return sum(map(len, self.adj.values())) // 2

    def copy(self) -> "Graph":
        g = type(self).__new__(type(self))
        g.adj = {v: set(s) for v, s in self.adj.items()}
        return g

    def component_of(self, v: int) -> set[int]:
        seen = {v}
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for w in self.adj[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return seen

    def components(self) -> list[set[int]]:
        remaining = set(self.adj)
        out = []
        while remaining:
            comp = self.component_of(next(iter(remaining)))
            out.append(comp)
            remaining -= comp
        return out

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.component_of(next(iter(self.adj)))) == self.n

    def exhausted_side(self, u: int, v: int) -> set[int] | None:
        """The component of u or of v that a lockstep search exhausts first,
        or None if u and v lie in one component.

        Two breadth-first searches, one from each end, take turns one
        adjacency entry at a time; the answer is None as soon as one side
        reaches a vertex the other side has seen, and the vertices seen by
        a side as soon as it runs out.  A query therefore costs
        O(min(|A|, |B|)) for the components A and B holding u and v, sizes
        counting vertices and edges (in a forest, vertices alone).  Stepping
        by entry rather than by vertex keeps that bound when the larger side
        starts at a hub: building a star centre-first stays linear.  It is a
        search rather than a union-find because `Graph.remove_edge` splits
        components and a union cannot be undone.  `Forest.add_edge` and
        `DynamicForest.delete_edge` run it.  Bulk builds, which never
        remove an edge, use the union-find in `_build` instead.
        """
        if u == v:
            return None
        seen = ({u}, {v})
        pending = (deque([iter(self.adj[u])]), deque([iter(self.adj[v])]))
        side = 0
        while pending[side]:
            w = next(pending[side][0], None)
            if w is None:
                pending[side].popleft()
            elif w in seen[1 - side]:
                return None
            elif w not in seen[side]:
                seen[side].add(w)
                pending[side].append(iter(self.adj[w]))
            side = 1 - side
        return seen[side]

    def induced(self, keep: Iterable[int]) -> "Graph":
        """The subgraph on `keep`, of the same kind as this graph."""
        keep = set(keep)
        return type(self)(keep, self._edges_within(keep))

    def _edges_within(self, keep: set[int]) -> Iterator[tuple[int, int]]:
        for u in keep:
            for v in self.adj[u]:
                if v in keep and u < v:
                    yield u, v

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.adj == other.adj

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, edges={self.edges()})"


class Forest(Graph):
    """Graph whose every component is a tree."""

    __slots__ = ()

    def __init__(self, vertices: Iterable[int] = (), edges: Iterable[tuple[int, int]] = ()):
        super().__init__(vertices)
        _build(self, self._checked(edges))

    def add_edge(self, u: int, v: int) -> set[int]:
        """Link u and v; return the side their cycle check exhausted first."""
        self.add_vertex(u)
        self.add_vertex(v)
        side = None
        if u != v and not self.has_edge(u, v):
            side = self.exhausted_side(u, v)
            if side is None:
                raise StructureError(f"edge ({u}, {v}) would create a cycle")
        self._join(u, v)
        return side

    def is_connected(self) -> bool:
        """No search needed: a forest is acyclic by construction, so it is
        connected exactly when it has n - 1 edges."""
        return self.n <= 1 or self.m() == self.n - 1

    def is_tree(self) -> bool:
        return self.n >= 1 and self.is_connected()


def _build(forest: Forest, edges: Iterable[tuple[int, int]]) -> Forest:
    """Insert a stream of edges, in order, into `forest`, which has no edges.

    The one path for a forest's edge list known up front: a loop that
    accepts and rejects exactly what `Forest.add_edge` would, with the same
    errors.  For each edge uv it creates u, then v, if absent; raises for a
    self-loop, then a duplicate, then a cycle; then adds v to u's
    neighbours and u to v's, so the vertex order of `adj` and the order of
    every neighbour set are those of `add_edge`.
    An edge with an end that has no edge yet can close no cycle: that end,
    a set of its own, hangs below the other end by one parent store.  Only
    an edge whose ends both have edges asks for their roots, in a
    union-find that lives only for this call (a build never removes an
    edge, so no union needs undoing): plain parent pointers with path
    halving, O(log n) amortised per lookup (Tarjan and van Leeuwen,
    "Worst-case analysis of set union algorithms", J. ACM 1984).  An edge
    list in which every edge brings in a vertex, as a parent-first one
    does, makes no lookup at all.  Endpoints are trusted to be
    non-negative ints: the parser's line loop checks each token and its
    bulk route the text's form (runs of ASCII digits), `prufer_to_tree`
    checks its sequence, and the `Forest` constructor passes each edge
    through `Graph._checked`.  The stream may add vertices to `forest`
    between edges.
    """
    adj = forest.adj
    adj_get = adj.get
    # disjoint sets of vertex ids: a vertex maps to its parent, and a root
    # is never stored
    up: dict[int, int] = {}
    up_get = up.get
    for u, v in edges:
        u_nbrs = adj_get(u)
        if u_nbrs is None:
            u_nbrs = adj[u] = set()
        v_nbrs = adj_get(v)
        if v_nbrs is None:
            v_nbrs = adj[v] = set()
        if u == v:
            raise StructureError(f"self-loop at vertex {u}")
        if not v_nbrs:
            up[v] = u
        elif not u_nbrs:
            up[u] = v
        else:
            if v in u_nbrs:
                raise StructureError(f"duplicate edge ({u}, {v})")
            # the roots of u and v, halving both paths
            ru, p = u, up_get(u)
            while p is not None:
                g = up_get(p)
                if g is None:
                    ru = p
                    break
                up[ru] = g
                ru, p = g, up_get(g)
            rv, p = v, up_get(v)
            while p is not None:
                g = up_get(p)
                if g is None:
                    rv = p
                    break
                up[rv] = g
                rv, p = g, up_get(g)
            if ru == rv:
                raise StructureError(f"edge ({u}, {v}) would create a cycle")
            up[ru] = rv
        u_nbrs.add(v)
        v_nbrs.add(u)
    return forest


# a `str.translate` table that deletes the ASCII digits
_NO_DIGITS = dict.fromkeys(range(ord("0"), ord("9") + 1))

# the bulk route tokenises at most this many characters at a time
_CHUNK = 1 << 16


def parse_edge_list(text: str) -> Forest:
    """Parse the flat edge-list format: optional "n <count>" line, "u v" lines.

    Blank lines and "#" comments are ignored.  Lines are read in order and the
    first bad one raises: a malformed line a ParseError, a self-loop,
    duplicate or cycle-creating edge a StructureError naming the edge, both
    prefixed by "line N: ".  O(n log n) in the input at worst, linear when
    every line brings in a vertex (see `_build`).

    Text in exactly `serialize`'s form, as every file `serialize` and
    `treesweep gen` write, takes a bulk route: a check of the whole text's
    form, then C-level `split` and `int` over bounded chunks of it, feeding
    `_build`.  Any other text (comments, blank lines, CRLF, tabs, signs,
    Unicode digits) takes the line loop, and so does text the bulk route
    cannot finish: `_build` raises, or `int` refuses a count or an endpoint
    with more digits than `sys.get_int_max_str_digits()`.  Only the line
    loop words errors, so they are the same whatever the route.
    """
    start = _serialized_start(text)
    if start >= 0:
        try:
            return _parse_serialized(text, start)
        except (StructureError, ValueError):
            pass  # the line loop finds the same line and words its error
    return _parse_lines(text)


def _serialized_start(text: str) -> int:
    """Where the "u v" lines of `text` begin if it has `serialize`'s form,
    else -1.

    The form is an optional "n <count>" line, then "u v" lines, each two
    runs of ASCII digits, one space and a newline.  So without its digits
    the text reads "n \\n" if it has the count line, then " \\n" once per
    edge line; and no line starts or ends with its space, so no run is empty.
    """
    if text and (text[-1] != "\n" or text[0] == " " or " \n" in text or "\n " in text):
        return -1
    start = text.index("\n") + 1 if text.startswith("n ") else 0
    shape = ("n \n" if start else "") + " \n" * text.count("\n", start)
    return start if text.translate(_NO_DIGITS) == shape else -1


def _parse_serialized(text: str, start: int) -> Forest:
    """The bulk route of `parse_edge_list`, for text in `serialize`'s form
    whose "u v" lines begin at `start`."""
    forest = Forest()
    if start:
        adj = forest.adj  # filled in place: a subclass may hold its own mapping
        for v in range(int(text[2:start - 1])):
            adj[v] = set()
    return _build(forest, chain.from_iterable(_serialized_pairs(text, start)))


def _serialized_pairs(text: str, start: int) -> Iterator[Iterator[tuple[int, int]]]:
    """The endpoint pairs of the "u v" lines from `start` on, one iterator
    per chunk of whole lines, so no token list spans the text."""
    end = len(text)
    while start < end:
        stop = text.find("\n", start + _CHUNK) + 1 or end
        ids = map(int, text[start:stop].split())
        yield zip(ids, ids)
        start = stop


def _parse_lines(text: str) -> Forest:
    """The line loop of `parse_edge_list`: every input, every error."""
    forest = Forest()
    adj = forest.adj
    lineno = 0

    def edges():
        nonlocal lineno
        declared = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            parts = (raw.split("#", 1)[0] if "#" in raw else raw).split()
            if not parts:
                continue
            if parts[0] == "n":
                if declared is not None or len(parts) != 2:
                    raise ParseError(f"line {lineno}: bad vertex-count line {raw!r}")
                try:
                    declared = int(parts[1])
                except ValueError:
                    raise ParseError(f"line {lineno}: bad vertex count {parts[1]!r}") from None
                if declared < 0:
                    raise ParseError(f"line {lineno}: negative vertex count")
                for v in range(declared):
                    if v not in adj:
                        adj[v] = set()
                continue
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 'u v', got {raw!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer endpoint in {raw!r}") from None
            if u < 0 or v < 0:
                raise ParseError(f"line {lineno}: negative vertex id in {raw!r}")
            yield u, v

    try:
        return _build(forest, edges())
    except StructureError as exc:  # raised for the edge last yielded, on line lineno
        raise StructureError(f"line {lineno}: {exc}") from None


def serialize(forest: Graph) -> str:
    """Inverse of parse_edge_list: "n <k>" then sorted "u v" lines, u < v.

    k counts the dense prefix 0..k-1 of the vertex set, which the "n" line
    declares; every other vertex is named by its edges.  An isolated vertex
    outside the prefix has no such form and raises ArgumentError.
    """
    k = 0
    while k in forest.adj:
        k += 1
    for v, nbrs in forest.adj.items():
        if v > k and not nbrs:
            raise ArgumentError(f"isolated vertex {v} has no edge-list form: "
                                f"the 'n' line declares only ids below {k}")
    lines = [f"n {k}"]
    lines.extend(f"{u} {v}" for u, v in forest.edges())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# generators


def path_tree(k: int) -> Forest:
    if k < 1:
        raise ArgumentError(f"path needs at least 1 vertex, got {k}")
    return Forest(range(k), [(i, i + 1) for i in range(k - 1)])


def star_tree(k: int) -> Forest:
    """Star K_{1,k}: center 0 and k leaves."""
    if k < 1:
        raise ArgumentError(f"star needs at least 1 leaf, got {k}")
    return Forest(range(k + 1), [(0, i) for i in range(1, k + 1)])


def spider_tree(l1: int, l2: int, l3: int) -> Forest:
    """Three legs of the given lengths glued at center 0."""
    if min(l1, l2, l3) < 1:
        raise ArgumentError("spider legs must have length >= 1")
    edges = []
    for leg in (l1, l2, l3):
        first = len(edges) + 1
        edges += [(0, first)] + [(v, v + 1) for v in range(first, first + leg - 1)]
    return Forest([0], edges)


def theorem1_tree(k: int) -> Forest:
    """Level-k tree of the growth construction: level 0 is a single vertex,
    level i joins three level-(i-1) copies to a fresh center, the center
    adjacent to the root of each copy.  The root/center is always the
    largest id, so theorem1_tree(k).n - 1 names it.  Has (3**(k+1)-1)//2
    vertices and every searching parameter grows by one per level.
    """
    if k < 0:
        raise ArgumentError(f"theorem1 level must be >= 0, got {k}")
    n, edges = 1, []
    for _ in range(k):
        below = sorted(edges)
        copies = (0, n, 2 * n)
        edges = [(u + off, v + off) for off in copies for u, v in below]
        edges += [(off + n - 1, 3 * n) for off in copies]
        n = 3 * n + 1
    # vertices appear in the order the edges name them, but a level-0 copy
    # has no edge to name it: up to level 1 they appear in id order
    return Forest(range(n) if k < 2 else (), edges)


def prufer_to_tree(seq: list[int], n: int) -> Forest:
    """Decode a Pruefer sequence of length n - 2 over vertices 0..n-1."""
    if n < 2:
        raise ArgumentError("Pruefer decoding needs n >= 2")
    if len(seq) != n - 2:
        raise ArgumentError(f"sequence length {len(seq)} != n - 2 = {n - 2}")
    for x in seq:
        if not isinstance(x, int) or not 0 <= x < n:
            raise ArgumentError(f"Pruefer entries must be ints in 0..{n - 1}, got {x!r}")
    degree = [1] * n
    for x in seq:
        degree[x] += 1

    def edges():
        leaves = [v for v in range(n) if degree[v] == 1]
        heapq.heapify(leaves)
        for x in seq:
            yield heapq.heappop(leaves), x
            degree[x] -= 1
            if degree[x] == 1:
                heapq.heappush(leaves, x)
        yield heapq.heappop(leaves), heapq.heappop(leaves)

    return _build(Forest(range(n)), edges())


def random_tree(n: int, seed: int) -> Forest:
    """The tree of a Pruefer sequence of n - 2 seeded draws.

    Each entry takes n.bit_length() bits from `getrandbits`, redrawn while
    it is n or more: the draws `random.Random.randrange(n)` makes, without
    its frames, as in `protocol.Schedule.order`.
    """
    if n < 1:
        raise ArgumentError(f"random tree needs n >= 1, got {n}")
    if n == 1:
        return Forest([0])
    getrandbits = random.Random(seed).getrandbits
    k = n.bit_length()
    seq = []
    for _ in range(n - 2):
        x = getrandbits(k)
        while x >= n:
            x = getrandbits(k)
        seq.append(x)
    return prufer_to_tree(seq, n)


# the tree kinds of `gen_tree`, in the order `treesweep gen` lists them
_GENERATORS = {
    "path": path_tree,
    "star": star_tree,
    "spider": spider_tree,
    "theorem1": theorem1_tree,
    "random": random_tree,
}


def gen_tree(kind: str, *args) -> Forest:
    """Dispatcher used by the CLI: path k | star k | spider l1 l2 l3 |
    theorem1 k | random n seed."""
    if kind not in _GENERATORS:
        raise ArgumentError(f"unknown tree kind {kind!r}")
    code = _GENERATORS[kind].__code__  # positional parameters come first
    names = code.co_varnames[:code.co_argcount]
    if len(args) != len(names):
        raise ArgumentError(f"{kind} expects {' '.join(names)}, "
                            f"got {len(args)} argument(s)")
    return _GENERATORS[kind](*args)


# ---------------------------------------------------------------------------
# free-tree enumeration (WROM level-sequence algorithm)

MAX_ENUMERATION_ORDER = 13


def enumerate_trees(n: int) -> Iterator[Forest]:
    """Yield one representative per isomorphism class of free trees on n vertices.

    Uses the Wright-Richmond-Odlyzko-McKay successor on canonical level
    sequences.  Counts are cross-checked in the test suite against the
    unlabeled-tree recurrence and against Pruefer-enumerated labeled trees.
    """
    if not 1 <= n <= MAX_ENUMERATION_ORDER:
        raise ArgumentError(f"enumeration supported for 1 <= n <= {MAX_ENUMERATION_ORDER}")
    if n == 1:
        yield Forest([0])
        return
    layout = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while layout is not None:
        layout = _next_free_tree(layout)
        if layout is not None:
            yield _layout_to_forest(layout)
            layout = _next_rooted_tree(layout)


def _next_rooted_tree(predecessor, p=None):
    if p is None:
        p = len(predecessor) - 1
        while predecessor[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while predecessor[q] != predecessor[p] - 1:
        q -= 1
    result = list(predecessor)
    for i in range(p, len(result)):
        result[i] = result[i - p + q]
    return result


def _next_free_tree(candidate):
    left, rest = _split_layout(candidate)
    if max(rest) > max(left) or (max(rest) == max(left)
                                 and (len(left), left) <= (len(rest), rest)):
        return candidate
    p = len(left)
    new_candidate = _next_rooted_tree(candidate, p)
    if candidate[p] > 2:
        new_left, _ = _split_layout(new_candidate)
        suffix = range(1, max(new_left) + 2)
        new_candidate[-len(suffix):] = suffix
    return new_candidate


def _split_layout(layout):
    m = layout.index(1, 2) if 1 in layout[2:] else len(layout)
    left = [level - 1 for level in layout[1:m]]
    rest = [0] + layout[m:]
    return left, rest


def _layout_to_forest(layout) -> Forest:
    edges, stack = [], []
    for i in range(len(layout)):
        while stack and layout[stack[-1]] >= layout[i]:
            stack.pop()
        if stack:
            edges.append((i, stack[-1]))
        stack.append(i)
    return Forest([0], edges)
