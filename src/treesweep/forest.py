"""Undirected forests and trees: data model, parsing, generators, enumeration.

Vertices are dense non-negative integers so that identifier comparison
doubles as the total order used for root election.  `Graph` allows cycles
(it only exists as oracle input: cycles, grids); `Forest` rejects any
cycle-creating insertion at the model layer, with one of two cycle checks,
one per kind of traffic:

- `Forest.add_edge` asks `Graph.connected`, a search from both endpoints in
  lockstep that stops when the smaller side is exhausted.  One insertion
  costs O(min(|A|, |B|)) for the two components it joins, so building any
  tree in any edge order is O(n log n).  It is a search, not a union-find,
  because edges are also deleted (`DynamicForest.delete_edge` inserts and
  removes edges here before it touches any node state), and a union cannot
  be undone.
- `parse_edge_list` and `prufer_to_tree` only ever insert edges into an
  edgeless forest.  They go through `_build`, which answers every check with
  a union-find local to the call (Tarjan, "Efficiency of a good but not
  linear set union algorithm", J. ACM 1975) in near-constant amortised
  time, so a parse or a Pruefer decode is near-linear.

Both checks accept and reject the same edges with the same `StructureError`s.
"""

from __future__ import annotations

import heapq
import inspect
import random
from collections import deque
from functools import lru_cache
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
        for u, v in edges:
            self.add_vertex(u)
            self.add_vertex(v)
            self.add_edge(u, v)

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

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise StructureError(f"self-loop at vertex {u}")
        self.add_vertex(u)
        self.add_vertex(v)
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
        return sum(len(s) for s in self.adj.values()) // 2

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

    def connected(self, u: int, v: int) -> bool:
        """Whether u and v lie in one component, by a lockstep search.

        Two breadth-first searches, one from each end, take turns one
        adjacency entry at a time; the answer is True as soon as one side
        reaches a vertex the other side has seen, and False as soon as
        either side runs out.  A query therefore costs O(min(|A|, |B|)) for
        the components A and B holding u and v, sizes counting vertices and
        edges (in a forest, vertices alone).  Stepping by entry rather
        than by vertex keeps that bound when the larger side starts at a hub:
        building a star centre-first stays linear.  This is the cycle check
        of `Forest.add_edge`, and it is a search rather than a union-find
        because `Graph.remove_edge` splits components and a union cannot be
        undone.  Bulk builds, which never remove an edge, use the union-find
        in `_build` instead.
        """
        if u == v:
            return True
        seen = ({u}, {v})
        pending = (deque([iter(self.adj[u])]), deque([iter(self.adj[v])]))
        side = 0
        while pending[side]:
            w = next(pending[side][0], None)
            if w is None:
                pending[side].popleft()
            elif w in seen[1 - side]:
                return True
            elif w not in seen[side]:
                seen[side].add(w)
                pending[side].append(iter(self.adj[w]))
            side = 1 - side
        return False

    def induced(self, keep: Iterable[int]) -> "Graph":
        keep = set(keep)
        g = Graph(keep)
        for u in keep:
            for v in self.adj[u]:
                if v in keep and u < v:
                    g.add_edge(u, v)
        return g

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.adj == other.adj

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, edges={self.edges()})"


class Forest(Graph):
    """Graph whose every component is a tree."""

    __slots__ = ()

    def add_edge(self, u: int, v: int) -> None:
        self._insert(u, v, self.connected)

    def _insert(self, u: int, v: int, linked) -> None:
        """Insert the edge uv, asking linked(u, v) whether u and v already
        share a component; it is asked only for distinct, non-adjacent
        vertices, so self-loops and duplicates are reported as such."""
        self.add_vertex(u)
        self.add_vertex(v)
        if u != v and not self.has_edge(u, v) and linked(u, v):
            raise StructureError(f"edge ({u}, {v}) would create a cycle")
        super().add_edge(u, v)

    def is_tree(self) -> bool:
        return self.n >= 1 and self.is_connected()


class _UnionFind(dict):
    """Disjoint sets of vertex ids with union by size and path halving.

    A root maps to minus the size of its set; an id never stored is a
    singleton root.  Ids are non-negative, so the sign tells the two apart.
    """

    def __missing__(self, v: int) -> int:
        return -1

    def _find(self, v: int) -> int:
        while (p := self[v]) >= 0:
            g = self[p]
            if g < 0:
                return p
            self[v] = g
            v = g
        return v

    def linked(self, u: int, v: int) -> bool:
        """Whether u and v were in one set; if they were not, join them."""
        u, v = self._find(u), self._find(v)
        if u == v:
            return True
        if self[u] > self[v]:
            u, v = v, u
        self[u] += self[v]
        self[v] = u
        return False


def _build(forest: Forest, edges: Iterable[tuple[int, int]]) -> Forest:
    """Insert a stream of edges, in order, into `forest`, which has no edges.

    Accepts and rejects exactly what `Forest.add_edge` would, with the same
    errors, but answers each cycle check from a union-find that lives only
    for this call: a build never removes an edge, so no union needs undoing.
    The stream may add vertices to `forest` between edges.
    """
    sets = _UnionFind()
    for u, v in edges:
        forest._insert(u, v, sets.linked)
    return forest


def parse_edge_list(text: str | bytes) -> Forest:
    """Parse the flat edge-list format: optional "n <count>" line, "u v" lines.

    Blank lines and "#" comments are ignored.  Lines are read in order and the
    first bad one raises: a malformed line a ParseError, a self-loop,
    duplicate or cycle-creating edge a StructureError naming the edge, both
    prefixed by "line N: ".  Near-linear in the input (see `_build`).
    """
    if isinstance(text, bytes):
        text = text.decode("ascii")
    forest = Forest()
    lineno = 0

    def edges():
        nonlocal lineno
        declared = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
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
                    forest.add_vertex(v)
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
    """Inverse of parse_edge_list: "n <count>" then sorted "u v" lines, u < v."""
    lines = [f"n {forest.n}"]
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
    f = Forest([0])
    nxt = 1
    for leg in (l1, l2, l3):
        prev = 0
        for _ in range(leg):
            f.add_vertex(nxt)
            f.add_edge(prev, nxt)
            prev = nxt
            nxt += 1
    return f


def theorem1_tree(k: int) -> Forest:
    """Level-k tree of the growth construction: level 0 is a single vertex,
    level i joins three level-(i-1) copies to a fresh center, the center
    adjacent to the root of each copy.  The root/center is always the
    largest id, so theorem1_tree(k).n - 1 names it.  Has (3**(k+1)-1)//2
    vertices and every searching parameter grows by one per level.
    """
    if k < 0:
        raise ArgumentError(f"theorem1 level must be >= 0, got {k}")
    if k == 0:
        return Forest([0])
    sub = theorem1_tree(k - 1)
    m = sub.n
    f = Forest()
    for off in (0, m, 2 * m):
        for u, v in sub.edges():
            f.add_edge(u + off, v + off)
        for u in sub.vertices:
            f.add_vertex(u + off)
    center = 3 * m
    f.add_vertex(center)
    for off in (0, m, 2 * m):
        f.add_edge(center, off + m - 1)
    return f


def theorem1_size(k: int) -> int:
    return (3 ** (k + 1) - 1) // 2


def prufer_to_tree(seq: list[int], n: int) -> Forest:
    """Decode a Pruefer sequence of length n - 2 over vertices 0..n-1."""
    if n < 2:
        raise ArgumentError("Pruefer decoding needs n >= 2")
    if len(seq) != n - 2:
        raise ArgumentError(f"sequence length {len(seq)} != n - 2 = {n - 2}")
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
    if n < 1:
        raise ArgumentError(f"random tree needs n >= 1, got {n}")
    if n == 1:
        return Forest([0])
    if n == 2:
        return Forest([0, 1], [(0, 1)])
    rng = random.Random(seed)
    return prufer_to_tree([rng.randrange(n) for _ in range(n - 2)], n)


def random_forest(n: int, edges: int, seed: int) -> Forest:
    """Uniformly-ish sprinkled acyclic edges; may be disconnected on purpose."""
    if n < 1 or edges < 0 or edges > n - 1:
        raise ArgumentError("need 1 <= n and 0 <= edges <= n - 1")
    rng = random.Random(seed)
    f = Forest(range(n))
    added = 0
    while added < edges:
        try:
            f.add_edge(rng.randrange(n), rng.randrange(n))
        except StructureError:  # self-loop, duplicate or cycle: draw again
            continue
        added += 1
    return f


def gen_tree(kind: str, *args) -> Forest:
    """Dispatcher used by the CLI: path k | star k | spider l1 l2 l3 |
    theorem1 k | random n seed."""
    table = {
        "path": path_tree,
        "star": star_tree,
        "spider": spider_tree,
        "theorem1": theorem1_tree,
        "random": random_tree,
    }
    if kind not in table:
        raise ArgumentError(f"unknown tree kind {kind!r}")
    names = list(inspect.signature(table[kind]).parameters)
    if len(args) != len(names):
        raise ArgumentError(f"{kind} expects {' '.join(names)}, "
                            f"got {len(args)} argument(s)")
    return table[kind](*args)


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise ArgumentError(f"cycle needs k >= 3, got {k}")
    return Graph(range(k), [(i, (i + 1) % k) for i in range(k)])


def grid_graph(rows: int, cols: int) -> Graph:
    if rows < 1 or cols < 1:
        raise ArgumentError("grid needs positive dimensions")
    g = Graph(range(rows * cols))
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                g.add_edge(v, v + 1)
            if r + 1 < rows:
                g.add_edge(v, v + cols)
    return g


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


def number_of_free_trees(n: int) -> int:
    """Independent count of unlabeled free trees (A000055 via A000081)."""
    if n < 0:
        raise ArgumentError("order must be non-negative")
    value = sum(_rooted_count(k) * _rooted_count(n - k) for k in range(n + 1))
    if n % 2 == 0:
        value -= _rooted_count(n // 2)
    return _rooted_count(n) - value // 2


@lru_cache(None)
def _rooted_count(n: int) -> int:
    if n < 2:
        return n
    value = 0
    for j in range(1, n):
        for d in range(1, n):
            if j % d == 0:
                value += d * _rooted_count(d) * _rooted_count(n - j)
    return value // (n - 1)


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
    left_height = max(left)
    rest_height = max(rest)
    valid = rest_height >= left_height
    if valid and rest_height == left_height:
        if len(left) > len(rest):
            valid = False
        elif len(left) == len(rest) and left > rest:
            valid = False
    if valid:
        return candidate
    p = len(left)
    new_candidate = _next_rooted_tree(candidate, p)
    if candidate[p] > 2:
        new_left, _ = _split_layout(new_candidate)
        suffix = range(1, max(new_left) + 2)
        new_candidate[-len(suffix):] = suffix
    return new_candidate


def _split_layout(layout):
    one_found = False
    m = None
    for i in range(len(layout)):
        if layout[i] == 1:
            if one_found:
                m = i
                break
            one_found = True
    if m is None:
        m = len(layout)
    left = [layout[i] - 1 for i in range(1, m)]
    rest = [0] + [layout[i] for i in range(m, len(layout))]
    return left, rest


def _layout_to_forest(layout) -> Forest:
    f = Forest([0])
    stack = []
    for i in range(len(layout)):
        while stack and layout[stack[-1]] >= layout[i]:
            stack.pop()
        if stack:
            f.add_edge(i, stack[-1])
        stack.append(i)
    return f
