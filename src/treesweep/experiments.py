"""Instance builders and measurements for the incremental-build experiments.

Best case: edges inserted children-before-parents (the reverse of a
breadth-first order) with identifiers decreasing away from the root, so both
endpoints of every new edge are already the roots of their components and
each insertion costs a single message.

Worst case: two balanced subtrees joined by a long path, their edges
inserted alternately; every insertion drags the component root across the
path, so messages grow quadratically.
"""

from __future__ import annotations

import math
from collections import deque

from .dynamic import inc_build
from .forest import ArgumentError, Forest, random_tree


def best_case_instance(n: int, seed: int = 0) -> list[tuple[int, int]]:
    """Insertion order for a random n-vertex tree that costs O(n) messages."""
    t = random_tree(n, seed)
    order = [0]
    parent = {0: None}
    depth = {0: 0}
    q = deque([0])
    while q:
        v = q.popleft()
        for u in sorted(t.neighbours(v)):
            if u not in parent:
                parent[u] = v
                depth[u] = depth[v] + 1
                order.append(u)
                q.append(u)
    # ids decrease along the BFS order: the root takes n - 1
    relabel = {v: n - 1 - i for i, v in enumerate(order)}
    rows = [(depth[v], relabel[v], relabel[parent[v]])
            for v in order if parent[v] is not None]
    rows.sort(reverse=True)
    return [(child, father) for _, child, father in rows]


def worst_case_instance(n: int) -> list[tuple[int, int]]:
    """Two ternary-balanced subtrees linked by a path, edges alternating sides.

    The path occupies the low identifiers and is inserted first; side
    vertices take increasing ids in insertion order, so each insertion wins
    the root election and parks the root on its own side, forcing the next
    insertion on the opposite side to reroot across the whole path.
    """
    if n < 4:  # both sides need a vertex, the path two
        raise ArgumentError(f"worst-case instance needs n >= 4, got {n}")
    side = n // 3
    path_len = n - 2 * side
    edges = [(i, i + 1) for i in range(path_len - 1)]
    queues: list[deque[int]] = [deque(), deque()]
    kids: dict[int, int] = {}
    pending: list[list[tuple[int, int]]] = [[], []]
    next_id = path_len
    for k in range(2 * side):
        s = k % 2
        q = queues[s]
        while q and kids.get(q[0], 0) >= 3:
            q.popleft()
        parent = q[0] if q else (0 if s == 0 else path_len - 1)
        kids[parent] = kids.get(parent, 0) + 1
        pending[s].append((next_id, parent))
        q.append(next_id)
        next_id += 1
    for a, b in zip(pending[0], pending[1]):
        edges.append(a)
        edges.append(b)
    return edges


def loglog_slope(points: list[tuple[int, ...]]) -> float:
    """Least-squares slope of log(messages) against log(n) over rows that
    start (n, messages), as `scaling_table` gives; needs at least two
    distinct sizes."""
    if len({p[0] for p in points}) < 2:
        raise ArgumentError("a slope needs at least two distinct sizes")
    xs = [math.log(p[0]) for p in points]
    ys = [math.log(p[1]) for p in points]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    den = sum((x - mean_x) ** 2 for x in xs)
    return num / den


def scaling_table(sizes: list[int], kind: str) -> list[tuple[int, int, int]]:
    """(n, messages, bits) of a paper-mode `inc_build` of the `kind` ("best"
    or "worst") instance at each size."""
    out = []
    for n in sizes:
        edges = best_case_instance(n) if kind == "best" else worst_case_instance(n)
        df = inc_build(edges, n)
        if len(df.roots) != 1:
            raise AssertionError("instance did not assemble a single tree")
        out.append((n, df.counters.messages, df.counters.bits))
    return out
