"""Instance builders and measurements for the incremental-build experiments.

Best case: edges inserted children-before-parents (the reverse of a
breadth-first order) with identifiers decreasing away from the root, so both
endpoints of every new edge are already the roots of their components and
each insertion costs a single message.

Worst case: two balanced subtrees joined by a long path, their edges
inserted alternately; every insertion drags the component root across the
path, so messages grow quadratically.  Each subtree is a ternary heap: its
first vertex hangs under an end of the path and its k-th, for k >= 1, under
its ((k - 1) // 3)-th.
"""

from __future__ import annotations

import math

from .dynamic import inc_build
from .forest import ArgumentError, random_tree


def best_case_instance(n: int) -> list[tuple[int, int]]:
    """Insertion order for the random n-vertex tree of seed 0 that costs
    O(n) messages."""
    t = random_tree(n, 0)
    order = [0]
    parent = {0: None}
    depth = {0: 0}
    for v in order:  # the order grows behind the loop: breadth first
        for u in sorted(t.neighbours(v)):
            if u not in parent:
                parent[u] = v
                depth[u] = depth[v] + 1
                order.append(u)
    # ids decrease along the BFS order: the root takes n - 1
    relabel = {v: n - 1 - i for i, v in enumerate(order)}
    # deepest first; the sort is stable, so a depth keeps its BFS order
    children = sorted(order[1:], key=depth.__getitem__, reverse=True)
    return [(relabel[v], relabel[parent[v]]) for v in children]


def worst_case_instance(n: int) -> list[tuple[int, int]]:
    """Two ternary heaps linked by a path, edges alternating sides.

    The path 0..path_len-1 takes the low identifiers and is inserted first.
    Side s (0 at vertex 0, 1 at path_len - 1) has its k-th vertex at
    path_len + 2k + s: the path end's child for k = 0, otherwise the child
    of its side's vertex (k - 1) // 3.  Side vertices take increasing ids in
    insertion order, so each insertion wins the root election and parks the
    root on its own side, forcing the next insertion on the opposite side to
    reroot across the whole path.
    """
    if n < 4:  # both sides need a vertex, the path two
        raise ArgumentError(f"worst-case instance needs n >= 4, got {n}")
    side = n // 3
    path_len = n - 2 * side
    edges = [(i, i + 1) for i in range(path_len - 1)]
    ends = (0, path_len - 1)
    for k in range(side):
        for s in (0, 1):
            parent = path_len + 2 * ((k - 1) // 3) + s if k else ends[s]
            edges.append((path_len + 2 * k + s, parent))
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
