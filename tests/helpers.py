"""Helpers shared by several test modules.  The tests directory is on the
import path under pytest, and CI puts it there for the scripts that import
a test module."""

import random
from collections import deque
from functools import lru_cache
from typing import Sequence

from treesweep.forest import ArgumentError, Forest, Graph, StructureError
from treesweep.hd import (ContractError, HDescriptor, ParamVariant, Vect,
                          evaluate, merge)


# Every literal CLI error case, one row each: the argv, the files it reads
# (name -> text, written into the directory the command runs in) and the one
# line the command writes to stderr.  Each row must exit 2 with an empty
# stdout: `test_cli.py` runs the rows through `cli.main`,
# `test_reachability.py` traces them, and CI's "CLI error smoke" step runs
# them through the installed `treesweep`.
CLI_ERRORS = [
    (["gen", "spider", "1", "2"], {},
     "error: spider expects l1 l2 l3, got 2 argument(s)"),
    (["compute", "empty.txt"], {"empty.txt": ""}, "error: empty tree"),
    (["compute", "cycle.txt"], {"cycle.txt": "0 1\n1 2\n2 0\n"},
     "error: line 3: edge (2, 0) would create a cycle"),
    # in `serialize`'s form: the bulk parse gives up, the line loop words it
    (["compute", "formcycle.txt"], {"formcycle.txt": "n 3\n0 1\n1 2\n0 2\n"},
     "error: line 4: edge (0, 2) would create a cycle"),
    (["compute", "duplicate.txt"], {"duplicate.txt": "0 1\n1 0\n"},
     "error: line 2: duplicate edge (1, 0)"),
    (["compute", "selfloop.txt"], {"selfloop.txt": "n 3\n2 2\n"},
     "error: line 2: self-loop at vertex 2"),
    (["compute", "negative.txt"], {"negative.txt": "0 -1\n"},
     "error: line 1: negative vertex id in '0 -1'"),
    (["compute", "twocounts.txt"], {"twocounts.txt": "n 2\nn 2\n"},
     "error: line 2: bad vertex-count line 'n 2'"),
    (["dynamic", "novertex.txt"], {"novertex.txt": "# no vertex\n"},
     "error: script names no vertices"),
    (["dynamic", "badcommand.txt"], {"badcommand.txt": "# no vertex\nfrob 1\n"},
     "error: line 2: bad command 'frob 1'"),
    (["dynamic", "badarity.txt"], {"badarity.txt": "add 0 1\nadd 2\n"},
     "error: line 2: bad command 'add 2'"),
    (["dynamic", "negativeid.txt"], {"negativeid.txt": "query -1\n"},
     "error: line 1: negative vertex id in 'query -1'"),
    (["compute", "edge.txt", "--param", "ns", "--strategy"], {"edge.txt": "0 1\n"},
     "error: strategy extraction supports --param pn only"),
    (["conformance", "--max-n", "0"], {}, "error: --max-n must be at least 1"),
    (["conformance", "--max-n", "11", "--param", "es"], {},
     "error: --max-n 11 exceeds the oracle cap of 10 for --param es"),
]


def hdesc(pn: int, pn_plus: int, cells: Sequence[int] = ()) -> HDescriptor:
    return HDescriptor(Vect(pn, pn_plus), tuple(cells))


def rooted_descriptors(tree: Forest, root: int,
                       variant: ParamVariant) -> dict[int, HDescriptor]:
    """Descriptor of every rooted subtree via a post-order merge cascade:
    the reference for the protocol's values at every root."""
    if root not in tree.vertices:
        raise ContractError(f"root {root} not in tree")
    parent: dict[int, int | None] = {root: None}
    stack = [root]
    order = []
    while stack:
        v = stack.pop()
        order.append(v)
        for u in tree.neighbours(v):
            if u not in parent:
                parent[u] = v
                stack.append(u)
    if len(order) != tree.n:
        raise ContractError("tree is not connected")
    out: dict[int, HDescriptor] = {}
    for v in reversed(order):
        kids = [out[u] for u in tree.neighbours(v) if parent.get(u) == v]
        out[v] = merge(kids, variant)
    return out


def rooted_value(tree: Forest, root: int, variant: ParamVariant) -> int:
    return evaluate(rooted_descriptors(tree, root, variant)[root]).value


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


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise ArgumentError(f"cycle needs k >= 3, got {k}")
    return Graph(range(k), [(i, (i + 1) % k) for i in range(k)])


def grid_graph(rows: int, cols: int) -> Graph:
    if rows < 1 or cols < 1:
        raise ArgumentError("grid needs positive dimensions")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(range(rows * cols), edges)


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


def _balanced_joins(lo, hi, out):
    """Path edges ordered so every insertion joins two halves of equal size."""
    if hi - lo > 1:
        mid = (lo + hi) // 2
        _balanced_joins(lo, mid, out)
        _balanced_joins(mid, hi, out)
        out.append((mid - 1, mid))
    return out


def _dist(tree, a, b):
    """The number of edges on the path from a to b."""
    seen = {a: 0}
    q = deque([a])
    while q:
        v = q.popleft()
        if v == b:
            return seen[v]
        for u in tree.neighbours(v):
            if u not in seen:
                seen[u] = seen[v] + 1
                q.append(u)
    raise AssertionError("disconnected")


def _outcome(fn, *args):
    try:
        return "ok", repr(fn(*args))
    except Exception as exc:  # the exception type and text are the outcome
        return "raise", type(exc), str(exc)
