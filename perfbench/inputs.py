"""Seeded inputs for the benchmark workloads.

Everything here is plain Python with no import of the program, so the
inputs, and the expected cost of every dynamic operation, do not change
when the program does.  Trees are edge-list text in the format the
program parses ("n <count>" then sorted "u v" lines with u < v).
"""

from __future__ import annotations

import heapq
import random
import statistics
from dataclasses import dataclass

RANDOM_N = 4096
RANDOM_TREES = 8
RANDOM_POOL = 128  # tree seeds whose values are frozen in random_values.json
THEOREM1_LEVEL = 7
STAR_LEAVES = 2000

DEEP_N = 3000
SPINE = 1000  # static-deep caterpillar spine

DYN_N = 3000
DYN_SPINE = 300
DYN_QUERIES = 1500
DYN_REROOTS = 600
DYN_REJOINS = 600
DYN_CANDIDATES = 31


@dataclass(frozen=True)
class TreeInput:
    """One input tree, and the values it must give where they are known."""
    name: str
    n: int
    text: str
    expect: dict[str, int]  # param -> value; may be empty or partial


def edge_text(n: int, edges) -> str:
    pairs = sorted((min(u, v), max(u, v)) for u, v in edges)
    return f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in pairs)


def prufer_edges(n: int, seed: int) -> list[tuple[int, int]]:
    """Random labelled tree from a seeded Pruefer sequence; the same
    construction as treesweep.random_tree."""
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        edges.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def theorem1_edges(k: int) -> tuple[int, list[tuple[int, int]]]:
    """Level-k growth tower: three level-(k-1) copies joined to a new centre
    adjacent to each copy's root; the root of a level is its largest id."""
    n, edges = 1, []
    for _ in range(k):
        edges = [(u + off, v + off) for off in (0, n, 2 * n) for u, v in edges]
        edges += [(3 * n, off + n - 1) for off in (0, n, 2 * n)]
        n = 3 * n + 1
    return n, edges


def spider_edges(legs: tuple[int, ...]) -> tuple[int, list[tuple[int, int]]]:
    edges, nxt = [], 1
    for leg in legs:
        prev = 0
        for _ in range(leg):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return nxt, edges


def caterpillar_edges(spine: int, legs: int) -> tuple[int, list[tuple[int, int]]]:
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for s in range(spine):
        for _ in range(legs):
            edges.append((s, nxt))
            nxt += 1
    return nxt, edges


def random_tree_seeds(seed: int) -> list[int]:
    return random.Random(seed).sample(range(RANDOM_POOL), RANDOM_TREES)


def random_input(tree_seed: int, expect: dict[str, int]) -> TreeInput:
    return TreeInput(f"random{tree_seed}", RANDOM_N,
                     edge_text(RANDOM_N, prufer_edges(RANDOM_N, tree_seed)), expect)


def static_shallow(seed: int, frozen: dict[str, dict[str, int]]) -> list[TreeInput]:
    trees = [random_input(s, frozen[str(s)]) for s in random_tree_seeds(seed)]
    k = THEOREM1_LEVEL
    n, edges = theorem1_edges(k)
    # pn = k is the paper's growth theorem; ns and es are frozen at k + 1
    trees.append(TreeInput(f"theorem1_{k}", n, edge_text(n, edges),
                           {"pn": k, "ns": k + 1, "es": k + 1}))
    star = [(0, i) for i in range(1, STAR_LEAVES + 1)]
    trees.append(TreeInput(f"star{STAR_LEAVES}", STAR_LEAVES + 1,
                           edge_text(STAR_LEAVES + 1, star), {"pn": 1, "ns": 2, "es": 2}))
    return trees


def static_deep() -> list[TreeInput]:
    leg = DEEP_N // 3
    n, spider = spider_edges((leg, leg, leg))
    m, cat = caterpillar_edges(SPINE, 2)
    return [
        TreeInput(f"path{DEEP_N}", DEEP_N,
                  edge_text(DEEP_N, [(i, i + 1) for i in range(DEEP_N - 1)]),
                  {"pn": 2, "ns": 2, "es": 1}),
        TreeInput(f"spider{leg}x3", n, edge_text(n, spider), {"pn": 3, "ns": 3, "es": 2}),
        # pathwidth 1 and not a star or a path: pn 2, ns 2, es 2
        TreeInput(f"caterpillar{SPINE}x2", m, edge_text(m, cat), {"pn": 2, "ns": 2, "es": 2}),
    ]


def static_calls(trees: list[TreeInput], seed: int) -> list[tuple[TreeInput, str]]:
    """Three calls per tree (pn with strategy, ns, es), in a seeded order."""
    calls = [(t, p) for t in trees for p in ("pn", "ns", "es")]
    random.Random(seed).shuffle(calls)
    return calls


# ---------------------------------------------------------------------------
# dynamic-churn


@dataclass(frozen=True)
class DynOp:
    kind: str          # "query", "reroot" or "rejoin"
    args: tuple        # query (v,) | reroot (v,) | rejoin (child, father, w1, w2)
    messages: int      # messages the paper's cost model charges for the op
    root: int | None = None  # query: root of the queried vertex's tree
    hops: int = 0      # query: father pointers followed to reach the root


def churn_tree(seed: int, n: int = DYN_N, spine: int = DYN_SPINE) -> list[tuple[int, int]]:
    """A spine path plus vertices attached to random earlier ones, so
    father chains run for a hundred hops and more."""
    rng = random.Random(seed)
    edges = [(i, i + 1) for i in range(spine - 1)]
    return edges + [(rng.randrange(v), v) for v in range(spine, n)]


def centre(n: int, edges) -> int:
    """Root of the static convergecast: peel leaves round by round; of two
    last survivors the larger id wins."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    degree = [len(a) for a in adj]
    layer = [v for v in range(n) if degree[v] <= 1]
    left = n
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    nxt.append(w)
        layer = nxt
    return max(layer)


class _Rooted:
    """Father pointers toward the component root, mirroring what the
    dynamic forest keeps, used to cost each operation ahead of time."""

    def __init__(self, n: int, edges, root: int):
        self.adj = [set() for _ in range(n)]
        for u, v in edges:
            self.adj[u].add(v)
            self.adj[v].add(u)
        self.father: list[int | None] = [None] * n
        seen, stack = {root}, [root]
        while stack:
            u = stack.pop()
            for w in self.adj[u]:
                if w not in seen:
                    seen.add(w)
                    self.father[w] = u
                    stack.append(w)

    def root_of(self, v: int) -> tuple[int, int]:
        """The root of v's tree, and the hops from v to it."""
        hops = 0
        while self.father[v] is not None:
            v = self.father[v]
            hops += 1
        return v, hops

    def reroot(self, v: int) -> int:
        """Make v its component's root; returns the messages charged:
        one notification up and one corrected descriptor down per hop."""
        path = [v]
        while self.father[path[-1]] is not None:
            path.append(self.father[path[-1]])
        for i in range(len(path) - 1, 0, -1):
            self.father[path[i]] = path[i - 1]
        self.father[v] = None
        return 2 * (len(path) - 1)

    def subtree(self, v: int) -> list[int]:
        out, stack = [v], [v]
        while stack:
            u = stack.pop()
            for w in self.adj[u]:
                if w != self.father[u]:
                    out.append(w)
                    stack.append(w)
        return out


def churn_ops(seed: int, n: int, edges, root: int, spine: int = DYN_SPINE,
              queries: int = DYN_QUERIES, reroots: int = DYN_REROOTS,
              rejoins: int = DYN_REJOINS) -> list[DynOp]:
    """Queries, reroots and rejoins (delete a random edge off the spine,
    then add an edge between random vertices of the two parts) in a seeded
    order.  The spine is never cut, so the tree's depth stays about the
    same all through the stream and from one seed to the next."""
    rng = random.Random(seed)
    kinds = ["query"] * queries + ["reroot"] * reroots + ["rejoin"] * rejoins
    rng.shuffle(kinds)
    tree = _Rooted(n, edges, root)
    ops = []
    for kind in kinds:
        if kind == "query":
            v = rng.randrange(n)
            ops.append(DynOp(kind, (v,), 0, *tree.root_of(v)))
        elif kind == "reroot":
            v = rng.randrange(n)
            ops.append(DynOp(kind, (v,), tree.reroot(v)))
        else:
            while True:
                child = rng.randrange(n)
                father = tree.father[child]
                if father is not None and not (
                        max(child, father) < spine and abs(child - father) == 1):
                    break
            part = tree.subtree(child)
            inside = set(part)
            a = part[rng.randrange(len(part))]
            b = rng.randrange(n)
            while b in inside:
                b = rng.randrange(n)
            w1, w2 = (a, b) if rng.random() < 0.5 else (b, a)
            # delete: the father's part is rerooted at the father
            tree.adj[child].discard(father)
            tree.adj[father].discard(child)
            tree.father[child] = None
            messages = tree.reroot(father)
            # add: reroot both parts at the endpoints, then one message from
            # the smaller id to the larger, which becomes the root
            messages += tree.reroot(w1) + tree.reroot(w2) + 1
            tree.adj[w1].add(w2)
            tree.adj[w2].add(w1)
            tree.father[min(w1, w2)] = max(w1, w2)
            ops.append(DynOp(kind, (child, father, w1, w2), messages))
    return ops


def _work(ops: list[DynOp]) -> tuple[float, ...]:
    """What the metrics of a stream depend on: total messages, median and
    99th-percentile messages of an update, and the same for query hops."""
    updates = sorted(op.messages for op in ops if op.kind != "query")
    hops = sorted(op.hops for op in ops if op.kind == "query")

    def at(xs, q):
        return xs[min(len(xs) - 1, int(q * len(xs)))]

    return (sum(updates), at(updates, 0.5), at(updates, 0.99), at(hops, 0.5), at(hops, 0.99))


def churn_workload(seed: int, n: int = DYN_N, spine: int = DYN_SPINE,
                   candidates: int = DYN_CANDIDATES, **counts):
    """The tree, its root and the operation stream of dynamic-churn.

    Of `candidates` trees and streams drawn from the seed, the one whose
    work (see _work) lies closest to the candidates' medians is taken.
    Seeds then differ in their trees and operations but hardly in how much
    work they ask for, so the run-to-run spread of the metrics shows the
    program's speed rather than the luck of the draw."""
    def draw(k: int):
        sub = seed * candidates + k
        edges = churn_tree(sub, n, spine)
        root = centre(n, edges)
        return edges, root, churn_ops(sub, n, edges, root, spine, **counts)

    work = [_work(draw(k)[2]) for k in range(candidates)]
    mid = [statistics.median(w[i] for w in work) for i in range(len(work[0]))]

    def distance(k: int) -> float:
        return sum(((x - m) / max(m, 1)) ** 2 for x, m in zip(work[k], mid))

    return draw(min(range(candidates), key=distance))
