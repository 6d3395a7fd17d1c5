"""Exhaustive ground-truth solvers for the searching parameters on small graphs.

Every solver is a plain reachability search over explicit game states, kept
deliberately independent of the hierarchical-decomposition machinery so the
two can arbitrate each other.  State spaces: 3^n for the process game
(untouched / occupied / processed per vertex), occupied-set x cleared-edges
for node search, searcher-multiset x cleared-edges for edge search, and a
subset DP for vertex separation.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

from .forest import ArgumentError, Forest, Graph

PN_LIMIT = 13
PN_PLUS_LIMIT = 12
NS_LIMIT = 11
ES_LIMIT = 10
PW_LIMIT = 16


class CapacityError(Exception):
    pass


def _dense(g: Graph) -> tuple[int, list[int], dict[int, int]]:
    """Relabel to 0..n-1 and return (n, neighbour bitmasks, old->new map)."""
    order = sorted(g.vertices)
    pos = {v: i for i, v in enumerate(order)}
    masks = [0] * len(order)
    for v in order:
        for u in g.neighbours(v):
            masks[pos[v]] |= 1 << pos[u]
    return len(order), masks, pos


# ---------------------------------------------------------------------------
# process number

_UNTOUCHED, _OCCUPIED, _PROCESSED = 0, 1, 2


def _pn_search(n: int, nbr: list[int], agents: int, goal_occupied: int | None) -> bool:
    """Reachability of the process game with at most `agents` agents.

    goal_occupied None: reach all-processed.  Otherwise reach the state where
    exactly that vertex is occupied and everything else is processed (the
    final removal then ends the strategy there).
    """
    code = [3 ** i for i in range(n)]
    all_processed = sum(2 * c for c in code)
    if goal_occupied is not None:
        goal = all_processed - 2 * code[goal_occupied] + code[goal_occupied]
    else:
        goal = all_processed
    start = 0
    if start == goal:
        return True
    seen = {start}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        digits = []
        s = state
        for i in range(n):
            digits.append(s % 3)
            s //= 3
        occupied = sum(1 for d in digits if d == _OCCUPIED)
        for v in range(n):
            d = digits[v]
            if d == _UNTOUCHED:
                # place an agent
                if occupied < agents:
                    nxt = state + code[v]
                    if nxt not in seen:
                        if nxt == goal:
                            return True
                        seen.add(nxt)
                        queue.append(nxt)
                # rule 3: process when surrounded by agents
                mask = nbr[v]
                surrounded = True
                u = 0
                m = mask
                while m:
                    if m & 1 and digits[u] != _OCCUPIED:
                        surrounded = False
                        break
                    m >>= 1
                    u += 1
                if surrounded:
                    nxt = state + 2 * code[v]
                    if nxt not in seen:
                        if nxt == goal:
                            return True
                        seen.add(nxt)
                        queue.append(nxt)
            elif d == _OCCUPIED:
                # rule 2: remove when every neighbour is processed or occupied
                ok = True
                u = 0
                m = nbr[v]
                while m:
                    if m & 1 and digits[u] == _UNTOUCHED:
                        ok = False
                        break
                    m >>= 1
                    u += 1
                if ok:
                    nxt = state + code[v]
                    if nxt not in seen:
                        if nxt == goal:
                            return True
                        seen.add(nxt)
                        queue.append(nxt)
    return False


def pn_exact(g: Graph) -> int:
    """Least p such that a p-agent process strategy processes all of g."""
    if g.n > PN_LIMIT:
        raise CapacityError(f"pn oracle limited to n <= {PN_LIMIT}")
    if g.n == 0:
        return 0
    n, nbr, _ = _dense(g)
    for p in range(n + 1):
        if _pn_search(n, nbr, p, None):
            return p
    raise AssertionError("unreachable: n agents always suffice")


def pn_plus_exact(g: Graph, r: int) -> int:
    """Least agents over strategies whose last occupied vertex is r.

    The single vertex costs 1 here (it must be placed and removed) even
    though pn of a single vertex is 0 by the surrounded-processing rule.
    """
    if g.n > PN_PLUS_LIMIT:
        raise CapacityError(f"pn+ oracle limited to n <= {PN_PLUS_LIMIT}")
    if r not in g.vertices:
        raise ArgumentError(f"vertex {r} not in graph")
    n, nbr, pos = _dense(g)
    for p in range(1, n + 1):
        if _pn_search(n, nbr, p, pos[r]):
            return p
    raise AssertionError("unreachable")


def stable_exact(g: Graph, r: int) -> bool:
    """Definition of stability: an optimal strategy may finish at r, or some
    strategy with at most two agents does."""
    plus = pn_plus_exact(g, r)
    return plus == pn_exact(g) or plus <= 2


# ---------------------------------------------------------------------------
# pathwidth / vertex separation

def pathwidth_exact(g: Graph) -> int:
    """Vertex separation via subset DP: min over orderings of the max number
    of placed vertices that still have a neighbour outside the prefix."""
    if g.n > PW_LIMIT:
        raise CapacityError(f"pathwidth oracle limited to n <= {PW_LIMIT}")
    if g.n == 0:
        return 0
    n, nbr, _ = _dense(g)
    full = (1 << n) - 1
    dp = [0] * (full + 1)
    order = sorted(range(1, full + 1), key=lambda s: bin(s).count("1"))
    for s in order:
        boundary = 0
        rest = ~s
        m = s
        while m:
            v = (m & -m).bit_length() - 1
            if nbr[v] & rest:
                boundary += 1
            m &= m - 1
        best = min(dp[s & ~(1 << v)] for v in _bits(s))
        dp[s] = max(boundary, best)
    return dp[full]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


# ---------------------------------------------------------------------------
# node search

def ns_exact(g: Graph) -> int:
    """Node search with recontamination: an edge is cleared while both its
    endpoints hold agents; a cleared edge touching an agent-free vertex that
    also touches a contaminated edge is recontaminated.  ns(K1) is 1 by the
    capture convention (the fugitive sits on the vertex)."""
    if g.n > NS_LIMIT:
        raise CapacityError(f"ns oracle limited to n <= {NS_LIMIT}")
    if g.n == 0:
        return 0
    edges = g.edges()
    if not edges:
        return 1
    n, nbr, pos = _dense(g)
    ne = len(edges)
    incident = [0] * n
    endpoints = []
    for i, (u, v) in enumerate(edges):
        a, b = pos[u], pos[v]
        incident[a] |= 1 << i
        incident[b] |= 1 << i
        endpoints.append((a, b))
    goal = (1 << ne) - 1

    def closure(occ: int, cleared: int) -> int:
        changed = True
        while changed:
            changed = False
            dirty = goal & ~cleared
            if not dirty:
                break
            m = cleared
            while m:
                e = (m & -m).bit_length() - 1
                a, b = endpoints[e]
                for x in (a, b):
                    if not (occ >> x) & 1 and (incident[x] & dirty & ~(1 << e)):
                        cleared &= ~(1 << e)
                        changed = True
                        break
                m &= m - 1
        return cleared

    for p in range(1, n + 1):
        start = (0, 0)
        seen = {start}
        queue = deque([start])
        found = False
        while queue and not found:
            occ, cleared = queue.popleft()
            count = bin(occ).count("1")
            for v in range(n):
                if (occ >> v) & 1:
                    nocc = occ & ~(1 << v)
                    ncl = closure(nocc, cleared)
                    s = (nocc, ncl)
                    if s not in seen:
                        if ncl == goal:
                            found = True
                            break
                        seen.add(s)
                        queue.append(s)
                elif count < p:
                    nocc = occ | (1 << v)
                    ncl = cleared
                    m = incident[v]
                    while m:
                        e = (m & -m).bit_length() - 1
                        a, b = endpoints[e]
                        other = a if b == v else b
                        if (nocc >> other) & 1:
                            ncl |= 1 << e
                        m &= m - 1
                    s = (nocc, ncl)
                    if s not in seen:
                        if ncl == goal:
                            found = True
                            break
                        seen.add(s)
                        queue.append(s)
        if found:
            return p
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# edge search

def es_exact(g: Graph) -> int:
    """Edge search with recontamination: searchers are placed, removed, or
    slid along an edge (which clears it).  Several searchers may share a
    vertex."""
    if g.n > ES_LIMIT:
        raise CapacityError(f"es oracle limited to n <= {ES_LIMIT}")
    edges = g.edges()
    if not edges:
        return 0
    n, nbr, pos = _dense(g)
    eidx = {}
    for i, (u, v) in enumerate(edges):
        eidx[(pos[u], pos[v])] = i
        eidx[(pos[v], pos[u])] = i
    ne = len(edges)
    incident = [0] * n
    endpoints = []
    for i, (u, v) in enumerate(edges):
        a, b = pos[u], pos[v]
        incident[a] |= 1 << i
        incident[b] |= 1 << i
        endpoints.append((a, b))
    goal = (1 << ne) - 1
    adj_lists = [sorted(_bits(nbr[v])) for v in range(n)]

    def closure(counts: tuple[int, ...], cleared: int) -> int:
        changed = True
        while changed:
            changed = False
            dirty = goal & ~cleared
            if not dirty:
                break
            m = cleared
            while m:
                e = (m & -m).bit_length() - 1
                a, b = endpoints[e]
                for x in (a, b):
                    if counts[x] == 0 and (incident[x] & dirty & ~(1 << e)):
                        cleared &= ~(1 << e)
                        changed = True
                        break
                m &= m - 1
        return cleared

    for p in range(1, n + ne + 1):
        start = ((0,) * n, 0)
        seen = {start}
        queue = deque([start])
        found = False
        while queue and not found:
            counts, cleared = queue.popleft()
            total = sum(counts)
            moves = []
            for v in range(n):
                if total < p:
                    c2 = list(counts)
                    c2[v] += 1
                    moves.append((tuple(c2), cleared))
                if counts[v] > 0:
                    c2 = list(counts)
                    c2[v] -= 1
                    moves.append((tuple(c2), closure(tuple(c2), cleared)))
                    for u in adj_lists[v]:
                        c3 = list(counts)
                        c3[v] -= 1
                        c3[u] += 1
                        t3 = tuple(c3)
                        ncl = closure(t3, cleared | (1 << eidx[(v, u)]))
                        moves.append((t3, ncl))
            for s in moves:
                if s not in seen:
                    if s[1] == goal:
                        found = True
                        break
                    seen.add(s)
                    queue.append(s)
        if found:
            return p
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# gap characterization

def gap_characterization_check(t: Forest, param: str = "pn") -> bool:
    """Evaluate both sides of the gap characterization and report agreement.

    Left side: param(T) == pw(T) + 1 with p = pw(T).  Right side: some vertex
    v exists such that every component of T - v has pathwidth at most p,
    at least three components have param value p, and at most two of those
    also have pathwidth p.  param is "pn" or "es".

    The characterization's regime is p >= 2: the gap between the parameters
    originates primitively at pathwidth 1 (a 4-path already has process
    number 2 without any three-branch vertex), so trees below the regime
    report agreement without comparison.
    """
    if param not in ("pn", "es"):
        raise ArgumentError(f"gap check covers param 'pn' or 'es', got {param!r}")
    if not t.is_tree():
        raise ArgumentError("gap check expects a single tree")
    solver = pn_exact if param == "pn" else es_exact
    p = pathwidth_exact(t)
    if p < 2:
        return True
    lhs = solver(t) == p + 1
    rhs = False
    for v in t.vertices:
        rest = t.induced(set(t.vertices) - {v})
        comps = [rest.induced(c) for c in rest.components()]
        if any(pathwidth_exact(c) > p for c in comps):
            continue
        with_param = [c for c in comps if solver(c) == p]
        if len(with_param) < 3:
            continue
        if sum(1 for c in with_param if pathwidth_exact(c) == p) <= 2:
            rhs = True
            break
    return lhs == rhs
