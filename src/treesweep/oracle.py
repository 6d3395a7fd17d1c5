"""Exhaustive ground-truth solvers for the searching parameters on small graphs.

The three games share one search, `_fewest`: the least number of agents p
for which a breadth-first search over explicit game states, with at most p
agents in play, reaches a done state.  A game is a start state, a move
function and a done test; there are two kinds:

- the process game, shared by `pn_exact` and `pn_plus_exact`, which differ
  only in the done state.  A state packs two vertex masks in one int: bit i
  while vertex i is untouched, bit n + i while it holds an agent, and
  neither once it is processed.  Every move is one xor, and the rules test
  a vertex's neighbours against the masks;
- the edge games, node search (`ns_exact`) and edge search (`es_exact`).
  They share one edge index (`_EdgeGame`: incident-edge masks, the
  all-cleared goal) and one recontamination rule, keyed on the set of
  guarded vertices.  A state is (guards, cleared edges): the occupied set
  for node search, the searcher count of each vertex for edge search.

Vertex separation is a subset DP, not a game.  Nothing here uses the
hierarchical-decomposition machinery, so the two can arbitrate each other.

The gap characterization asks of a vertex v that every component of T - v
have pathwidth at most p = pw(T).  That clause needs no test: each component
is a subgraph of T, and pathwidth never grows on a subgraph.
"""

from __future__ import annotations

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


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


def _fewest(agents: int, most: int, start, moves, done) -> int:
    """Least p in agents..most for which a state passing `done` is reachable
    from `start`, where `moves(state, p)` yields the states one move away
    with at most p agents in play."""
    if done(start):
        return agents
    for p in range(agents, most + 1):
        seen = {start}
        queue = [start]
        for state in queue:  # the queue grows behind the loop: breadth first
            for nxt in moves(state, p):
                if nxt not in seen:
                    if done(nxt):
                        return p
                    seen.add(nxt)
                    queue.append(nxt)
    raise AssertionError(f"unreachable: {most} agents always win")


# ---------------------------------------------------------------------------
# process number

def _process_game(g: Graph):
    """(n, old->new map, start, moves) of the process game on g.  A state
    packs two vertex masks: bit i while vertex i is untouched, bit n + i
    while it holds an agent; a processed vertex has neither bit.  The start,
    every vertex untouched, is also the mask of the untouched bits."""
    n, nbr, pos = _dense(g)
    start = (1 << n) - 1
    cells = [(1 << v, nbr[v], 1 << n + v) for v in range(n)]

    def moves(state: int, agents: int):
        untouched = state & start
        occupied = state >> n
        room = occupied.bit_count() < agents
        for bit, around, agent in cells:
            if untouched & bit:
                if room:  # place an agent
                    yield state ^ bit ^ agent
                if not around & ~occupied:  # rule 3: surrounded by agents
                    yield state ^ bit
            elif occupied & bit and not around & untouched:
                yield state ^ agent  # rule 2: no untouched neighbour is left
    return n, pos, start, moves


def pn_exact(g: Graph) -> int:
    """Least p such that a p-agent process strategy processes all of g."""
    if g.n > PN_LIMIT:
        raise CapacityError(f"pn oracle limited to n <= {PN_LIMIT}")
    n, _, start, moves = _process_game(g)
    # done once nothing is untouched or occupied
    return _fewest(0, n, start, moves, (0).__eq__)


def pn_plus_exact(g: Graph, r: int) -> int:
    """Least agents over strategies whose last occupied vertex is r.

    The single vertex costs 1 here (it must be placed and removed) even
    though pn of a single vertex is 0 by the surrounded-processing rule.
    """
    if g.n > PN_PLUS_LIMIT:
        raise CapacityError(f"pn+ oracle limited to n <= {PN_PLUS_LIMIT}")
    if r not in g.vertices:
        raise ArgumentError(f"vertex {r} not in graph")
    n, pos, start, moves = _process_game(g)
    # everything processed but r, which is occupied: the final removal ends there
    last = 1 << n + pos[r]
    return _fewest(1, n, start, moves, last.__eq__)


def stable_exact(g: Graph, r: int) -> bool:
    """Definition of stability: an optimal strategy may finish at r, or some
    strategy with at most two agents does."""
    plus = pn_plus_exact(g, r)
    return plus <= 2 or plus == pn_exact(g)


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
    for s in range(1, full + 1):  # every proper subset of s is smaller than s
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


# ---------------------------------------------------------------------------
# node and edge search

class _EdgeGame:
    """What node and edge search share.  Edge i of `g.edges()` is bit i of an
    edge mask; `incident[v]` masks the edges at vertex v and `goal` all of
    them.  A state is (guards, cleared edges), done once every edge is clear."""

    start = (0, 0)

    def __init__(self, g: Graph):
        self.n, self.nbr, pos = _dense(g)
        self.incident = [0] * self.n
        edges = g.edges()
        for i, (u, v) in enumerate(edges):
            self.incident[pos[u]] |= 1 << i
            self.incident[pos[v]] |= 1 << i
        self.goal = (1 << len(edges)) - 1
        self.cells = [(1 << v, inc) for v, inc in enumerate(self.incident)]

    def done(self, state) -> bool:
        return state[1] == self.goal

    def recontaminate(self, guarded: int, cleared: int) -> int:
        """The cleared edges left once contamination has spread from every
        dirty edge through each vertex outside `guarded` that it touches."""
        goal, cells = self.goal, self.cells
        dirty = goal & ~cleared
        while True:
            before = dirty
            for bit, inc in cells:
                if inc & dirty and not guarded & bit:
                    dirty |= inc
            if dirty == before:
                return goal & ~dirty


def ns_exact(g: Graph) -> int:
    """Node search with recontamination: an edge is cleared while both its
    endpoints hold agents; a cleared edge touching an agent-free vertex that
    also touches a contaminated edge is recontaminated.  ns(K1) is 1 by the
    capture convention (the fugitive sits on the vertex)."""
    if g.n > NS_LIMIT:
        raise CapacityError(f"ns oracle limited to n <= {NS_LIMIT}")
    game = _EdgeGame(g)
    cells, recontaminate = game.cells, game.recontaminate

    def moves(state, agents: int):
        occupied, cleared = state
        room = occupied.bit_count() < agents
        held = 0  # the edges at occupied vertices
        for bit, inc in cells:
            if occupied & bit:
                held |= inc
        for bit, inc in cells:
            if occupied & bit:
                left = occupied ^ bit
                yield left, recontaminate(left, cleared)
            elif room:  # placing clears the edges to occupied neighbours
                yield occupied | bit, cleared | inc & held
    # one agent even when there is no edge to clear, none on the empty graph
    return _fewest(min(game.n, 1), game.n, game.start, moves, game.done)


def es_exact(g: Graph) -> int:
    """Edge search with recontamination: searchers are placed, removed, or
    slid along an edge (which clears it).  Several searchers may share a
    vertex."""
    if g.n > ES_LIMIT:
        raise CapacityError(f"es oracle limited to n <= {ES_LIMIT}")
    game = _EdgeGame(g)
    n, incident, recontaminate = game.n, game.incident, game.recontaminate
    # guards pack the searcher count of vertex v into `width` bits at width*v;
    # n + 1 searchers always win (one on each vertex and one to slide)
    width = (n + 1).bit_length()
    full = (1 << width) - 1
    unit = [1 << width * v for v in range(n)]
    cells = [(1 << v, width * v, unit[v],
              [(unit[u], 1 << u, incident[v] & incident[u]) for u in _bits(game.nbr[v])])
             for v in range(n)]

    def moves(state, agents: int):
        counts, cleared = state
        total = guarded = 0
        for bit, shift, _, _ in cells:
            k = counts >> shift & full
            if k:
                total += k
                guarded |= bit
        room = total < agents
        for bit, shift, one, slides in cells:
            if room:
                yield counts + one, cleared
            if guarded & bit:
                left = counts - one
                # the vertex stays guarded only if another searcher is there
                still = guarded if left >> shift & full else guarded ^ bit
                yield left, recontaminate(still, cleared)
                for there, to, edge in slides:
                    yield left + there, recontaminate(still | to, cleared | edge)
    return _fewest(0, n + 1, game.start, moves, game.done)


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
        # no component exceeds pathwidth p: each is a subgraph of T
        with_param = [c for c in comps if solver(c) == p]
        if (len(with_param) >= 3
                and sum(1 for c in with_param if pathwidth_exact(c) == p) <= 2):
            rhs = True
            break
    return lhs == rhs
