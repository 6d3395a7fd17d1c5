"""Helpers shared by several test modules.  The tests directory is on the
import path under pytest, and CI puts it there for the scripts that import
a test module."""

import random
from collections import deque
from functools import lru_cache, partial
from hashlib import sha256
from typing import NamedTuple, Sequence

from treesweep.forest import (ArgumentError, Forest, Graph, StructureError,
                              gen_tree, serialize)
from treesweep.hd import (ContractError, HDescriptor, ParamVariant, Vect,
                          evaluate, merge)


class Digest(NamedTuple):
    """A long stdout's pin: the sha256 of the whole text (None for output
    with a fitted float in it) and lines it must hold, each whole."""
    sha256: str | None
    lines: tuple[str, ...] = ()


class CliRun(NamedTuple):
    """One pinned CLI run: its argv, the files it reads (name -> text, or a
    zero-argument builder of the text), its exit code, its stdout (the text
    itself or a `Digest`) and its exact stderr."""
    argv: list[str]
    files: dict
    code: int
    out: str | Digest
    err: str = ""


def _ok(command, files, out):
    return CliRun(command.split(), files, 0, out)


def _refused(command, files, line):
    """A clean error: exit 2, no stdout and one stderr line."""
    return CliRun(command.split(), files, 2, "", line + "\n")


def _gen(kind, *params):
    """What `treesweep gen kind params...` writes."""
    return serialize(gen_tree(kind, *params))


def _grown_path(n, tail):
    """A dynamic script that adds an n-vertex path's edges in order, then
    `tail`."""
    return "".join(f"add {v} {v + 1}\n" for v in range(n - 1)) + tail


def write_inputs(rows):
    """Writes the files the rows read into the working directory, each
    built once; rows that name one file must give it one source."""
    sources = {}
    for row in rows:
        for name, source in row.files.items():
            if sources.setdefault(name, source) != source:
                raise ValueError(f"two sources for {name}")
    for name, source in sources.items():
        with open(name, "w") as fh:
            fh.write(source() if callable(source) else source)


def outcome(row, code, out, err):
    """What a run of `row` gave, in the form of (row.code, row.out,
    row.err): against a `Digest`, the sha256 of the stdout and the row's
    lines that it holds."""
    if isinstance(row.out, Digest):
        held = set(out.splitlines())
        out = Digest(row.out.sha256 and sha256(out.encode()).hexdigest(),
                     tuple(line for line in row.out.lines if line in held))
    return code, out, err


_PATH4 = {"path4.txt": "0 1\n1 2\n2 3\n"}
# a tree whose strategy sweeps unstable pieces
_RANDOM29 = {"random.txt": partial(_gen, "random", 29, 0)}
_SCRIPT = {"script.txt": """\
# a path, a star hung off it, a cut, rejoins and reroots
add 0 1
add 1 2
add 2 3
add 5 4
add 4 6
add 4 7
query 0
add 3 4
reroot 6
query 0
del 2 3
query 1
query 7
reroot 0
add 7 8
del 4 5
query 5
add 5 0
reroot 8
query 2
"""}
_GROW2000 = {"grow2000.txt": partial(_grown_path, 2000, (
    "reroot 0\nquery 1999\ndel 999 1000\nquery 0\nquery 1999\nadd 0 1999\n"
    "reroot 1000\nquery 0\n"))}
_CYCLE = {"cycle.txt": "0 1\n1 2\n2 0\n"}
_EMPTY = {"empty.txt": ""}

# Every CLI run that tier-1 or CI pins, one row each.  `CLI_RUNS` holds the
# cheap rows: `test_cli.py` runs each through `cli.main` and
# `test_reachability.py` traces them all.  CI's "CLI runs" step runs these
# and `CLI_SCALE_RUNS` through the installed `treesweep`.
CLI_RUNS = [
    _ok("gen path 5", {}, "n 5\n0 1\n1 2\n2 3\n3 4\n"),
    _ok("gen star 4", {}, "n 5\n0 1\n0 2\n0 3\n0 4\n"),
    _ok("gen spider 2 2 2", {}, "n 7\n0 1\n0 3\n0 5\n1 2\n3 4\n5 6\n"),
    _ok("gen spider 2 3 4", {},
        Digest("7285f34ace1cdb861b892355773e80c71010d39fd972a55683701a350bf6d623")),
    _ok("gen spider 40 50 60", {},
        Digest("d746463f045e3c11a8efd363200e4fa4957a371e79638d1708cd60b207b8b4a6")),
    _ok("gen theorem1 2", {},
        Digest("8043fa7f09ab14f292434da6b6b924efa16dd9f0750d943ff61228efc711d8a4")),
    _ok("gen theorem1 8", {},
        Digest("5b105b6d3d0aa54cb4380a89cb42e40321ecc6715044f934248e85c4412c661b")),
    _ok("gen random 30 1", {},
        Digest("b79608c8a9607c16b25e7d9c6be01ecac600d3448518ddba8d40e59ce41f4586")),
    _ok("gen random 1000 7", {},
        Digest("13561e293f402bf6e838e973666a4945731bd4689eb0ed5d7b59c553ddbb8985")),
    _ok("compute random.txt --param pn --encoding known --stats", _RANDOM29,
        "param=pn value=3\nmessages=28 bits=168 steps=29\n"),
    _ok("compute random.txt --param pn --encoding unknown --stats", _RANDOM29,
        "param=pn value=3\nmessages=28 bits=164 steps=29\n"),
    _ok("compute random.txt --param ns --encoding known --stats", _RANDOM29,
        "param=ns value=3\nmessages=28 bits=196 steps=29\n"),
    _ok("compute random.txt --param ns --encoding unknown --stats", _RANDOM29,
        "param=ns value=3\nmessages=28 bits=208 steps=29\n"),
    _ok("compute random.txt --param es --encoding known --stats", _RANDOM29,
        "param=es value=3\nmessages=28 bits=168 steps=29\n"),
    _ok("compute random.txt --param es --encoding unknown --stats", _RANDOM29,
        "param=es value=3\nmessages=28 bits=164 steps=29\n"),
    _ok("compute random.txt --param pw --encoding known --stats", _RANDOM29,
        "param=pw value=2\nmessages=28 bits=196 steps=29\n"),
    _ok("compute random.txt --param pw --encoding unknown --stats", _RANDOM29,
        "param=pw value=2\nmessages=28 bits=208 steps=29\n"),
    _ok("compute random.txt --transcript --strategy", _RANDOM29,
        Digest("b9818d5fb8452ed2f0d91d43959b6015532e2702e7244c14c97e83c4ee913ad6")),
    _ok("compute path4.txt --param pn", _PATH4, "param=pn value=2\n"),
    _ok("compute path4.txt --stats --strategy --transcript", _PATH4,
        Digest("eff329a0e2c18a35ce77815b039047ab1518d8172df0dd3c49666170b6ab750a")),
    _ok("compute star.txt --param pw", {"star.txt": "0 1\n0 2\n0 3\n"},
        "param=pw value=1\n"),
    _ok("compute theorem1-3.txt --param pn",
        {"theorem1-3.txt": partial(_gen, "theorem1", 3)}, "param=pn value=3\n"),
    _ok("compute path4000.txt --param pn --strategy",
        {"path4000.txt": partial(_gen, "path", 4000)},
        Digest("8ed80ae5a71e77d3a665ef8e03e3f2ef8e0c87618ea902e7d6b5e29d7c33eab8",
               ("strategy_peak=2",))),
    _ok("compute spider1500.txt --param pn --strategy",
        {"spider1500.txt": partial(_gen, "spider", 1500, 1500, 1500)},
        Digest("442f0d4fb87116fa03090cd3d093bd5bd4d81912be573abc3888a7d8ef561f5c",
               ("strategy_peak=3",))),
    _ok("dynamic script.txt --param pn --encoding known --stats", _SCRIPT,
        "query 0 value=2\nquery 0 value=2\nquery 1 value=1\nquery 7 value=1\n"
        "query 5 value=0\nquery 2 value=2\nmessages=37 bits=185 steps=43\n"),
    _ok("dynamic script.txt --param pn --encoding unknown --stats", _SCRIPT,
        "query 0 value=2\nquery 0 value=2\nquery 1 value=1\nquery 7 value=1\n"
        "query 5 value=0\nquery 2 value=2\nmessages=37 bits=217 steps=43\n"),
    _ok("dynamic script.txt --param ns --encoding known --stats", _SCRIPT,
        "query 0 value=2\nquery 0 value=2\nquery 1 value=2\nquery 7 value=2\n"
        "query 5 value=1\nquery 2 value=2\nmessages=37 bits=222 steps=43\n"),
    _ok("dynamic script.txt --param ns --encoding unknown --stats", _SCRIPT,
        "query 0 value=2\nquery 0 value=2\nquery 1 value=2\nquery 7 value=2\n"
        "query 5 value=1\nquery 2 value=2\nmessages=37 bits=259 steps=43\n"),
    _ok("dynamic script.txt --param es --encoding known --stats", _SCRIPT,
        "query 0 value=1\nquery 0 value=2\nquery 1 value=1\nquery 7 value=2\n"
        "query 5 value=0\nquery 2 value=1\nmessages=37 bits=185 steps=43\n"),
    _ok("dynamic script.txt --param es --encoding unknown --stats", _SCRIPT,
        "query 0 value=1\nquery 0 value=2\nquery 1 value=1\nquery 7 value=2\n"
        "query 5 value=0\nquery 2 value=1\nmessages=37 bits=223 steps=43\n"),
    _ok("dynamic joins.txt --stats",
        {"joins.txt": "add 0 1\nadd 2 3\nadd 1 2\nquery 0\ndel 1 2\nquery 3\n"},
        "query 0 value=2\nquery 3 value=1\nmessages=5 bits=25 steps=10\n"),
    _ok("dynamic grow2000.txt --stats", _GROW2000,
        "query 1999 value=2\nquery 0 value=2\nquery 1999 value=2\nquery 0 value=2\n"
        "messages=13990 bits=139900 steps=10001\n"),
    _ok("dynamic grow2000.txt --stats --param ns --encoding unknown", _GROW2000,
        "query 1999 value=2\nquery 0 value=2\nquery 1999 value=2\nquery 0 value=2\n"
        "messages=13990 bits=101920 steps=10001\n"),
    *(_ok(f"conformance --max-n 5 --param {param}", {},
          f"trees=8 param={param} fail=0\n")
      for param in ("all", "relations", "pn", "ns", "es")),
    # the smallest trees of pathwidth 2, where the gap check compares
    _ok("conformance --max-n 7 --param gap", {}, "trees=25 param=gap fail=0\n"),
    # the table rows; the fitted slopes are floats
    _ok("experiments --sizes 20,40", {},
        Digest(None, ("20 19 114 0.95", "40 39 273 0.97", "20 261 1566 13.05",
                      "40 929 6503 23.23"))),
    _refused("gen spider 1 2", {},
             "error: spider expects l1 l2 l3, got 2 argument(s)"),
    _refused("compute empty.txt", _EMPTY, "error: empty tree"),
    _refused("compute empty.txt --encoding unknown", _EMPTY, "error: empty tree"),
    *(_refused(f"compute nocount.txt --encoding {encoding}", {"nocount.txt": "n 0\n"},
               "error: empty tree") for encoding in ("known", "unknown")),
    _refused("compute cycle.txt", _CYCLE,
             "error: line 3: edge (2, 0) would create a cycle"),
    _refused("compute cycle.txt --encoding unknown", _CYCLE,
             "error: line 3: edge (2, 0) would create a cycle"),
    # in `serialize`'s form: the bulk parse gives up, the line loop words it
    _refused("compute formcycle.txt", {"formcycle.txt": "n 3\n0 1\n1 2\n0 2\n"},
             "error: line 4: edge (0, 2) would create a cycle"),
    _refused("compute duplicate.txt", {"duplicate.txt": "0 1\n1 0\n"},
             "error: line 2: duplicate edge (1, 0)"),
    _refused("compute selfloop.txt", {"selfloop.txt": "n 3\n2 2\n"},
             "error: line 2: self-loop at vertex 2"),
    _refused("compute negative.txt", {"negative.txt": "0 -1\n"},
             "error: line 1: negative vertex id in '0 -1'"),
    _refused("compute twocounts.txt", {"twocounts.txt": "n 2\nn 2\n"},
             "error: line 2: bad vertex-count line 'n 2'"),
    # refused before the tree is read
    _refused("compute edge.txt --param ns --strategy", {"edge.txt": "0 1\n"},
             "error: strategy extraction supports --param pn only"),
    *(_refused(f"compute path4.txt --param {param} --strategy", _PATH4,
               "error: strategy extraction supports --param pn only")
      for param in ("es", "pw")),
    _refused("dynamic novertex.txt", {"novertex.txt": "# no vertex\n"},
             "error: script names no vertices"),
    _refused("dynamic emptyscript.txt", {"emptyscript.txt": ""},
             "error: script names no vertices"),
    # a script that names no vertex reports its first command
    _refused("dynamic badcommand.txt", {"badcommand.txt": "# no vertex\nfrob 1\n"},
             "error: line 2: bad command 'frob 1'"),
    _refused("dynamic header.txt", {"header.txt": "# header\nfrob 1\nquery\n"},
             "error: line 2: bad command 'frob 1'"),
    _refused("dynamic query.txt", {"query.txt": "query\n"},
             "error: line 1: bad command 'query'"),
    _refused("dynamic blank.txt", {"blank.txt": "\nadd\nreroot\n"},
             "error: line 2: bad command 'add'"),
    # the script names a vertex, so the line fails when it runs
    _refused("dynamic badarity.txt", {"badarity.txt": "add 0 1\nadd 2\n"},
             "error: line 2: bad command 'add 2'"),
    _refused("dynamic queryarity.txt", {"queryarity.txt": "add 0 1\nquery 0\nquery 0 1\n"},
             "error: line 3: bad command 'query 0 1'"),
    _refused("dynamic frob.txt", {"frob.txt": "add 0 1\nfrob 2\n"},
             "error: line 2: bad command 'frob 2'"),
    _refused("dynamic badinteger.txt", {"badinteger.txt": "add 0 1\nadd 1 x\n"},
             "error: line 2: bad integer in 'add 1 x'"),
    # refused before any line runs
    _refused("dynamic negativeid.txt", {"negativeid.txt": "query -1\n"},
             "error: line 1: negative vertex id in 'query -1'"),
    _refused("dynamic laternegative.txt",
             {"laternegative.txt": "add 0 1\nquery 1\ndel 0 -3\nadd 0 x\n"},
             "error: line 3: negative vertex id in 'del 0 -3'"),
    _refused("dynamic addcycle.txt", {"addcycle.txt": "add 0 1\nadd 1 2\nadd 2 0\n"},
             "error: line 3: edge (2, 0) would create a cycle"),
    _refused("dynamic delmissing.txt", {"delmissing.txt": "add 0 1\ndel 0 5\n"},
             "error: line 2: edge (0, 5) does not exist"),
    _refused("conformance --max-n 0", {}, "error: --max-n must be at least 1"),
    _refused("conformance --max-n 11 --param es", {},
             "error: --max-n 11 exceeds the oracle cap of 10 for --param es"),
]

_PATH100K = partial(_gen, "path", 100000)
_RANDOM100K = {"random100k.txt": partial(_gen, "random", 100000, 1)}
_REROOT20000 = {"reroot20000.txt": partial(_grown_path, 20000,
                                           "reroot 0\nreroot 19999\n" * 25)}
# cuts and rejoins on a 5000-vertex path: either side of a cut may move, a
# cut may leave a one-vertex side, and a join may meet an isolated endpoint
_CUT5000 = {"cut5000.txt": partial(_grown_path, 5000, "".join(
    f"del {a} {a + 1}\nreroot {4999 - a}\nadd {a} {a + 1}\nquery {a * 7 % 5000}\n"
    for a in (k * 41 % 4999 for k in range(1, 61))) + (
    "del 0 1\nquery 0\nadd 1 0\ndel 4998 4999\ndel 2499 2500\nadd 4999 0\n"
    "query 2500\nadd 2499 4998\nquery 0\n"))}

# the rows that take seconds
CLI_SCALE_RUNS = [
    *(_ok(f"conformance --max-n 10 --param {param}", {},
          f"trees=201 param={param} fail=0\n")
      for param in ("all", "relations", "gap")),
    _ok("gen random 100000 1", {},
        Digest("f692f3f6bd0ea4dda148eb640a34b21bbd888d5929fae0ca77199dd93665fac6")),
    _ok("compute path.txt --param ns --stats", {"path.txt": _PATH100K},
        "param=ns value=2\nmessages=99999 bits=1399986 steps=100000\n"),
    # a path in order is one 10^5-deep union-find chain; the closing edge's
    # root lookup walks all of it
    _refused("compute deepcycle.txt",
             {"deepcycle.txt": lambda: _PATH100K() + "0 99999\n"},
             "error: line 100001: edge (0, 99999) would create a cycle"),
    _ok("compute theorem1-9.txt --param pn --strategy --stats",
        {"theorem1-9.txt": partial(_gen, "theorem1", 9)},
        Digest("136d40aced457406c4dc0f8a3e3dec9a8b776303e8a2c35d4bcbd2a512e33c8f",
               ("param=pn value=9", "messages=29523 bits=354276 steps=29524",
                "strategy_peak=9"))),
    _ok("compute random100k.txt --param pn --strategy --stats", _RANDOM100K,
        Digest("819bfa748c7c52b4f833e53c13142188b9f60c9eb1181703aa546742de6f4fd9",
               ("param=pn value=7", "messages=99999 bits=1299987 steps=100000",
                "strategy_peak=7"))),
    _ok("compute random100k.txt --param ns --transcript", _RANDOM100K,
        Digest("ee5dde27430b9942671193f7c87d506c619bb993221ad18355b8d808f372078e")),
    _ok("compute random100k.txt --param pn --encoding unknown --transcript",
        _RANDOM100K,
        Digest("e9f1da8eb3e0443714317118b46a5d41b0377155de96791e721e0197bf602bad")),
    _ok("dynamic deep20000.txt --stats",
        {"deep20000.txt": partial(_grown_path, 20000, "query 0\nquery 19999\n" * 500 + (
            "del 9999 10000\nquery 0\nquery 19999\nadd 0 19999\nquery 10000\n"))},
        Digest("95786693b7ff515f5503707536126ea4345de3ce8d47457fd4949b6edb861d03",
               ("query 0 value=2", "query 19999 value=2", "query 10000 value=2",
                "messages=79994 bits=1039922 steps=70001"))),
    _ok("dynamic reroot20000.txt --encoding unknown --stats", _REROOT20000,
        "messages=2019899 bits=14178883 steps=1039998\n"),
    _ok("dynamic reroot20000.txt --param ns --stats", _REROOT20000,
        "messages=2019899 bits=28278586 steps=1039998\n"),
    _ok("dynamic cut5000.txt --stats", _CUT5000,
        Digest("d75721368ef430ec5d63f057054c47a657a57ff6b9f30a62150c7d38a3892cfa",
               ("query 0 value=0", "messages=653880 bits=7192680 steps=334782"))),
    _ok("dynamic cut5000.txt --stats --param ns --encoding unknown", _CUT5000,
        Digest("396daafe5ca5d97a0317cff18ce8c0f4f7da695da2bd2afd8769b4fd484c7542",
               ("messages=653880 bits=4587150 steps=334782",))),
    # the table rows; the fitted slopes are floats
    _ok("experiments --sizes 400,800", {},
        Digest(None, ("400 399 3591 1.00", "800 799 7990 1.00", "400 75563 680067 188.91",
                      "800 295147 2951470 368.93"))),
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
