import gc
import hashlib
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from treesweep.codec import UnknownSize, decode
from treesweep.dynamic import DynamicForest
from treesweep.forest import (ArgumentError, Forest, Graph, gen_tree,
                              parse_edge_list, path_tree, random_tree,
                              star_tree, theorem1_tree)
from treesweep.hd import ContractError, ParamVariant, ceil_log3
from treesweep.oracle import pathwidth_exact
from treesweep.protocol import (CostCounters, Schedule, default_scheme,
                                elect_root, run_static)

from helpers import cycle_graph, hdesc

PN = ParamVariant.PROCESS_NUMBER
NS = ParamVariant.NODE_SEARCH
ES = ParamVariant.EDGE_SEARCH


@pytest.mark.parametrize("seed", range(3))
def test_descriptor_validated_at_most_twice_per_message(seed, monkeypatch, cold_memos):
    # once on the merge's children, once on decode; evaluate adds one at the
    # root.  The memos validate only on a miss, so decode validates once per
    # distinct frame.
    import treesweep.codec as codec
    import treesweep.hd as hd
    calls = []

    def counting(module):
        original = module.validate_descriptor

        def wrapper(*args, **kwargs):
            calls.append(module.__name__)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, "validate_descriptor", wrapper)

    counting(hd)
    counting(codec)
    run = run_static(random_tree(500, seed))
    assert run.counters.messages == 499
    assert len(calls) <= 2 * run.counters.messages + 1
    assert calls.count("treesweep.codec") == len({bits for *_, bits in run.wires})


def test_hot_paths_stay_on_the_memos(monkeypatch, cold_memos):
    # every descriptor a run, a dynamic forest or an extraction merges or
    # encodes carries the tag: each merge computed is a memo miss, and no
    # frame is built outside the encode memo
    import treesweep.codec as codec
    import treesweep.hd as hd
    from treesweep.dynamic import DynamicForest
    from treesweep.strategy import extract
    merges, fresh_encodes = [], []

    def counting(module, name, calls):
        original = getattr(module, name)

        def wrapper(*args):
            calls.append(args)
            return original(*args)
        monkeypatch.setattr(module, name, wrapper)

    counting(hd, "_merge", merges)
    counting(codec, "_encode", fresh_encodes)
    tree = random_tree(300, 2)
    for variant in ParamVariant:
        for encoding in ("known", "unknown"):
            run_static(tree, variant, default_scheme(tree.n, variant, encoding))
    df = DynamicForest.from_tree(tree, PN, encoding="unknown")
    df.change_root(0)
    father = df.father[tree.n - 1]
    df.delete_edge(tree.n - 1, father)
    df.add_edge(father, tree.n - 1)
    extract(tree, run_static(tree))
    assert merges and len(merges) == hd._merge_memo.cache_info().misses
    assert fresh_encodes == []


def test_elect_root():
    assert elect_root(3, 7) == 7
    assert elect_root(7, 3) == 7


def test_path4():
    run = run_static(path_tree(4))
    assert run.value == 2
    assert run.counters.messages == 3
    assert run.counters.steps == 4


def test_single_vertex():
    run = run_static(path_tree(1))
    assert run.value == 0 and run.counters.messages == 0
    assert run.counters.steps == 1
    run = run_static(path_tree(1), NS)
    assert run.value == 1


def test_theorem1_tower():
    for k in range(1, 5):
        t = theorem1_tree(k)
        run = run_static(t)
        assert run.value == k
        assert run.counters.messages == t.n - 1


@pytest.mark.parametrize("call,error,message", [
    (lambda: run_static(Forest()), ArgumentError, "empty tree"),
    (lambda: DynamicForest.isolated(0), ArgumentError, "need at least one vertex"),
], ids=["run-static", "isolated"])
def test_empty_input_error_paths(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message


def test_disconnected_rejected():
    f = parse_edge_list("n 4\n0 1\n2 3\n")
    with pytest.raises(ArgumentError):
        run_static(f)


def test_two_leaves_elect():
    run = run_static(path_tree(2))
    assert run.root == 1  # larger identifier wins the candidate race
    assert run.counters.messages == 1
    assert run.value == 1


def test_node_search_is_pathwidth_plus_one(trees_up_to_8):
    for t in trees_up_to_8:
        assert run_static(t, NS).value == pathwidth_exact(t) + 1


@given(st.integers(2, 40), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_message_count_and_size(n, seed):
    t = random_tree(n, seed)
    run = run_static(t)
    assert run.counters.messages == n - 1
    per = ceil_log3(n) + 2
    assert run.counters.bits == (n - 1) * per
    for _, _, _, wire in run.wires:
        assert len(wire) == per
    run = run_static(t, scheme=UnknownSize())
    for _, _, hd, wire in run.wires:
        assert len(wire) == 2 * hd.length + 4


def test_schedule_independence():
    for n, seed0 in ((13, 1), (20, 2), (27, 3)):
        t = random_tree(n, seed0)
        runs = [run_static(t, schedule=Schedule(seed))
                for seed in range(50)]
        values = {r.value for r in runs}
        roots = {r.root for r in runs}
        snapshots = {
            (tuple(sorted(r.father.items())),
             tuple(sorted((v, tuple(sorted(entries.items())))
                          for v, entries in r.received.items())))
            for r in runs
        }
        assert len(values) == 1 and len(roots) == 1 and len(snapshots) == 1
        transcripts = {r.transcript() for r in runs}
        assert len(transcripts) > 1  # the orderings really differ


def test_same_seed_same_transcript():
    t = random_tree(17, 4)
    a = run_static(t, schedule=Schedule(9)).transcript()
    b = run_static(t, schedule=Schedule(9)).transcript()
    assert a == b


def test_id_permutation_keeps_value():
    t = random_tree(12, 9)
    base = run_static(t).value
    # relabel by reversing ids; the election outcome changes, the value not
    mapping = {v: t.n - 1 - v for v in t.vertices}
    relabeled = parse_edge_list(
        "n %d\n" % t.n +
        "".join(f"{min(mapping[u], mapping[v])} {max(mapping[u], mapping[v])}\n"
                for u, v in t.edges()))
    assert run_static(relabeled).value == base


def test_transcript_format():
    run = run_static(path_tree(3))
    lines = run.transcript().strip().splitlines()
    assert lines[-1] == "VISIT 1"  # the center hears from both ends
    assert any(line.startswith("SEND 0→1 ") for line in lines)


@pytest.mark.parametrize("size", [0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 1000, 4096])
def test_schedule_order_draws_as_shuffle(size):
    # the bit-length boundaries of the draws; both streams must also end
    # in the same state, so the next round's draws agree too
    for seed in range(6):
        ready = list(range(size, 0, -1))
        ours, theirs = random.Random(seed), random.Random(seed)
        expected = sorted(ready)
        theirs.shuffle(expected)
        assert Schedule(seed).order(ready, ours) == expected
        assert ready == list(range(size, 0, -1))  # the input is not touched
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("seed,ready,order", [
    (0, list(range(10)), [7, 8, 1, 5, 3, 4, 2, 0, 9, 6]),
    (1, list(range(10)), [6, 8, 9, 7, 5, 3, 0, 4, 1, 2]),
    (5, list(range(10)), [2, 3, 1, 0, 8, 7, 6, 5, 4, 9]),
    (3, [9, 4, 7, 1, 8], [1, 7, 8, 9, 4]),
    (2, list(range(20)), [7, 6, 17, 8, 19, 15, 13, 0, 3, 9, 14, 4, 10, 12,
                          16, 5, 11, 18, 2, 1]),
])
def test_schedule_order_golden(seed, ready, order):
    # literal permutations: they pin the schedule to the getrandbits stream
    # of a seeded generator; the test above only ties it to this
    # interpreter's shuffle
    assert Schedule(seed).order(ready, random.Random(seed)) == order


def test_transcript_golden():
    run = run_static(random_tree(6, 1), schedule=Schedule(3))
    assert run.transcript() == (
        "SEND 5→2 0001\nVISIT 5\nSEND 3→1 0001\nVISIT 3\nSEND 2→0 1010\n"
        "VISIT 2\nSEND 1→4 1010\nVISIT 1\nSEND 0→4 1011\nVISIT 0\nVISIT 4\n")


@pytest.mark.parametrize("variant,encoding,digest", [
    (PN, "known", "c0e1dc83e07cecc2513ca34a83366f623677390a000cfd76c440b6da8c116a3f"),
    (PN, "unknown", "ce7381d859a5d7487e05c480826ca598f5bb65c72251daa4a7e51957cfdca248"),
    (NS, "known", "4454b9b94047ac5483b90a9489d12eda19efc74bbbc9016a4eeabd1abfe7a834"),
    (NS, "unknown", "48f028a5af7774505db5241d0540b166019451e1ed7b7d82d640de4818fd12eb"),
    (ParamVariant.EDGE_SEARCH, "known",
     "d7e17e8a276383e04ef43072e8c125bc599ed064954149c687fb57798425712a"),
    (ParamVariant.EDGE_SEARCH, "unknown",
     "04bc8b08f47a64651e70b0144aeb3a900ea78d163c2fe722692518b95e9d5db7"),
])
def test_shuffle_transcript_golden(variant, encoding, digest):
    t = random_tree(30, 11)
    run = run_static(t, variant, default_scheme(t.n, variant, encoding),
                     Schedule(5))
    text = run.transcript()
    assert len(text.splitlines()) == 2 * (t.n - 1) + 1
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_steps_equal_n(trees_up_to_8):
    for t in trees_up_to_8[:60]:
        assert run_static(t).counters.steps == t.n


@pytest.mark.parametrize("kind,args,rounds,root", [
    ("path", (3000,), 1500, 1500),
    ("spider", (1000, 1000, 1000), 1000, 0),
    ("theorem1", (6,), 6, 1092),
    ("star", (2000,), 1, 0),  # the centre is emptied in the one round
])
def test_peel_rounds_golden(kind, args, rounds, root, monkeypatch):
    # one Schedule.order call per peel round
    calls = 0
    order = Schedule.order

    def counting_order(self, ready, rng):
        nonlocal calls
        calls += 1
        return order(self, ready, rng)

    monkeypatch.setattr(Schedule, "order", counting_order)
    t = gen_tree(kind, *args)
    run = run_static(t)
    assert (calls, run.root) == (rounds, root)
    assert run.counters.messages == t.n - 1


# sha256 of the transcript and the counters of a Schedule(1) run, pinned at
# the benchmark's sizes to guard the peel loop's send order
@pytest.mark.parametrize("kind,args,variant,encoding,digest", [
    ("random", (4096, 1), PN, "known",
     "3dda505f9e85e25fab9616287d78c912003a12a632efd16025d66b3c7ec04ca4"),
    ("random", (4096, 1), PN, "unknown",
     "0cf3e844dfa134c2fc09c54c4d149039fe88ec17aeafc25ff6ac5c609d08e0d3"),
    ("random", (4096, 1), NS, "known",
     "dc9a9e2544745781e78d2fc95999f03b2dc458b80e5d92679a55a3bf9c6c271e"),
    ("random", (4096, 1), NS, "unknown",
     "aa6379785905f6ea2126ee6fb09e5975ccbe41e3a14c70697243f7f1e5cbb168"),
    ("random", (4096, 1), ES, "known",
     "4352e7be3b9bee61a430b33da788166f09be6fea6e9a4c110cc89173f907b026"),
    ("random", (4096, 1), ES, "unknown",
     "0712e728bd6eec0ce66d43dc6ffc4139e9b42130826ff01c7b119eda6765f019"),
    ("path", (3000,), PN, "known",
     "bfbbe00c1363e3754b2988e63b632441c13949497d738cfc64127a885281a5da"),
    ("path", (3000,), PN, "unknown",
     "812f6986448394444784170d1f6b3922a81654a7c77ae0ad92db26499e6fea06"),
    ("path", (3000,), NS, "known",
     "02dddd9c53d5d21575645385b28fc6a59e78b56546d13537c05a4ff990039e97"),
    ("path", (3000,), NS, "unknown",
     "faaa491e13468ad9b722353fe39dbed01278eda0e2c1cd8ac34ccd98fe38e029"),
    ("path", (3000,), ES, "known",
     "aca54ef1ba919c59125c9a091891470cd720ff142d1a61325d550e514eef6901"),
    ("path", (3000,), ES, "unknown",
     "7aca9fb8dbe03d234931ab73ff920d2d1c825fa6c22ead9370f46ffb96a1efeb"),
    ("spider", (1000, 1000, 1000), PN, "known",
     "ae12dabab4160ecfaa59587f0c60a221057131c3ae7c5508b95dbdeee55e5cd7"),
    ("spider", (1000, 1000, 1000), PN, "unknown",
     "d4be09ce5f80e0d0557fecaea85a37ca486d6b7a8dcf235b7e48e84c119a79f7"),
    ("spider", (1000, 1000, 1000), NS, "known",
     "be031f1faad3b97a4fc4d7c162d9f33511d4b8501ce6de35e8fe755c46e7d516"),
    ("spider", (1000, 1000, 1000), NS, "unknown",
     "8fb7886e05213d2f899c1f79f2100991ad86369b532b85a6ba1583a36792f12a"),
    ("spider", (1000, 1000, 1000), ES, "known",
     "a2f343d90c31de07f4af4d090cd0ec35619751cb2b3a4321628b9d25418691e9"),
    ("spider", (1000, 1000, 1000), ES, "unknown",
     "e72045f8f5d911fed2a5522d06304896ef7dc23ede6506e5739607bffcd6dcb2"),
    ("star", (2000,), PN, "known",
     "7965d4e234a408e986f98a2dd728cb98f4aa77fc633f85fa8e489f242f26f815"),
    ("star", (2000,), PN, "unknown",
     "8418d3cee47089faa5e07f1ef5b3b9f432c4a73cb96aae31e2fcdf35cce0f5cb"),
    ("star", (2000,), NS, "known",
     "847882308d9c8fd1a715c3227851c50619231bde5a2caf45e8210bd25f2c4e55"),
    ("star", (2000,), NS, "unknown",
     "898a76760e2cc3f8a10f66061c549336b3b37eea5b68219483dc5a88fb5ee71c"),
    ("star", (2000,), ES, "known",
     "7965d4e234a408e986f98a2dd728cb98f4aa77fc633f85fa8e489f242f26f815"),
    ("star", (2000,), ES, "unknown",
     "8418d3cee47089faa5e07f1ef5b3b9f432c4a73cb96aae31e2fcdf35cce0f5cb"),
])
def test_scale_transcript_golden(kind, args, variant, encoding, digest):
    t = gen_tree(kind, *args)
    run = run_static(t, variant, default_scheme(t.n, variant, encoding), Schedule(1))
    c = run.counters
    text = run.transcript() + f"messages={c.messages} bits={c.bits} steps={c.steps}\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of what a Schedule(1) run leaves per vertex, in id order: its
# father and its received entries in arrival order
@pytest.mark.parametrize("kind,args,variant,digest", [
    ("random", (4096, 1), PN,
     "f9c6c67412592acb7e74308c3ccfd818e33dde08484dfcc3ac41a0c2ff63305c"),
    ("random", (4096, 1), NS,
     "0717eac403302f764dccee36d46fbf6ccfbf497ddf5c94baa00bbe64975bc995"),
    ("random", (4096, 1), ES,
     "f3100ac8a2137d314d6126ded5e60d130924a2947c43b7b7d8fa37a53308bba6"),
    ("path", (3000,), PN,
     "d4fac6a5fdcbbcd3d43422e3225fd46fcb5bf6a1d759bbd082d92ddcf196dcc5"),
    ("path", (3000,), NS,
     "082624f3d0f6d290f29357ee34445c2f81a6d2004abfd28bc78000410215e79e"),
    ("path", (3000,), ES,
     "23eae6af7507afcf081cd18e3f1505e02bdc12bd6f267f58e9b955acc5577b2a"),
    ("spider", (1000, 1000, 1000), PN,
     "2212a256e5bab72436383215c4cafa6c9b70c57e0208ea1873f68e931d4bdddd"),
    ("spider", (1000, 1000, 1000), NS,
     "348f57bfa6cacd9387032f5989267ab7c1011dd7a9243696807d93907cdf60d8"),
    ("spider", (1000, 1000, 1000), ES,
     "4cc9e54e95eac3f0aa853f35971681f177a0ab51c76f2efa118dc161e20172d7"),
    ("theorem1", (6,), PN,
     "dc2ddc3cf003ff9ca241258f4f13c90b6d45dd76b42a0f2bfa4479448394ebe5"),
    ("theorem1", (6,), NS,
     "b8fcf664f38bc4534228d54658984b286eee05adf90885180156091048500d06"),
    ("theorem1", (6,), ES,
     "902446756a2536e8d9edcc3bf3ffc2a88dc0c2bc745c8bdd344cf4d4444e1189"),
])
def test_scale_states_golden(kind, args, variant, digest):
    t = gen_tree(kind, *args)
    run = run_static(t, variant, schedule=Schedule(1))
    h = hashlib.sha256()
    for v in sorted(t.vertices):
        items = [(u, *hd.vect, hd.table) for u, hd in run.received.get(v, {}).items()]
        h.update(f"{v} {run.father.get(v)} {items}\n".encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("forest", [
    Forest(range(6), [(0, 1), (1, 2), (3, 4), (4, 5)]),  # two paths
    Forest(range(4), [(0, 1), (1, 2)]),                  # an isolated vertex
], ids=["two-components", "isolated-vertex"])
def test_disconnected_forest_is_rejected(forest, monkeypatch):
    # a forest's edge count decides connectivity: no search runs
    monkeypatch.setattr(Graph, "component_of", None)
    with pytest.raises(ArgumentError) as err:
        run_static(forest)
    assert str(err.value) == "tree is disconnected; use the dynamic module for forests"


@pytest.mark.parametrize("graph,left", [
    (cycle_graph(3), [0, 1, 2]),
    (Graph(range(5), [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]), [0, 1, 2]),
], ids=["triangle", "triangle-with-tail"])
def test_connected_graph_with_a_cycle_keeps_its_error(graph, left):
    with pytest.raises(ContractError) as err:
        run_static(graph)
    assert str(err.value) == f"peeling left {left} without a father"


def test_disconnected_graph_is_rejected():
    with pytest.raises(ArgumentError, match="^tree is disconnected; use the dynamic"):
        run_static(Graph(range(4), [(0, 1), (2, 3)]))


class _CountedSet(set):
    __slots__ = ()
    visits = 0

    def __iter__(self):
        for u in set.__iter__(self):
            _CountedSet.visits += 1
            yield u


class _CountedAdj(dict):
    lookups = 0

    def __getitem__(self, v):
        _CountedAdj.lookups += 1
        return dict.__getitem__(self, v)


def _broom(handle: int, bristles: int) -> Forest:
    """A path 0..handle-1 with `bristles` leaves hung on its end 0."""
    edges = [(i, i + 1) for i in range(handle - 1)]
    edges += [(0, handle + i) for i in range(bristles)]
    return Forest(range(handle + bristles), edges)


def _double_star(k: int) -> Forest:
    """Hubs 0 and 1, joined, each with k leaves."""
    edges = [(0, 1)] + [(hub, 2 + 2 * i + hub) for i in range(k) for hub in (0, 1)]
    return Forest(range(2 * k + 2), edges)


@pytest.mark.parametrize("build", [lambda: _broom(5000, 5000), lambda: _double_star(5000)],
                         ids=["broom", "double-star"])
@pytest.mark.parametrize("variant", [PN, ES], ids=lambda v: v.value)
def test_peel_reads_each_adjacency_a_constant_number_of_times(build, variant,
                                                              monkeypatch):
    # a firing node reads its own adjacency once, to find its father, and
    # its father's size once: a hub that hears thousands of leaves is
    # scanned once, not once per message
    tree = build()
    want = run_static(tree, variant)
    tree.adj = _CountedAdj({v: _CountedSet(nbrs) for v, nbrs in tree.adj.items()})
    monkeypatch.setattr(_CountedAdj, "lookups", 0)
    monkeypatch.setattr(_CountedSet, "visits", 0)
    run = run_static(tree, variant)
    assert ((run.value, run.root, list(run.father))
            == (want.value, want.root, list(want.father)))
    assert _CountedAdj.lookups <= 3 * tree.n
    assert _CountedSet.visits <= 3 * tree.n


def test_a_run_keeps_nothing_per_message():
    # what a run leaves alive is one entries dict per vertex that heard a
    # message, beside a few containers for the whole run (the two maps,
    # `father` in sending order); frames are rendered on demand, so
    # nothing is kept per message, nor per leaf
    tree = random_tree(2000, 4)
    run_static(tree)  # fills the memos
    gc.collect()
    before = len(gc.get_objects())
    run = run_static(tree)
    gc.collect()
    alive = len(gc.get_objects()) - before
    assert run.counters.messages == 1999
    assert alive <= len(run.received) + 20


@pytest.mark.parametrize("encoding", ["known", "unknown"])
@pytest.mark.parametrize("variant", list(ParamVariant), ids=lambda v: v.value)
def test_rendered_wires_decode_to_the_stored_entries(variant, encoding):
    for seed in range(3):
        tree = random_tree(150, seed)
        scheme = default_scheme(tree.n, variant, encoding)
        run = run_static(tree, variant, scheme, Schedule(seed))
        wires = run.wires
        assert [v for v, *_ in wires] == list(run.father)
        assert len(wires) == run.counters.messages
        assert sum(len(bits) for *_, bits in wires) == run.counters.bits
        for v, father, hd, bits in wires:
            assert father == run.father[v]
            # a static frame is in the run's scheme and carries no flag bit
            assert len(bits) == (scheme.cells + 2 if encoding == "known"
                                 else 2 * hd.length + 4)
            assert decode(bits, scheme) == hd == run.received[father][v]


@pytest.mark.parametrize("encoding", ["known", "unknown"])
@pytest.mark.parametrize("variant", list(ParamVariant), ids=lambda v: v.value)
def test_encoded_frames_add_up_to_the_counters(monkeypatch, cold_memos, variant,
                                              encoding):
    # the framing rule a traced benchmark pass relies on: each message is
    # one `protocol.encode` call, from cold memos and from warm ones, and
    # the frames encode returns number the messages and sum to the bits.
    # The receiver's `protocol.decode` runs once per miss of the hop memo:
    # once per distinct tuple of sender's entries from cold memos, and not
    # at all from warm ones
    import treesweep.protocol as protocol
    frames, decodes = [], []
    real_encode, real_decode = protocol.encode, protocol.decode

    def encode(*args):
        frames.append(real_encode(*args))
        return frames[-1]

    def decode(*args):
        decodes.append(args)
        return real_decode(*args)
    monkeypatch.setattr(protocol, "encode", encode)
    monkeypatch.setattr(protocol, "decode", decode)
    for tree in (random_tree(150, 4), path_tree(40), star_tree(30), theorem1_tree(3)):
        cold_memos()
        for warm in (False, True):
            frames.clear()
            decodes.clear()
            run = run_static(tree, variant, default_scheme(tree.n, variant, encoding))
            assert len(frames) == run.counters.messages == tree.n - 1
            assert sum(len(frame) for frame in frames) == run.counters.bits
            hops = {tuple(run.received.get(v, {}).values()) for v in run.father}
            assert len(decodes) == (0 if warm else len(hops))


@pytest.mark.parametrize("encoding", ["known", "unknown"])
def test_rendering_wires_builds_no_frame(monkeypatch, encoding):
    # the run encoded every message it renders, so each frame comes back
    # from the encode memo
    import treesweep.codec as codec
    fresh = []
    real = codec._encode

    def counting(*args):
        fresh.append(args)
        return real(*args)
    monkeypatch.setattr(codec, "_encode", counting)
    tree = random_tree(400, 6)
    for variant in ParamVariant:
        run = run_static(tree, variant, default_scheme(tree.n, variant, encoding))
        misses = codec._encode_memo.cache_info().misses
        assert len(run.wires) == tree.n - 1
        assert run.transcript().count("SEND ") == tree.n - 1
        assert codec._encode_memo.cache_info().misses == misses
    assert fresh == []


def test_a_hop_entry_beyond_the_cell_budget_is_rejected(monkeypatch):
    import treesweep.protocol as protocol
    wide = hdesc(2, 3, (0, 0))  # two cells; a 3-vertex tree allows one
    monkeypatch.setattr(protocol, "_hop_memo", lambda kids, variant, scheme: ("", wide))
    with pytest.raises(ContractError) as err:
        run_static(path_tree(3), PN, UnknownSize())
    assert (type(err.value) is ContractError
            and str(err.value) == "table length 2 breaks the log3 bound at node 0")


def test_a_root_descriptor_beyond_the_cell_budget_is_rejected(monkeypatch):
    import treesweep.protocol as protocol
    run_static(path_tree(3), PN, UnknownSize())  # every hop is now a memo hit
    monkeypatch.setattr(protocol, "merge", lambda kids, variant: hdesc(2, 3, (0, 0)))
    with pytest.raises(ContractError) as err:
        run_static(path_tree(3), PN, UnknownSize())
    assert (type(err.value) is ContractError
            and str(err.value) == "root table length breaks the log3 bound")
