import hashlib

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from treesweep.codec import UnknownSize
from treesweep.forest import (ArgumentError, gen_tree, parse_edge_list,
                              path_tree, random_tree, star_tree, theorem1_tree)
from treesweep.hd import ParamVariant, ceil_log3
from treesweep.oracle import pathwidth_exact
from treesweep.protocol import (CostCounters, Schedule, default_scheme,
                                elect_root, run_static)

PN = ParamVariant.PROCESS_NUMBER
NS = ParamVariant.NODE_SEARCH


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
    assert calls.count("treesweep.codec") == len({wire.bits for *_, wire in run.wires})


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
            tuple(sorted((v, st.father, tuple(sorted(st.received.items())))
                         for v, st in r.states.items()))
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
