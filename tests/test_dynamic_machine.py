"""Stateful fuzzing of `DynamicForest`: interleaved add, del, reroot and
query on up to 12 vertices, for every variant, both encodings and both
add-edge modes.  After every step the invariants hold (the tree records
among them, checked against the father chains), each component's
value equals a static run on that component alone, and every stored entry
equals the descriptor of the subtree it stands for."""

import copy

import hypothesis.strategies as st
import pytest
from hypothesis import settings
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule, run_state_machine_as_test)

from treesweep.dynamic import DynamicForest
from treesweep.forest import StructureError
from treesweep.hd import ParamVariant
from treesweep.protocol import run_static

from helpers import rooted_descriptors

MAX_N = 12


class DynamicMachine(RuleBasedStateMachine):
    variant = ParamVariant.PROCESS_NUMBER
    encoding = "known"
    early_stop = False

    @initialize(n=st.integers(1, MAX_N))
    def start(self, n):
        self.df = DynamicForest.isolated(n, self.variant, self.encoding,
                                         self.early_stop)

    def _vertex(self, data):
        return data.draw(st.integers(0, self.df.forest.n - 1))

    @rule(data=st.data())
    def add(self, data):
        df = self.df
        u, v = self._vertex(data), self._vertex(data)
        if df.forest.exhausted_side(u, v) is None:
            before = copy.deepcopy((df.received, df.father, df.roots, df.counters,
                                    df.forest, df.record_of))
            with pytest.raises(StructureError):
                df.add_edge(u, v)
            assert (df.received, df.father, df.roots, df.counters, df.forest,
                    df.record_of) == before
        else:
            df.add_edge(u, v)

    @precondition(lambda self: self.df.forest.m() > 0)
    @rule(data=st.data())
    def delete(self, data):
        u, v = data.draw(st.sampled_from(self.df.forest.edges()))
        if data.draw(st.booleans()):
            u, v = v, u
        self.df.delete_edge(u, v)

    @rule(data=st.data())
    def reroot(self, data):
        v = self._vertex(data)
        self.df.change_root(v)
        assert self.df.father[v] is None

    @rule(data=st.data())
    def query(self, data):
        v = self._vertex(data)
        component = self.df.forest.induced(self.df.forest.component_of(v))
        assert self.df.value_of(v) == run_static(component, self.variant).value

    @invariant()
    def matches_static_runs(self):
        df = self.df
        df.check_invariants()
        for component in df.forest.components():
            tree = df.forest.induced(component)
            (root,) = (v for v in component if df.father[v] is None)
            assert df.roots[root] == run_static(tree, self.variant).value
            # every stored entry describes the sender's subtree exactly
            subtree = rooted_descriptors(tree, root, self.variant)
            for v in component - {root}:
                assert df.received[df.father[v]][v] == subtree[v]


@pytest.mark.parametrize("early_stop", [False, True])
@pytest.mark.parametrize("encoding", ["known", "unknown"])
@pytest.mark.parametrize("variant", list(ParamVariant))
def test_dynamic_operations_match_static_runs(variant, encoding, early_stop):
    machine = type("Machine", (DynamicMachine,), {
        "variant": variant, "encoding": encoding, "early_stop": early_stop})
    run_state_machine_as_test(machine, settings=settings(
        max_examples=12, stateful_step_count=25, deadline=None,
        derandomize=True, database=None))
