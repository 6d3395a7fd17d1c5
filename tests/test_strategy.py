import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from treesweep.forest import (enumerate_trees, path_tree, random_tree,
                              star_tree, theorem1_tree)
from treesweep.protocol import Schedule, run_static
from treesweep.strategy import (Action, Strategy, StrategyError, extract,
                                validate)

P, R, S = "P", "R", "S"


def act(*pairs):
    return Strategy([Action(k, v) for k, v in pairs])


def test_star_strategy():
    g = star_tree(4)
    s = act((P, 0), (S, 1), (S, 2), (S, 3), (S, 4), (R, 0))
    assert validate(g, s) == 1


def test_single_vertex_conventions():
    g = path_tree(1)
    with pytest.raises(StrategyError):
        validate(g, Strategy([]))  # vertex left unprocessed
    assert validate(g, act((P, 0), (R, 0))) == 1
    assert validate(g, act((S, 0))) == 0  # vacuously surrounded


def test_validator_rejects_illegal_moves():
    g = path_tree(3)
    with pytest.raises(StrategyError) as err:
        validate(g, act((P, 0), (R, 0)))  # neighbour 1 untouched
    assert "step 1" in str(err.value)
    with pytest.raises(StrategyError):
        validate(g, act((S, 1)))  # not surrounded
    with pytest.raises(StrategyError):
        validate(g, act((P, 0), (P, 0)))
    with pytest.raises(StrategyError):
        validate(g, act((P, 1), (S, 0), (S, 2), (R, 1), (R, 1)))
    with pytest.raises(StrategyError):
        validate(g, act((P, 9), (R, 9)))


def test_path4_extraction():
    t = path_tree(4)
    run = run_static(t)
    s = extract(t, run.states)
    assert validate(t, s) == 2 == run.value


def test_theorem1_level2_two_agents():
    t = theorem1_tree(2)
    run = run_static(t)
    s = extract(t, run.states)
    assert validate(t, s) == 2


def test_extraction_exhaustive(trees_up_to_8):
    for t in trees_up_to_8:
        run = run_static(t)
        s = extract(t, run.states)
        assert validate(t, s) == run.value
        assert len(s) <= 3 * t.n


def test_extraction_seed_stable():
    t = random_tree(24, 17)
    want = run_static(t).value
    for seed in range(6):
        run = run_static(t, schedule=Schedule(seed))
        assert validate(t, extract(t, run.states)) == want


@given(st.integers(2, 48), st.integers(0, 3000))
@settings(max_examples=60, deadline=None)
def test_extraction_random(n, seed):
    t = random_tree(n, seed)
    run = run_static(t)
    s = extract(t, run.states)
    assert validate(t, s) == run.value
    assert len(s) <= 3 * n


def test_dump_format():
    s = act((P, 3), (S, 1), (R, 3))
    assert s.dump() == "P 3\nS 1\nR 3\n"
