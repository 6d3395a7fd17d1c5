"""The incremental-build measurements and the command that prints them."""

import hashlib

import pytest

from treesweep import cli
from treesweep.experiments import (best_case_instance, loglog_slope,
                                   worst_case_instance)
from treesweep.forest import ArgumentError, Forest


@pytest.mark.parametrize("points", [[], [(800, 295147)], [(50, 1433), (50, 1433)]])
def test_loglog_slope_needs_two_distinct_sizes(points):
    with pytest.raises(ArgumentError):
        loglog_slope(points)


@pytest.mark.parametrize("sizes,slopes", [("50", 0), ("50,100", 2)])
def test_scaling_script_prints_slope_only_for_two_sizes(sizes, slopes, capsys):
    assert cli.main(["experiments", "--sizes", sizes]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "50 1433 10031 28.66" in lines  # the worst-case row
    assert sum(line.startswith("slope=") for line in lines) == slopes


@pytest.mark.parametrize("sizes,error", [
    ("0", "error: random tree needs n >= 1, got 0"),
    ("x", "error: invalid literal for int() with base 10: 'x'"),
    ("3", "error: worst-case instance needs n >= 4, got 3"),
])
def test_scaling_script_rejects_a_bad_size_cleanly(sizes, error, capsys):
    assert cli.main(["experiments", "--sizes", sizes]) == 2
    assert capsys.readouterr() == ("", error + "\n")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_worst_case_instance_needs_four_vertices(n):
    with pytest.raises(ArgumentError, match="n >= 4"):
        worst_case_instance(n)


def test_worst_case_instance_builds_four_vertices():
    edges = worst_case_instance(4)
    tree = Forest(range(4), edges)
    assert tree.n == 4 and tree.is_tree()


def _instance_digest(build, sizes):
    text = "\n".join(f"{n}: {build(n)}" for n in sizes)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("build,sizes,digest", [
    (worst_case_instance, [*range(4, 61), 800],
     "fa833fbffd8c2e3e947071e139ed0de05b7498683b3384977216ee03aef5e22a"),
    (best_case_instance, [*range(2, 61), 800],
     "215c21252f4601d0a9b64f5875be5fb48db91e1fbe82be850102fb6c51096d73"),
], ids=["worst", "best"])
def test_instance_edge_lists_golden(build, sizes, digest):
    # sha256 over the "n: edge list" lines of each size
    assert _instance_digest(build, sizes) == digest


def test_scaling_table_rejects_an_instance_left_in_two_trees(monkeypatch):
    import treesweep.experiments as experiments
    real = experiments.inc_build
    monkeypatch.setattr(experiments, "inc_build", lambda edges, n: real(edges[:-1], n))
    with pytest.raises(AssertionError) as err:
        experiments.scaling_table([20], "best")
    assert (type(err.value) is AssertionError
            and str(err.value) == "instance did not assemble a single tree")
