"""The incremental-build measurements and the script that prints them."""

import runpy
import sys
from pathlib import Path

import pytest

from treesweep.experiments import loglog_slope, worst_case_instance
from treesweep.forest import ArgumentError, Forest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "incremental_scaling.py"


@pytest.mark.parametrize("points", [[], [(800, 295147)], [(50, 1433), (50, 1433)]])
def test_loglog_slope_needs_two_distinct_sizes(points):
    with pytest.raises(ArgumentError):
        loglog_slope(points)


@pytest.mark.parametrize("sizes,slopes", [("50", 0), ("50,100", 2)])
def test_scaling_script_prints_slope_only_for_two_sizes(sizes, slopes, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--sizes", sizes])
    runpy.run_path(str(SCRIPT), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert "50 1433 10031 28.66" in lines  # the worst-case row
    assert sum(line.startswith("slope=") for line in lines) == slopes


@pytest.mark.parametrize("sizes,error", [
    ("0", "error: random tree needs n >= 1, got 0"),
    ("x", "error: invalid literal for int() with base 10: 'x'"),
    ("3", "error: worst-case instance needs n >= 4, got 3"),
])
def test_scaling_script_rejects_a_bad_size_cleanly(sizes, error, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--sizes", sizes])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    assert exit_info.value.code == 2
    assert capsys.readouterr() == ("", error + "\n")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_worst_case_instance_needs_four_vertices(n):
    with pytest.raises(ArgumentError, match="n >= 4"):
        worst_case_instance(n)


def test_worst_case_instance_builds_four_vertices():
    edges = worst_case_instance(4)
    tree = Forest(range(4), edges)
    assert tree.n == 4 and tree.is_tree()
