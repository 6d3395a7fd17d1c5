"""The incremental-build measurements and the script that prints them."""

import runpy
import sys
from pathlib import Path

import pytest

from treesweep.experiments import loglog_slope
from treesweep.forest import ArgumentError

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
