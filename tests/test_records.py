"""The package's records keep the behaviour callers rely on, and importing
the command line loads no module the package does not need."""

import copy
import os
import subprocess
import sys
from pathlib import Path

import treesweep
from treesweep.dynamic import TreeRecord
from treesweep.protocol import CostCounters, Schedule
from treesweep.strategy import Action, Strategy

# stdlib modules the package imports anyway, loaded before the check so it
# sees only what `treesweep.cli` adds on any Python version
ALREADY_USED = ("typing", "enum", "re", "random", "functools", "collections",
                "heapq", "argparse")
NOT_NEEDED = ("dataclasses", "inspect", "concurrent.futures")


def test_importing_the_cli_loads_no_unneeded_module():
    code = (f"import sys, {', '.join(ALREADY_USED)}\n"
            "before = set(sys.modules)\n"
            "import treesweep.cli\n"
            f"print([m for m in {NOT_NEEDED!r} if m in sys.modules and m not in before])")
    src = str(Path(treesweep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_records_compare_copy_and_print_by_value():
    first, second = Strategy(), Strategy()
    assert first.actions == second.actions == [] and first.actions is not second.actions
    first.actions.append(Action("P", 0))
    assert second.actions == [] and first != second
    assert first == Strategy([("P", 0)])
    assert repr(first) == "Strategy(actions=[Action(kind='P', vertex=0)])"

    counters = CostCounters(3, 40, 4)
    snapshot = copy.copy(counters)
    assert snapshot == counters and snapshot is not counters
    counters.messages += 1
    counters.bits += 5
    assert snapshot == CostCounters(3, 40, 4) != counters
    assert repr(counters) == "CostCounters(messages=4, bits=45, steps=4)"

    record = TreeRecord(1)
    assert record == TreeRecord(1) and record is not TreeRecord(1)
    assert record != TreeRecord(2)
    assert repr(record) == "TreeRecord(root=1)"

    assert Schedule() == Schedule(0) != Schedule(1)
    assert len({Schedule(), Schedule(0), Schedule(1)}) == 2
