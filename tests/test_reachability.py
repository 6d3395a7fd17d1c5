"""Every function defined in `src/treesweep` is reached by a command.

The test traces the cheap CLI rows: it runs `cli.main` in-process under
`sys.setprofile` on every row of `helpers.CLI_RUNS`, with cold memos, and
names each function of the package that was never entered and is not on
`ALLOWED`.  A function that only a test calls belongs in the tests.  It
also names each entry of `ALLOWED` that a command entered, or that names
no function of the package: such an entry excuses nothing.
"""

import importlib
import sys
from inspect import CO_OPTIMIZED
from pathlib import Path

import treesweep
import treesweep.cli as cli

from helpers import CLI_RUNS, write_inputs

# functions no command reaches, each with the reason it stays in the package
ALLOWED = {
    "strategy.Strategy.__len__": "a perfbench tally",
    "forest.Graph.is_connected": "a library guard: `run_static` on a plain "
                                 "Graph; every command passes a Forest",
    "codec.KnownSize.__setattr__": "a guard that fires only on misuse",
    "codec.KnownSize.__delattr__": "a guard that fires only on misuse",
    "hd._Minimal._replace": "a guard that fires only on misuse",
}
# exempt by name wherever they are defined
EXEMPT = {"__eq__", "__repr__", "__str__"}


def _defined():
    """(file, first line, name) -> qualified name of every function the
    package's sources define, nested ones included."""
    found = {}

    def walk(code, prefix):
        for const in code.co_consts:
            if type(const) is type(code):
                name = f"{prefix}{const.co_name}"
                # a class body is not a function, nor are lambdas and
                # comprehensions, which the functions around them run
                if const.co_flags & CO_OPTIMIZED and not const.co_name.startswith("<"):
                    found[const.co_filename, const.co_firstlineno,
                          const.co_name] = name
                walk(const, name + ".")

    for path in sorted(Path(treesweep.__file__).parent.glob("*.py")):
        name = "treesweep" if path.stem == "__init__" else f"treesweep.{path.stem}"
        # compiled under the loaded module's file name, which its frames carry
        filename = importlib.import_module(name).__file__
        walk(compile(path.read_text(), filename, "exec"), f"{path.stem}.")
    return found


def test_every_function_is_reached_by_a_command(tmp_path, capsys, monkeypatch,
                                                cold_memos):
    monkeypatch.chdir(tmp_path)
    write_inputs(CLI_RUNS)
    cli._parser.cache_clear()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [(row.argv, cli.main(row.argv)) for row in CLI_RUNS]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [(row.argv, row.code) for row in CLI_RUNS]

    reached = {(c.co_filename, c.co_firstlineno, c.co_name) for c in entered}
    unreached = {name for key, name in _defined().items()
                 if key not in reached and key[2] not in EXEMPT}
    never = sorted(unreached - ALLOWED.keys())
    stale = sorted(ALLOWED.keys() - unreached)
    assert not never, "never entered: " + ", ".join(never)
    assert not stale, "allowed but entered or undefined: " + ", ".join(stale)
