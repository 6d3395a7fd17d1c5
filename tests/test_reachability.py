"""Every function defined in `src/treesweep` is reached by a command.

The test runs `cli.main` in-process under `sys.setprofile` on every
command and every row of `helpers.CLI_ERRORS`, with cold memos, and
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
from treesweep.forest import random_tree, serialize

from helpers import CLI_ERRORS

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

PARAMS = ("pn", "ns", "es")
ENCODINGS = ("known", "unknown")

DYNAMIC_SCRIPT = """\
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
"""

def _commands(tmp_path):
    """(argv, expected exit code) of every command the trace runs, the
    error rows' files written into `tmp_path`, where the trace runs."""
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    runs = [(["gen", "path", "5"], 0), (["gen", "star", "4"], 0),
            (["gen", "spider", "2", "3", "4"], 0), (["gen", "theorem1", "2"], 0),
            (["gen", "random", "30", "1"], 0)]
    # a tree whose strategy sweeps unstable pieces
    tree = write("random.txt", serialize(random_tree(29, 0)))
    for param in PARAMS + ("pw",):
        for encoding in ENCODINGS:
            runs.append((["compute", tree, "--param", param,
                          "--encoding", encoding, "--stats"], 0))
    runs.append((["compute", tree, "--transcript", "--strategy"], 0))
    script = write("script.txt", DYNAMIC_SCRIPT)
    for param in PARAMS:
        for encoding in ENCODINGS:
            runs.append((["dynamic", script, "--param", param,
                          "--encoding", encoding, "--stats"], 0))
    for param in ("all", "relations") + PARAMS:
        runs.append((["conformance", "--max-n", "5", "--param", param], 0))
    # the smallest trees of pathwidth 2, where the gap check compares
    runs.append((["conformance", "--max-n", "7", "--param", "gap"], 0))
    runs.append((["experiments", "--sizes", "20,40"], 0))

    for argv, files, _ in CLI_ERRORS:
        for name, text in files.items():
            write(name, text)
        runs.append((argv, 2))
    return runs


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
    commands = _commands(tmp_path)
    monkeypatch.chdir(tmp_path)
    cli._parser.cache_clear()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [(argv, cli.main(argv)) for argv, _ in commands]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == commands

    reached = {(c.co_filename, c.co_firstlineno, c.co_name) for c in entered}
    unreached = {name for key, name in _defined().items()
                 if key not in reached and key[2] not in EXEMPT}
    never = sorted(unreached - ALLOWED.keys())
    stale = sorted(ALLOWED.keys() - unreached)
    assert not never, "never entered: " + ", ".join(never)
    assert not stale, "allowed but entered or undefined: " + ", ".join(stale)
