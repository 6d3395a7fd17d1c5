"""Every function defined in `src/treesweep` is reached by a command.

The test runs `cli.main` in-process under `sys.setprofile` on every
command and every error input of the CI smoke step, with cold memos, and
names each function of the package that was never entered and is not on
`ALLOWED`.  A function that only a test calls belongs in the tests.  It
also names each entry of `ALLOWED` that a command entered, or that names
no function of the package: such an entry excuses nothing.
"""

import importlib
import re
import sys
from inspect import CO_OPTIMIZED
from pathlib import Path

import treesweep
import treesweep.cli as cli
from treesweep.forest import random_tree, serialize

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

# the literal inputs of CI's "CLI error smoke" step: the command that reads
# each, its file name, its text and the command's options
# (`test_error_inputs_are_the_ci_smoke_inputs` holds the two equal)
ERROR_INPUTS = [
    ("compute", "empty.txt", ""),
    ("compute", "cycle.txt", "0 1\n1 2\n2 0\n"),
    ("compute", "formcycle.txt", "n 3\n0 1\n1 2\n0 2\n"),
    ("compute", "duplicate.txt", "0 1\n1 0\n"),
    ("compute", "selfloop.txt", "n 3\n2 2\n"),
    ("compute", "negative.txt", "0 -1\n"),
    ("compute", "twocounts.txt", "n 2\nn 2\n"),
    ("dynamic", "novertex.txt", "# no vertex\n"),
    ("dynamic", "badcommand.txt", "# no vertex\nfrob 1\n"),
    ("dynamic", "badarity.txt", "add 0 1\nadd 2\n"),
    ("dynamic", "negativeid.txt", "query -1\n"),
    ("compute", "edge.txt", "0 1\n", "--param", "ns", "--strategy"),
]


def _commands(tmp_path):
    """(argv, expected exit code) of every command the trace runs."""
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

    runs.append((["gen", "spider", "1", "2"], 2))
    for command, name, text, *options in ERROR_INPUTS:
        runs.append(([command, write(name, text), *options], 2))
    runs.append((["conformance", "--max-n", "0"], 2))
    runs.append((["conformance", "--max-n", "11", "--param", "es"], 2))
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


def test_every_function_is_reached_by_a_command(tmp_path, capsys, cold_memos):
    commands = _commands(tmp_path)
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


def _ci_error_inputs():
    """The literal inputs of CI's "CLI error smoke" step, as `ERROR_INPUTS`
    entries: each file made by `printf '...' > name` or `: > name`, with
    the command and options of the `check treesweep` line that reads it."""
    ci = Path(__file__).parents[1] / ".github" / "workflows" / "ci.yml"
    step = ci.read_text().split("- name: CLI error smoke\n", 1)[1].split("- name: ", 1)[0]
    texts, checks = {}, []
    for line in step.splitlines():
        line = line.strip()
        made = re.fullmatch(r"(?:printf '([^']*)'|:) > (\S+)", line)
        if made:
            fmt, name = made.groups()
            fmt = fmt or ""
            # a format with no conversion and no escape but \n, which printf
            # writes as a newline
            assert "%" not in fmt and "\\" not in fmt.replace("\\n", ""), line
            texts[name] = fmt.replace("\\n", "\n")
        read = re.fullmatch(r"check treesweep (\S+) (\S+\.txt)((?: \S+)*)", line)
        if read:
            checks.append(read.groups())
    assert texts, "no literal input found in the CLI error smoke step"
    missing = sorted(texts.keys() - {name for _, name, _ in checks})
    assert not missing, "made but never checked: " + ", ".join(missing)
    return [(command, name, texts[name], *options.split())
            for command, name, options in checks if name in texts]


def test_error_inputs_are_the_ci_smoke_inputs():
    ci = _ci_error_inputs()
    assert sorted(ci) == sorted(ERROR_INPUTS), (
        "in CI only: " + repr(sorted(set(ci) - set(ERROR_INPUTS)))
        + "; in ERROR_INPUTS only: " + repr(sorted(set(ERROR_INPUTS) - set(ci))))
