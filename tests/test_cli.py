import functools

import pytest

from treesweep.cli import main

from helpers import CLI_RUNS, outcome, write_inputs


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_compute_fails_when_the_strategy_peak_is_not_the_value(tmp_path, capsys,
                                                               monkeypatch):
    # the strategy and its peak are still written before the exit code says 1
    import treesweep.cli as cli
    monkeypatch.setattr(cli, "validate", lambda tree, strategy: 3)
    path = write(tmp_path, "path4.txt", "0 1\n1 2\n2 3\n")
    code, out, err = run_cli(["compute", path, "--strategy"], capsys)
    assert code == 1
    assert out == ("param=pn value=2\nP 2\nP 1\nS 0\nR 1\nS 3\nR 2\n"
                   "strategy_peak=3\n")
    assert err == "strategy peak disagrees with computed value\n"


def test_compute_and_dynamic_read_utf8(tmp_path, capsys):
    # a UTF-8 comment is accepted by both commands, a byte that is not
    # UTF-8 is refused by both with one clean error line
    edges = tmp_path / "cafe.txt"
    edges.write_bytes("# caf\u00e9\n0 1\n".encode("utf-8"))
    script = tmp_path / "cafe-script.txt"
    script.write_bytes("# caf\u00e9\nadd 0 1\nquery 0\n".encode("utf-8"))
    assert run_cli(["compute", str(edges)], capsys) == (0, "param=pn value=1\n", "")
    assert run_cli(["dynamic", str(script)], capsys) == (0, "query 0 value=1\n", "")
    for command, path in (("compute", edges), ("dynamic", script)):
        path.write_bytes(b"# caf\xff\n0 1\n")
        code, out, err = run_cli([command, str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: 'utf-8' codec can't decode byte 0xff in position 5: "
                       "invalid start byte\n")


@pytest.mark.parametrize("row", CLI_RUNS, ids=[" ".join(row.argv) for row in CLI_RUNS])
def test_cli_run_matches_its_row(tmp_path, capsys, monkeypatch, row):
    monkeypatch.chdir(tmp_path)
    write_inputs([row])
    assert outcome(row, *run_cli(row.argv, capsys)) == (row.code, row.out, row.err)


def test_gen_lists_the_generator_kinds(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["gen", "frob", "3"])
    assert exit_.value.code == 2
    assert capsys.readouterr().err.endswith(
        "argument kind: invalid choice: 'frob' (choose from 'path', 'star', "
        "'spider', 'theorem1', 'random')\n")


def test_byte_identical_reports(tmp_path, capsys):
    from treesweep.forest import random_tree, serialize
    path = write(tmp_path, "t.txt", serialize(random_tree(19, 3)))
    outs = set()
    for _ in range(3):
        code, out, _ = run_cli(
            ["compute", path, "--stats", "--seed", "7"], capsys)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_conformance_checks_every_root(capsys, monkeypatch):
    from treesweep.dynamic import DynamicForest
    real = DynamicForest.value_of
    monkeypatch.setattr(DynamicForest, "value_of",
                        lambda df, root: real(df, root) + (root == 2))
    code, out, _ = run_cli(["conformance", "--max-n", "4", "--param", "pn"], capsys)
    assert code == 1
    assert "fail=3" in out and "pn rooted at 2: got=" in out


@pytest.mark.parametrize("param,target,fake,text", [
    ("pn", "dynamic.DynamicForest.value_of", lambda real: lambda df, root:
        real(df, root) + (root == 2),
     "pn rooted at 2: got=2 want=1\nn 3\n0 1\n0 2\n"),
    ("relations", "cli.es_exact", lambda real: lambda tree: real(tree) + 3 * (tree.n == 3),
     "es 4 outside {ns-1, ns}\nn 3\n0 1\n0 2\n"),
    ("gap", "cli.gap_characterization_check", lambda real: lambda tree: tree.n != 2,
     "gap characterization sides disagree\nn 2\n0 1\n"),
    ("pn", "dynamic.run_static", lambda real: lambda tree, *args:
        (run := real(tree, *args))._replace(value=run.value + (tree.n == 3)),
     "pn: got=2 want=1\nn 3\n0 1\n0 2\n"),
    ("relations", "cli.ns_exact", lambda real: lambda tree: real(tree) - (tree.n == 3),
     "ns 1 != pw+1 2\nn 3\n0 1\n0 2\n"),
    ("relations", "cli.pn_exact", lambda real: lambda tree: real(tree) + 2 * (tree.n == 3),
     "pn 3 outside [pw, pw+1]\nn 3\n0 1\n0 2\n"),
    ("relations", "cli.stable_exact", lambda real: lambda tree, root:
        real(tree, root) != (tree.n == 3),
     "stability flag mismatch at root 0\nn 3\n0 1\n0 2\n"),
], ids=["values", "relations", "gap", "static-run", "ns-pathwidth", "pn-pathwidth",
        "stability"])
def test_conformance_prints_each_counterexample_with_its_edge_list(capsys, monkeypatch,
                                                                   param, target, fake, text):
    # `target` is the patched name, dotted from the package
    import treesweep
    real = functools.reduce(getattr, target.split("."), treesweep)
    monkeypatch.setattr(f"treesweep.{target}", fake(real))
    code, out, _ = run_cli(["conformance", "--max-n", "3", "--param", param], capsys)
    assert code == 1
    assert out == f"trees=3 param={param} fail=1\ncounterexample:\n{text}\n"


@pytest.mark.parametrize("param", ["all", "relations", "gap"])
def test_conformance_serializes_no_tree_that_passes(capsys, monkeypatch, param):
    # the checkers get each Forest itself; only a counterexample is written out
    import treesweep.cli as cli
    serialized = []
    monkeypatch.setattr(cli, "serialize", lambda tree: serialized.append(tree) or "")
    code, out, _ = run_cli(["conformance", "--max-n", "5", "--param", param], capsys)
    assert (code, out) == (0, f"trees=8 param={param} fail=0\n")
    assert serialized == []


@pytest.mark.parametrize("max_n", ["0", "-3"])
def test_conformance_rejects_max_n_below_one(capsys, monkeypatch, max_n):
    import treesweep.cli as cli
    enumerated = []
    monkeypatch.setattr(cli, "enumerate_trees", lambda n: enumerated.append(n) or [])
    code, out, err = run_cli(["conformance", "--max-n", max_n], capsys)
    assert (code, out, err) == (2, "", "error: --max-n must be at least 1\n")
    assert enumerated == []


@pytest.mark.parametrize("param,cap", [
    ("ns", 11), ("es", 10), ("all", 10), ("relations", 10), ("pn", 13), ("gap", 13)])
def test_conformance_refuses_max_n_above_the_oracle_cap(capsys, monkeypatch, param, cap):
    import treesweep.cli as cli
    enumerated = []
    monkeypatch.setattr(cli, "enumerate_trees", lambda n: enumerated.append(n) or [])
    code, out, err = run_cli(["conformance", "--max-n", str(cap + 1), "--param", param],
                             capsys)
    assert (code, out) == (2, "")
    assert err == (f"error: --max-n {cap + 1} exceeds the oracle cap of {cap} "
                   f"for --param {param}\n")
    assert enumerated == []


def test_main_builds_the_parser_once(tmp_path, capsys, monkeypatch):
    import treesweep.cli as cli
    built = []
    build = cli.build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        path = write(tmp_path, "p.txt", "0 1\n1 2\n2 3\n")
        for _ in range(3):
            assert main(["compute", path, "--param", "ns"]) == 0
            assert capsys.readouterr().out == "param=ns value=2\n"
        assert main(["gen", "path", "3"]) == 0
        assert capsys.readouterr().out == "n 3\n0 1\n1 2\n"
        assert built == [1]
    finally:
        cli._parser.cache_clear()
