import functools
import io
import sys

import pytest

from treesweep.cli import main

from helpers import CLI_ERRORS


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_compute_path4(tmp_path, capsys):
    path = write(tmp_path, "path4.txt", "0 1\n1 2\n2 3\n")
    code, out, _ = run_cli(["compute", path, "--param", "pn"], capsys)
    assert code == 0
    assert "value=2" in out


def test_compute_theorem1(tmp_path, capsys):
    from treesweep.forest import serialize, theorem1_tree
    path = write(tmp_path, "t1k.txt", serialize(theorem1_tree(3)))
    code, out, _ = run_cli(["compute", path, "--param", "pn"], capsys)
    assert code == 0 and "value=3" in out


def test_compute_pathwidth_of_star(tmp_path, capsys):
    path = write(tmp_path, "star.txt", "0 1\n0 2\n0 3\n")
    code, out, _ = run_cli(["compute", path, "--param", "pw"], capsys)
    assert code == 0 and "value=1" in out


def test_compute_stats_and_strategy(tmp_path, capsys):
    path = write(tmp_path, "path4.txt", "0 1\n1 2\n2 3\n")
    code, out, _ = run_cli(
        ["compute", path, "--stats", "--strategy", "--transcript"], capsys)
    assert code == 0
    assert "messages=3" in out and "steps=4" in out
    assert "strategy_peak=2" in out
    assert "SEND" in out and "VISIT" in out


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


@pytest.mark.parametrize("param", ["ns", "es", "pw"])
def test_strategy_rejects_other_params_before_running(tmp_path, capsys, param):
    path = write(tmp_path, "path4.txt", "0 1\n1 2\n2 3\n")
    code, out, err = run_cli(["compute", path, "--param", param, "--strategy"], capsys)
    assert code == 2 and out == ""
    assert err == "error: strategy extraction supports --param pn only\n"


@pytest.mark.parametrize("text, error", [
    ("0 1\n1 2\n2 0\n", "line 3: edge (2, 0) would create a cycle"),
    ("", "empty tree"),
    ("n 0\n", "empty tree"),
])
@pytest.mark.parametrize("encoding", ["known", "unknown"])
def test_compute_input_errors_are_clean(tmp_path, capsys, text, error, encoding):
    path = write(tmp_path, "bad.txt", text)
    code, out, err = run_cli(["compute", path, "--encoding", encoding], capsys)
    assert (code, out, err) == (2, "", f"error: {error}\n")


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


@pytest.mark.parametrize("argv, files, line", CLI_ERRORS,
                         ids=[" ".join(argv) for argv, _, _ in CLI_ERRORS])
def test_cli_error_is_one_clean_line(tmp_path, capsys, monkeypatch, argv, files, line):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert run_cli(argv, capsys) == (2, "", line + "\n")


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


def test_dynamic_script(tmp_path, capsys):
    script = write(tmp_path, "s.txt",
                   "add 0 1\nadd 2 3\nadd 1 2\nquery 0\ndel 1 2\nquery 3\n")
    code, out, _ = run_cli(["dynamic", script, "--stats"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "query 0 value=2"
    assert lines[1] == "query 3 value=1"
    assert lines[2].startswith("messages=")


def test_dynamic_bad_integer_names_line(tmp_path, capsys):
    script = write(tmp_path, "s.txt", "add 0 1\nadd 1 x\n")
    code, _, err = run_cli(["dynamic", script], capsys)
    assert code == 2
    assert err.startswith("error: line 2: bad integer in 'add 1 x'")


@pytest.mark.parametrize("text, error", [
    ("query -1\n", "line 1: negative vertex id in 'query -1'"),
    ("add 0 1\nquery 1\ndel 0 -3\nadd 0 x\n", "line 3: negative vertex id in 'del 0 -3'"),
])
def test_dynamic_negative_id_names_line_before_any_line_runs(tmp_path, capsys, text, error):
    script = write(tmp_path, "s.txt", text)
    code, out, err = run_cli(["dynamic", script], capsys)
    assert (code, out, err) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("text, error", [
    ("add 0 1\nadd 2\n", "line 2: bad command 'add 2'"),
    ("add 0 1\nquery 0\nquery 0 1\n", "line 3: bad command 'query 0 1'"),
    ("add 0 1\nfrob 2\n", "line 2: bad command 'frob 2'"),
])
def test_dynamic_command_of_the_wrong_arity_names_line(tmp_path, capsys, text, error):
    # the script names a vertex, so the line fails when it runs
    script = write(tmp_path, "s.txt", text)
    code, out, err = run_cli(["dynamic", script], capsys)
    assert (code, out, err) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("text, error", [
    ("add 0 1\nadd 1 2\nadd 2 0\n", "line 3: edge (2, 0) would create a cycle"),
    ("add 0 1\ndel 0 5\n", "line 2: edge (0, 5) does not exist"),
])
def test_dynamic_operation_error_names_line(tmp_path, capsys, text, error):
    script = write(tmp_path, "s.txt", text)
    code, _, err = run_cli(["dynamic", script], capsys)
    assert code == 2
    assert err == f"error: {error}\n"


@pytest.mark.parametrize("text", ["", "# nothing\n"])
def test_dynamic_script_without_vertices_is_clean(tmp_path, capsys, text):
    script = write(tmp_path, "s.txt", text)
    code, out, err = run_cli(["dynamic", script], capsys)
    assert (code, out, err) == (2, "", "error: script names no vertices\n")


@pytest.mark.parametrize("text, error", [
    ("query\n", "line 1: bad command 'query'"),
    ("# header\nfrob 1\nquery\n", "line 2: bad command 'frob 1'"),
    ("\nadd\nreroot\n", "line 2: bad command 'add'"),
])
def test_dynamic_script_naming_no_vertex_reports_its_first_command(tmp_path, capsys,
                                                                   text, error):
    script = write(tmp_path, "s.txt", text)
    code, out, err = run_cli(["dynamic", script], capsys)
    assert (code, out, err) == (2, "", f"error: {error}\n")


def test_conformance_all_and_relations(capsys):
    code, out, _ = run_cli(["conformance", "--max-n", "5", "--param", "all"], capsys)
    assert code == 0 and "fail=0" in out
    code, out, _ = run_cli(["conformance", "--max-n", "5", "--param", "relations"],
                           capsys)
    assert code == 0 and "fail=0" in out


def test_conformance_gap(capsys):
    code, out, _ = run_cli(["conformance", "--max-n", "7", "--param", "gap"], capsys)
    assert code == 0 and "param=gap fail=0" in out


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


def test_gen_roundtrip(tmp_path, capsys):
    code, out, _ = run_cli(["gen", "spider", "2", "2", "2"], capsys)
    assert code == 0
    from treesweep.forest import parse_edge_list, spider_tree
    assert parse_edge_list(out) == spider_tree(2, 2, 2)


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
