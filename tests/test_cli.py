import io
import sys

import pytest

from treesweep.cli import main


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


@pytest.mark.parametrize("param", ["ns", "es", "pw"])
def test_strategy_rejects_other_params_before_running(tmp_path, capsys, param):
    path = write(tmp_path, "path4.txt", "0 1\n1 2\n2 3\n")
    code, out, err = run_cli(["compute", path, "--param", param, "--strategy"], capsys)
    assert code == 2 and out == ""
    assert "supports --param pn only" in err


def test_compute_rejects_cycle(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "0 1\n1 2\n2 0\n")
    code, _, err = run_cli(["compute", path], capsys)
    assert code != 0 and "cycle" in err


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


def test_gen_wrong_argument_count(capsys):
    code, out, err = run_cli(["gen", "spider", "1", "2"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: spider expects l1 l2 l3, got 2 argument(s)\n"


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
    ("add 0 1\nadd 1 2\nadd 2 0\n", "line 3: edge (2, 0) would create a cycle"),
    ("add 0 1\ndel 0 5\n", "line 2: edge (0, 5) does not exist"),
])
def test_dynamic_operation_error_names_line(tmp_path, capsys, text, error):
    script = write(tmp_path, "s.txt", text)
    code, _, err = run_cli(["dynamic", script], capsys)
    assert code == 2
    assert err == f"error: {error}\n"


def test_conformance_all_and_relations(capsys):
    code, out, _ = run_cli(["conformance", "--max-n", "5", "--param", "all"], capsys)
    assert code == 0 and "fail=0" in out
    code, out, _ = run_cli(["conformance", "--max-n", "5", "--param", "relations"],
                           capsys)
    assert code == 0 and "fail=0" in out


def test_conformance_checks_every_root(capsys, monkeypatch):
    import treesweep.cli as cli
    real = cli.rooted_value
    monkeypatch.setattr(cli, "rooted_value",
                        lambda tree, root, variant: real(tree, root, variant) + (root == 2))
    code, out, _ = run_cli(["conformance", "--max-n", "4", "--param", "pn"], capsys)
    assert code == 1
    assert "fail=3" in out and "pn rooted at 2: got=" in out


def test_conformance_parallel(capsys):
    code, out, _ = run_cli(
        ["conformance", "--max-n", "6", "--param", "pn", "--jobs", "2"], capsys)
    assert code == 0 and "fail=0" in out


def test_gen_roundtrip(tmp_path, capsys):
    code, out, _ = run_cli(["gen", "spider", "2", "2", "2"], capsys)
    assert code == 0
    from treesweep.forest import parse_edge_list, spider_tree
    assert parse_edge_list(out) == spider_tree(2, 2, 2)
