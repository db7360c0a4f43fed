import json
import pathlib

import pytest

from desarrange import cli

from reference_tables import derangement_numbers

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("args,golden", [
    (("tables", "1"), "table1.txt"),
    (("tables", "2"), "table2.txt"),
    (("tables", "2", "--format", "csv"), "table2.csv"),
    (("tables", "5"), "table5.txt"),
    (("tables", "7", "--n-max", "9", "--format", "csv"), "table7.csv"),
    (("tables", "3", "--format", "json"), "table3.json"),
])
def test_tables_golden(capsys, args, golden):
    code, out = run(capsys, *args)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_table1_lists_all_of_length_five(capsys):
    _, out = run(capsys, "tables", "1")
    d5_line = [l for l in out.splitlines() if l.startswith("D_5:")][0]
    assert len(d5_line.split()) == 45  # label + 44 desarrangements
    assert "54312" in d5_line and "54321" not in d5_line


def test_seq_lines(capsys):
    code, out = run(capsys, "seq", "fine", "11")
    assert code == 0 and out.strip() == "0,1,0,1,2,6,18,57,186,622,2120,7338"
    code, out = run(capsys, "seq", "jacobsthal", "11")
    assert code == 0 and out.strip() == "0,1,1,3,5,11,21,43,85,171,341,683"
    code, out = run(capsys, "seq", "d(123,132,213)", "10")
    assert code == 0 and out.strip() == "1,0,1,1,2,3,5,8,13,21,34"
    code, out = run(capsys, "seq", "d(321)", "10")
    assert out.strip().endswith("4862")
    code, _ = run(capsys, "seq", "lucas", "5")
    assert code == 2
    code, _ = run(capsys, "seq", "d(99)", "5")
    assert code == 2


def test_runthm_builtin_and_file(capsys):
    code, out = run(capsys, "runthm", "fig1", "-i", "1", "-j", "3",
                    "--correction", "cosh", "--order", "8", "--oracle")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1,0,1,2,9,44,265,1854,14833"
    assert lines[1] == lines[0] and lines[2] == "oracle: ok"
    spec_path = pathlib.Path(__file__).resolve().parent.parent / "specs" / "fig2.json"
    code, out = run(capsys, "runthm", str(spec_path), "-i", "1", "-j", "2",
                    "-t", "1", "--correction", "one", "--order", "8")
    assert code == 0
    assert out.strip() == "1,0,1,2,9,44,265,1854,14833"


def test_runthm_rational_t(capsys):
    code, out = run(capsys, "runthm", "fig2", "-i", "1", "-j", "2",
                    "-t", "1/3", "--order", "4")
    assert code == 0
    assert out.strip().split(",")[2] == "1/3"  # the lone length-2 desarrangement


def test_runthm_order_beyond_enumeration_cap(capsys):
    code, out = run(capsys, "runthm", "fig1", "-i", "1", "-j", "3",
                    "--correction", "cosh", "--order", "25")
    assert code == 0
    assert out.strip() == ",".join(str(d) for d in derangement_numbers(25))


def test_runthm_errors(capsys, tmp_path):
    code, _ = run(capsys, "runthm", "nonexistent.json", "-i", "1", "-j", "2")
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "ambiguous", "dim": 3,
        "edges": [
            {"from": 1, "to": 2, "cases": [{"parts": {"progressions": [], "extras": [1]},
                                            "t_exp": [0, 0], "s_exp": [0, 0]}]},
            {"from": 1, "to": 3, "cases": [{"parts": {"progressions": [], "extras": [1]},
                                            "t_exp": [0, 0], "s_exp": [0, 0]}]},
            {"from": 2, "to": 2, "cases": [{"parts": {"progressions": [], "extras": [1]},
                                            "t_exp": [0, 0], "s_exp": [0, 0]}]},
            {"from": 3, "to": 2, "cases": [{"parts": {"progressions": [], "extras": [1]},
                                            "t_exp": [0, 0], "s_exp": [0, 0]}]},
        ]}))
    code, _ = run(capsys, "runthm", str(bad), "-i", "1", "-j", "2")
    assert code == 1


def test_verify_command(capsys):
    code, out = run(capsys, "verify", "--n-max", "0")
    assert code == 0
    code, _ = run(capsys, "verify", "--n-max", "3", "--only", "nope")
    assert code == 2
    assert out.count("PASS") == len(out.strip().splitlines())
    code, out = run(capsys, "verify", "--n-max", "4", "--only", "run-theorem",
                    "--format", "json")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_conjecture_command(capsys):
    code, out = run(capsys, "conjecture", "--n-max", "4")
    assert code == 0
    assert "{132}" in out
    code, out = run(capsys, "conjecture", "--n-max", "4", "--format", "json")
    assert code == 0
    assert json.loads(out)["n_max"] == 4


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["tables", "9"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()
    for bad in (["-t", "1/0"], ["-s", "1/0"], ["-t", "two"], ["--order", "-1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["runthm", "fig2", "-i", "1", "-j", "2", *bad])
        assert exc.value.code == 2
        assert capsys.readouterr().err.count("error:") == 1


def test_cap_override(capsys, monkeypatch):
    monkeypatch.delenv("DESARRANGE_CAP", raising=False)
    code, out = run(capsys, "--cap-override", "12", "seq", "catalan", "3")
    assert code == 0
    import os
    assert os.environ["DESARRANGE_CAP"] == "12"
