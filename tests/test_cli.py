import ast
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from desarrange import cli, patterns, rankdp, rungraph, series, verify

from reference_tables import derangement_numbers

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
SPECS = SRC / "desarrange" / "specs"


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
] + [  # the rest of tables 2..6 in every format, at the default n-max
    (("tables", str(k), "--format", fmt), f"table{k}.{ext}")
    for k in range(2, 7) for fmt, ext in (("text", "txt"), ("csv", "csv"), ("json", "json"))
    if (k, ext) not in ((2, "txt"), (2, "csv"), (5, "txt"), (3, "json"))
])
def test_tables_golden(capsys, args, golden):
    code, out = run(capsys, *args)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("which", [2, 3, 4, 5, 6])
def test_a_miscopied_formula_prints_no_table(monkeypatch, capsys, which):
    # the counted rows print only once the formula meets them: a stray x^20
    # is one stderr line naming the table and n = 20, exit 1 and no table
    from test_mutants import _formula, _plus, _pole
    tag = cli.STAT_TABLE_IDS[which]
    _formula(tag, _plus([0] * 20 + [1]))(monkeypatch)
    assert cli.main(["tables", str(which), "--n-max", "30"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"mismatch: {tag} at n=20: DP ")
    assert err.count("\n") == 1 and "Traceback" not in err
    _formula(tag, _pole)(monkeypatch)  # no sample point at all: the top of the range
    assert cli.main(["tables", str(which), "--n-max", "5"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"mismatch: {tag} at n=5: formula pole: "
                              f"could not find 7 good points for {tag}\n")


def test_row_text():
    assert cli.row_text({1: 3, 2: 5, 3: 1}) == "3t+5t^2+t^3"
    assert cli.row_text({0: 1}) == "1"
    assert cli.row_text({}) == "0"
    assert cli.row_text({2: 1}) == "t^2"


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


def test_seq_prints_numbers_of_any_size(capsys):
    digits = sys.get_int_max_str_digits()
    code = cli.main(["seq", "derangement", "1700"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == digits  # the lifted limit lasts one call
    d = 1
    for n in range(1, 1701):
        d = n * d + (-1) ** n
    last = out.strip().rsplit(",", 1)[1]
    assert len(last) > digits
    sys.set_int_max_str_digits(0)
    try:
        assert int(last) == d
    finally:
        sys.set_int_max_str_digits(digits)
    with pytest.raises(SystemExit) as exc:  # arguments keep the limit
        cli.main(["seq", "derangement", "9" * (digits + 1)])
    assert exc.value.code == 2


def test_runthm_builtin_and_file(capsys):
    code, out = run(capsys, "runthm", "fig1", "-i", "1", "-j", "3",
                    "--correction", "cosh", "--order", "8", "--oracle")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1,0,1,2,9,44,265,1854,14833"
    assert lines[1] == lines[0] and lines[2] == "oracle: ok"
    spec_path = SPECS / "fig2.json"
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


def test_seq_is_one_pass():
    # each term is computed once: quadratic code takes several seconds here
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "desarrange", "seq", "d(123)", "3000"],
                          capture_output=True, text=True, env=env, timeout=3)
    assert (done.returncode, done.stderr) == (0, "")
    f = [0, 1]  # Fine numbers by C_m = 2 F_(m+1) + F_m
    for m in range(1, 3001):
        f.append((math.comb(2 * m, m) // (m + 1) - f[m]) // 2)
    assert int(done.stdout.rsplit(",", 1)[1]) == f[3001]


_PEAK = """
import sys
sys.path.insert(0, {src!r})
from desarrange import cli
code = cli.main({argv!r})
sys.stdout.flush()
with open("/proc/self/status") as fh:
    peak_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(code, peak_kb, file=sys.stderr)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_seq_writes_each_term_as_it_goes():
    # the child's own peak resident set (ru_maxrss would count this process
    # too): holding every term as an int, then as a string, then the joined
    # line took about 60 MB
    code = _PEAK.format(src=str(SRC), argv=["seq", "fibonacci", "10000"])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30)
    exit_code, peak_kb = map(int, done.stderr.split())
    assert exit_code == 0 and done.returncode == 0
    assert peak_kb < 40 * 1024
    f = [0, 1]
    for _ in range(9999):
        f.append(f[-1] + f[-2])
    assert done.stdout.endswith("\n") and done.stdout.count("\n") == 1
    assert int(done.stdout.rsplit(",", 1)[1]) == f[10000]


def test_runthm_oracle_over_the_cap_fails_before_it_walks():
    # order 12 is above the default cap 11, so the error must come before
    # the direct values walk S_0..S_11 (about 19 s, past the timeout)
    env = {k: v for k, v in os.environ.items() if k != "DESARRANGE_CAP"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "desarrange", "runthm", "fig2", "-i", "1",
                           "-j", "2", "-t", "2", "--order", "12", "--oracle"],
                          capture_output=True, text=True, env=env, timeout=10)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == ("error: n=12 exceeds enumeration cap 11; "
                           "raise the cap with --cap-override\n")


def test_runthm_oracle_over_the_cap_fails_before_it_builds_the_pipeline(monkeypatch, capsys):
    monkeypatch.delenv("DESARRANGE_CAP", raising=False)

    def built(*args, **kwargs):
        raise AssertionError("the pipeline ran for an over-cap oracle run")

    monkeypatch.setattr(rungraph, "run_theorem_egf", built)
    assert cli.main(["runthm", "fig2", "-i", "1", "-j", "2", "--order", "12", "--oracle"]) == 2
    assert capsys.readouterr() == ("", "error: n=12 exceeds enumeration cap 11; "
                                       "raise the cap with --cap-override\n")


# (1,1) is (1,2)-admissible along 1-2-2 and along 1-3-2
AMBIGUOUS_SPEC = {"name": "ambiguous", "dim": 3, "edges": [
    {"from": u, "to": v, "cases": [{"parts": {"progressions": [], "extras": [1]},
                                    "t_exp": [0, 0], "s_exp": [0, 0]}]}
    for u, v in ((1, 2), (1, 3), (2, 2), (3, 2))]}


def test_runthm_errors(capsys, tmp_path):
    code, _ = run(capsys, "runthm", "nonexistent.json", "-i", "1", "-j", "2")
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(AMBIGUOUS_SPEC))
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


# Every site that rejects a request after parsing, as (DESARRANGE_CAP, argv,
# the one stderr line after "error: ").
USAGE_ERRORS = [
    (None, ["verify", "--only", "nope"], f"unknown check 'nope'; have {sorted(verify.CHECKS)}"),
    (None, ["runthm", str(SPECS / "missing.json"), "-i", "1", "-j", "2"],
     f"cannot load spec: [Errno 2] No such file or directory: '{SPECS / 'missing.json'}'"),
    (None, ["runthm", "fig1", "-i", "1", "-j", "4"], "entry (1,4) outside 1..3"),
    (None, ["seq", "d(12)", "3"], "not a length-3 pattern: '12'"),
    (None, ["seq", "nope", "3"],
     f"unknown sequence 'nope'; have {patterns.SEQUENCE_IDS} or d(<patterns>)"),
    (None, ["--cap-override", "4", "tables", "1"],
     "n=5 exceeds enumeration cap 4; raise the cap with --cap-override"),
    ("abc", ["tables", "1"], "DESARRANGE_CAP must be a non-negative integer, got 'abc'"),
]


def test_usage_errors_exit_2(capsys, monkeypatch):
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
    for argv in (["tables", "2", "--n-max", "-1"], ["verify", "--n-max", "-1"],
                 ["conjecture", "--n-max", "-2"], ["seq", "fine", "-3"],
                 ["--cap-override", "-1", "seq", "fine", "3"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.count("error:") == 1 and captured.out == ""
    for cap, argv, message in USAGE_ERRORS:
        if cap is None:
            monkeypatch.delenv("DESARRANGE_CAP", raising=False)
        else:
            monkeypatch.setenv("DESARRANGE_CAP", cap)
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr() == ("", f"error: {message}\n"), argv
    monkeypatch.delenv("DESARRANGE_CAP", raising=False)
    # over-cap requests are usage errors too, from every subcommand
    for argv in (["verify", "--n-max", "4"], ["conjecture", "--n-max", "4"],
                 ["tables", "1"]):
        assert cli.main(["--cap-override", "3", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("error:") == 1 and captured.out == ""
        assert "Traceback" not in captured.err
    # (order 10: the oracle's lengths up to 9 may be cached by earlier tests)
    assert cli.main(["--cap-override", "3", "runthm", "fig1", "-i", "1", "-j", "3",
                     "--order", "10", "--oracle"]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 1 and captured.out == ""


@pytest.mark.parametrize("argv, owner, name, exc", [
    (["tables", "2"], rankdp, "rows", ZeroDivisionError),
    (["verify", "--only", "table1"], verify, "enumerate_class", ZeroDivisionError),
    (["seq", "d(321)", "9"], patterns, "closed_form_count", ZeroDivisionError),
    (["conjecture", "--n-max", "4"], patterns, "tally", ZeroDivisionError),
    # a ValueError of the series layer is a defect, not a bad entry
    (["runthm", "fig2", "-i", "1", "-j", "2", "--order", "6"], series.SeriesMatrix, "inverse",
     series.SingularMatrixError),
], ids=["tables", "verify", "seq", "conjecture", "runthm"])
def test_a_defect_exits_3_with_one_line(capsys, monkeypatch, argv, owner, name, exc):
    def planted(*args, **kwargs):
        raise exc("planted")

    monkeypatch.setattr(owner, name, planted)
    assert cli.main(argv) == 3
    assert capsys.readouterr() == ("", f"internal error: {exc.__name__}: planted\n")


_LOADED_LAYERS = """
import json, sys
sys.path.insert(0, {src!r})
from desarrange import cli
cli.build_parser()
argv = {argv!r}
if argv:
    cli.main(argv)
print(json.dumps([sorted(m for m in sys.modules if m.split(".")[0] == "desarrange"),
                  "dataclasses" in sys.modules]))
"""


@pytest.mark.parametrize("argv, runs", [
    ([], set()),
    (["runthm", "fig1", "-i", "1", "-j", "3", "--order", "5"], {"rungraph"}),
    (["tables", "2", "--n-max", "5"], {"formulas", "rankdp"}),
], ids=["parser", "runthm", "tables"])
def test_a_fresh_process_loads_only_the_layers_it_runs(argv, runs):
    code = _LOADED_LAYERS.format(src=str(SRC), argv=argv)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    modules, has_dataclasses = json.loads(out.splitlines()[-1])
    layers = {"cli", "perms", "series", *runs}
    assert modules == sorted({"desarrange", *(f"desarrange.{m}" for m in layers)})
    assert not has_dataclasses


_TRACED = """
import contextlib, io, json, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
from tracer import LAYERS, Tracer
tracer = Tracer()
tracer.install()
from desarrange import cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main({argv!r})
summary = tracer.summary()
print(json.dumps([code, out.getvalue(), list(LAYERS), sorted(summary["self_s"]),
                  {{key: span["calls"] for key, span in summary["spans"].items()}}]))
"""


def _traced(argv):
    """Exit code, stdout, layers, traced layers and span calls of one run
    under perfbench/tracer.py, in a fresh process."""
    code = _TRACED.format(src=str(SRC), perfbench=str(SRC.parent / "perfbench"), argv=argv)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    return json.loads(out.splitlines()[-1])


def test_the_benchmark_tracer_still_installs(capsys):
    # perfbench/tracer.py reads methods such as TruncSeries.sqrt straight off
    # the classes, so removing one breaks only traced benchmark runs
    exit_code, _, layers, traced, _ = _traced(["seq", "catalan", "5"])
    assert exit_code == 0
    assert traced == sorted(layers)
    # the Fine rule calls the wrapped sequence("catalan", ...) inside a span:
    # F_4 .. F_13 for n = 3..12, and C_1 .. C_12 for the rule
    argv = ["seq", "d(123)", "12"]
    exit_code, out, _, _, calls = _traced(argv)
    assert (exit_code, out) == run(capsys, *argv)
    assert calls["patterns.sequence"] == 10 + 12


def test_the_tracer_leaves_the_conjecture_report_unchanged(capsys):
    # patterns binds oracle.marginal by name, and the tracer rebinds every
    # wrapped name in every layer module: the report must not change, and
    # each of its marginals (fix and pix, 41 sets, n = 0..5) is a span
    argv = ["conjecture", "--n-max", "5"]
    exit_code, out, _, _, calls = _traced(argv)
    assert (exit_code, out) == run(capsys, *argv)
    assert calls["oracle.marginal"] == 2 * 41 * 6


_ENTERED = """
import contextlib, io, json, os, sys
sys.path.insert(0, {src!r})
from desarrange import cli
entered, codes = set(), []


def trace(frame, event, arg):  # call events only: returning None traces no lines
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


sys.settrace(trace)
for argv, cap in {commands!r}:
    if cap is not None:
        os.environ["DESARRANGE_CAP"] = cap
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(cli.main(argv))
    except SystemExit as exc:  # argparse's usage error
        codes.append(exc.code)
    finally:
        os.environ.pop("DESARRANGE_CAP", None)
sys.settrace(None)
print(json.dumps([codes, sorted(entered)]))
"""

# The functions of src/desarrange that no command enters, each with the reason it stays.
_TRACER = "perfbench/tracer.py wraps it, reading it off the class by name"
UNENTERED = {
    "series.TruncSeries.sqrt": _TRACER,
    "series.TruncSeries.shift_down": _TRACER,
    "series.TruncSeries.__rsub__": _TRACER,
    "series.TruncSeries.__rtruediv__": _TRACER,
    "series.SeriesMatrix.__mul__": _TRACER,
    "series.Poly.__call__": _TRACER,
    "series.Poly.__init__": "no command builds a Poly; it stays while the tracer reads __call__",
    "series.TruncSeries.coeffs": "sqrt, shift_down and repr read the coefficients",
}


def _functions():
    """(file, first line) -> module.qualname of every def in src/desarrange, lambdas
    and the __eq__, __hash__ and __repr__ methods aside."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path, prefix)
                continue
            name = f"{prefix}.{child.name}"
            if (not isinstance(child, ast.ClassDef)
                    and child.name not in ("__eq__", "__hash__", "__repr__")):
                # a decorated function's code starts at its first decorator
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(os.path.realpath(path), first)] = name
            visit(child, path, name)

    for path in sorted((SRC / "desarrange").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, path.stem)
    return found


def test_every_function_runs_under_some_command(tmp_path):
    # one fresh interpreter runs every command through cli.main, so that no
    # memo an earlier test filled can hide a function from the trace
    ambiguous = tmp_path / "ambiguous.json"
    ambiguous.write_text(json.dumps(AMBIGUOUS_SPEC))
    commands = [["tables", str(k), "--n-max", "4", "--format", fmt]
                for k in range(1, 8) for fmt in ("text", "csv", "json")]
    commands += [
        ["verify", "--n-max", "5"], ["verify", "--n-max", "5", "--format", "json"],
        ["verify", "--only", "nope"],
        ["conjecture", "--n-max", "10"],  # n = 10 is above CENSUS_MAX: tally walks
        ["conjecture", "--n-max", "3", "--format", "json"],
        ["runthm", "fig1", "-i", "1", "-j", "3", "--correction", "cosh", "--order", "6",
         "--oracle"],
        ["runthm", "fig2", "-i", "1", "-j", "2", "-t", "2", "--correction", "one",
         "--order", "6", "--oracle"],
        ["runthm", "fig3", "-i", "1", "-j", "2", "-t", "2", "-s", "3/2", "--order", "6",
         "--oracle"],
        ["runthm", "fig1", "-i", "1", "-j", "4"],
        ["runthm", str(tmp_path / "missing.json"), "-i", "1", "-j", "2"],
        ["runthm", str(ambiguous), "-i", "1", "-j", "2"],
        ["--cap-override", "3", "verify", "--n-max", "5"],
    ]
    commands += [["seq", tag, "12"] for tag in patterns.SEQUENCE_IDS]
    commands += [["seq", f"d({pats})", "12"] for pats in
                 ("", "123", "321", "132,213", "123,132,213", "213,312", "{231,312,321}")]
    commands += [["seq", "lucas", "3"], ["seq", "d(12)", "3"], ["seq", "fine", "-1"]]
    runs = [(argv, None) for argv in commands] + [(["verify"], "x")]  # a malformed cap
    env = {k: v for k, v in os.environ.items() if k != "DESARRANGE_CAP"}
    done = subprocess.run([sys.executable, "-c",
                           _ENTERED.format(src=str(SRC), commands=runs)],
                          capture_output=True, text=True, env=env, check=True, timeout=120)
    codes, entered = json.loads(done.stdout.splitlines()[-1])
    assert codes.count(1) == 1 and codes[-1] == 2  # the ambiguous spec, and the bad cap
    functions = _functions()
    assert set(UNENTERED) <= set(functions.values())
    entered = {(os.path.realpath(path), line) for path, line in entered}
    unentered = {name for key, name in functions.items() if key not in entered}
    assert unentered == set(UNENTERED)


def _fig2_json():
    path = SPECS / "fig2.json"
    return json.loads(path.read_text())


@pytest.mark.parametrize("breakage", ["dim_not_int", "parts_is_list", "not_utf8",
                                      "nested_too_deep", "isolated_vertex"])
def test_malformed_spec_is_a_usage_error(capsys, tmp_path, breakage):
    data = _fig2_json()
    if breakage == "dim_not_int":
        data["dim"] = "two"
    elif breakage == "isolated_vertex":
        data["dim"] = 3
    elif breakage == "parts_is_list":
        data["edges"][0]["cases"][0]["parts"] = [[1, 1]]
    text = json.dumps(data)
    if breakage == "nested_too_deep":  # the edges, the last key, wrapped in 5,000 lists
        text = text.replace('"edges": ', '"edges": ' + "[" * 5000)[:-1] + "]" * 5000 + "}"
    path = tmp_path / "broken.json"
    path.write_bytes(b"\xff" if breakage == "not_utf8" else text.encode())
    code = cli.main(["runthm", str(path), "-i", "1", "-j", "2", "--order", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.count("error:") == 1
    assert "Traceback" not in captured.err and captured.out == ""


def test_cap_override(capsys, monkeypatch):
    monkeypatch.delenv("DESARRANGE_CAP", raising=False)
    code, out = run(capsys, "--cap-override", "12", "seq", "catalan", "3")
    assert code == 0
    # the override applies during the call: table 1 lists lengths up to 5
    assert run(capsys, "--cap-override", "4", "tables", "1")[0] == 2
    assert run(capsys, "--cap-override", "5", "tables", "1")[0] == 0
    # and is gone after it, whether or not the variable was set before
    assert "DESARRANGE_CAP" not in os.environ
    monkeypatch.setenv("DESARRANGE_CAP", "4")
    assert run(capsys, "--cap-override", "5", "tables", "1")[0] == 0
    assert os.environ["DESARRANGE_CAP"] == "4"
    assert run(capsys, "tables", "1")[0] == 2


@pytest.mark.parametrize("argv", [["verify", "--only", "equidistribution", "--n-max", "8"],
                                  ["conjecture", "--n-max", "8"]])
def test_an_unlisted_agreeing_set_fails_the_conjecture(capsys, monkeypatch, argv):
    # both commands judge the lists by the same rule: from n_max = 7 on they
    # must be exact, so dropping a set that does agree is a mismatch
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setattr(patterns, "PIXFIX_CONJECTURE_SETS", patterns.PIXFIX_CONJECTURE_SETS[1:])
    assert run(capsys, *argv)[0] == 1


@pytest.mark.parametrize("argv", [
    ["tables", "1"],
    ["conjecture"],
    ["runthm", "fig1", "-i", "1", "-j", "3", "--order", "5", "--oracle"],
    ["verify"],
])
def test_malformed_cap_is_a_usage_error(capsys, monkeypatch, argv):
    for raw in ("abc", "-1"):
        monkeypatch.setenv("DESARRANGE_CAP", raw)
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "DESARRANGE_CAP" in err


def test_cap_holds_after_a_warm_oracle_memo(capsys):
    argv = ["runthm", "fig1", "-i", "1", "-j", "3", "--order", "5", "--oracle"]
    assert cli.main(argv) == 0  # fills the descent-composition memo up to 5
    capsys.readouterr()
    assert cli.main(["--cap-override", "3", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 1 and "oracle" not in captured.out


# --- fuzzing the whole command line ---

RATIONALS = st.sampled_from(["0", "2", "3/2", "-1/3", "1/0", "x", "", "1/3/4", "1e3"])
SIZES = st.integers(-2, 6).map(str)
PATTERN_SPECS = st.sampled_from(["123", "132,312", "{213,321}", "", "12", "1234", "abc",
                                 "123,,321", "321,321", "1,2,3", "123;321", "d(123)"])
MALFORMED_SPECS = {
    "not_json.json": b"{dim: 3",
    "list.json": b"[1, 2, 3]",
    "empty.json": b"{}",
    "not_utf8.json": b"\xff\xfe",
    "dim_text.json": json.dumps({**_fig2_json(), "dim": "two"}).encode(),
    "no_edges.json": json.dumps({"name": "x", "dim": 2}).encode(),
    "negative_part.json": json.dumps({"name": "x", "dim": 1, "edges": [
        {"from": 1, "to": 1, "cases": [{"parts": {"progressions": [], "extras": [-1]},
                                        "t_exp": [0, 0], "s_exp": [0, 0]}]}]}).encode(),
}


def _option(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


def _joined(name, values):
    # "-t=-1/3": a value after a separate "-t" that starts with "-" reads as an option
    return st.one_of(st.just([]), values.map(lambda v: [f"{name}={v}"]))


def _argv(spec_dir):
    specs = st.sampled_from(["fig1", "fig2", "fig3", "fig4", str(SPECS / "fig3.json"),
                             str(spec_dir / "missing.json"),
                             *(str(spec_dir / name) for name in MALFORMED_SPECS)])
    tables_cmd = st.tuples(st.just(["tables"]), st.sampled_from(["0", "1", "2", "4", "7", "8", "x"]),
                           _option("--n-max", SIZES),
                           _option("--format", st.sampled_from(["text", "csv", "json", "xml"])))
    # verify and conjecture default to n_max 9 and 8, runthm to order 8: too slow here
    verify_cmd = st.tuples(st.just(["verify", "--n-max"]), SIZES.map(lambda v: [v]),
                           _option("--only", st.sampled_from([*sorted(verify.CHECKS), "nope"])),
                           _option("--format", st.sampled_from(["text", "json", "csv"])))
    runthm_cmd = st.tuples(st.just(["runthm"]), specs.map(lambda v: [v]),
                           SIZES.map(lambda v: ["-i", v]), SIZES.map(lambda v: ["-j", v]),
                           _joined("-t", RATIONALS), _joined("-s", RATIONALS),
                           SIZES.map(lambda v: ["--order", v]),
                           st.sampled_from([[], ["--oracle"]]),
                           _option("--correction",
                                   st.sampled_from(["cosh", "one", "none", "sinh"])))
    seq_cmd = st.tuples(st.just(["seq"]),
                        st.one_of(st.sampled_from([*patterns.SEQUENCE_IDS, "lucas", ""]),
                                  PATTERN_SPECS.map(lambda text: f"d({text})")).map(
                                      lambda v: [v]),
                        SIZES.map(lambda v: [v]))
    conjecture_cmd = st.tuples(st.just(["conjecture", "--n-max"]), SIZES.map(lambda v: [v]),
                               _option("--format", st.sampled_from(["text", "json", "csv"])))
    command = st.one_of(tables_cmd, verify_cmd, runthm_cmd, seq_cmd, conjecture_cmd)
    return st.tuples(_option("--cap-override", SIZES), command).map(
        lambda parts: [word for group in (parts[0], *parts[1]) for word in group])


@pytest.fixture
def spec_dir(tmp_path):
    for name, data in MALFORMED_SPECS.items():
        (tmp_path / name).write_bytes(data)
    return tmp_path


# the fixtures are set up once for all examples: the spec files are only
# read, and each example clears the captured output before it runs
@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_fuzz_exits_cleanly(capsys, monkeypatch, spec_dir, data):
    monkeypatch.delenv("DESARRANGE_CAP", raising=False)
    argv = data.draw(_argv(spec_dir))
    capsys.readouterr()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's usage error
        code = exc.code
        assert code == 2, argv
    captured = capsys.readouterr()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in captured.out + captured.err, argv


def test_the_benchmark_commands_print_their_recorded_outputs(monkeypatch, capsys):
    # every command whose exit code and stdout digest the benchmark records
    import hashlib
    from desarrange.perms import CAP_ENV_VAR
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"
    recorded = json.loads(path.read_text())["commands"]
    assert recorded
    monkeypatch.delenv(CAP_ENV_VAR, raising=False)
    for command, want in recorded.items():
        code = cli.main(command.split())
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert (code, digest) == (want["exit"], want["stdout_sha256"]), command
