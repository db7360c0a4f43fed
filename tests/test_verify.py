import functools
import json

import pytest
from hypothesis import given, settings, strategies as st

from desarrange import cli, formulas, patterns, rungraph, verify
from desarrange.perms import avoiders, class_predicate
from test_mutants import BROKEN_BIJECTIONS, BRUTE_SIDE_ERRORS, DES_OVER_T, assert_caught


def test_verify_all_small():
    reports = verify.verify_all(4)
    assert verify.all_ok(reports)
    assert len(reports) == len(verify.CHECKS)


def test_verify_only():
    reports = verify.verify_all(5, only="table1")
    assert len(reports) == 1 and reports[0].subject == "table1-membership"
    with pytest.raises(ValueError):
        verify.verify_all(5, only="nope")


def test_verify_json_says_when_the_range_was_clamped():
    (rep,) = verify.verify_all(7, only="table1")
    assert rep.n_range == (0, 5) and rep.n_requested == 7 and rep.clamped
    data = json.loads(verify.render_json([rep]))["reports"][0]
    assert data["n_requested"] == 7 and data["clamped"] is True
    assert verify.render_text([rep]) == "PASS table1-membership (n=0..5)"
    (rep,) = verify.verify_all(4, only="table1")
    assert rep.n_requested == 4 and not rep.clamped
    assert verify.VerificationReport("demo", (2, 0), n_requested=0).clamped is False


def test_verify_n_max_zero():
    assert verify.all_ok(verify.verify_all(0))


def test_specialization_checks_pass():
    report = verify.CHECKS["specializations"](6)
    assert report.ok and sorted(report.verdicts) == list(range(7))


def test_run_theorem_builds_each_point_once(monkeypatch):
    calls = []
    real = rungraph.run_theorem_egf

    def counted(spec, i, j, t=1, s=1, order=8):
        calls.append((spec.name, i, j, t, s))
        return real(spec, i, j, t=t, s=s, order=order)

    monkeypatch.setattr(rungraph, "run_theorem_egf", counted)
    assert verify.CHECKS["run-theorem"](9).ok
    want = {(name, i, j, t, s) for name, entries, *_, points in verify._RUN_THEOREM_CASES
            for i, j in entries for t, s in points}
    assert len(calls) == len(set(calls)) and set(calls) == want and len(want) == 12


def test_run_theorem_points_avoid_the_closed_form_poles():
    for name, _, _, tag, _, points in verify._RUN_THEOREM_CASES:
        assert len(set(points)) == len(points), name
        for t, s in points:
            formulas.evaluate_formula(tag, t=t, s=s, order=60)  # no PoleError


@pytest.mark.parametrize("row", BRUTE_SIDE_ERRORS, ids=lambda row: row[0])
def test_a_brute_side_error_fails_its_row_comparison(monkeypatch, capsys, row):
    # one brute-force count off by one at n = 4 must fail the comparison
    # there and only there
    assert assert_caught(monkeypatch, capsys, *row[1:]).count("\n    n=") == 1


def test_render_functions():
    reports = verify.verify_all(3)
    text = verify.render_text(reports)
    assert text.count("PASS") == len(reports)
    data = json.loads(verify.render_json(reports))
    assert data["ok"] is True
    assert len(data["reports"]) == len(reports)


def test_an_n_that_no_comparison_reached_fails(monkeypatch):
    monkeypatch.setattr(verify, "CHECKS", dict(verify.CHECKS))  # the toy checks leave no entry

    @verify._check("toy", "toy", 0, 2)
    def compares_n_0(rep, top):
        rep.record(0, True)

    @verify._check("toy", "toy", 0, 2)
    def has_a_pole(rep, top):
        rep.record(0, True)
        raise formulas.PoleError("no sample point")

    @verify._check("toy", "toy", 3, 5)
    def compares_nothing(rep, top):
        pass

    assert verify.render_text([compares_n_0(9), has_a_pole(9), compares_nothing(2)]) == (
        "FAIL toy (n=0..2)\n"
        "    n=1: mismatch(not compared)\n"
        "    n=2: mismatch(not compared)\n"
        "FAIL toy (n=0..2)\n"
        "    n=2: mismatch(formula pole: no sample point)\n"
        "SKIP toy (n=3..2)")


def test_report_records_mismatch_details():
    rep = verify.VerificationReport("demo", (0, 1))
    rep.record(0, True)
    rep.record(1, False, "left 1 vs right 2")
    rep.record(1, False, "second failure")
    assert not rep.ok
    assert "left 1 vs right 2" in rep.verdicts[1]
    assert "second failure" in rep.verdicts[1]
    assert rep.to_json()["verdicts"]["0"] == "match"


@functools.lru_cache(maxsize=None)
def _domain(name, n):
    return avoiders(n, *patterns.BIJECTIONS[name].domain)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_bijections_round_trip_beyond_verify_range(data):
    # verify stops at n = 8; draw domain members up to n = 10
    name = data.draw(st.sampled_from(sorted(patterns.BIJECTIONS)))
    b = patterns.BIJECTIONS[name]
    n = data.draw(st.integers(b.n_min, 10))
    p = data.draw(st.sampled_from(_domain(name, n)))
    q = patterns.bijection(name, p)
    target, target_class = b.target
    assert patterns.avoids(q, target) and class_predicate(target_class)(q)
    if b.fixes and class_predicate(b.fixes)(p):
        assert q == p
    else:
        shift = len(q) - n
        assert shift in b.shifts
        assert (b.inverse(q, -shift) if b.graded else b.inverse(q)) == p


@pytest.mark.parametrize("row", BROKEN_BIJECTIONS, ids=lambda row: row[0])
def test_verify_catches_a_broken_bijection(monkeypatch, capsys, row):
    assert_caught(monkeypatch, capsys, *row[1:])


def test_transcription_failure_keeps_the_checks_subject_and_range(monkeypatch, capsys):
    DES_OVER_T(monkeypatch)
    assert cli.main(["verify", "--only", "tables", "--n-max", "31", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)["reports"][0]
    assert report["n_range"] == [0, 30] and report["n_requested"] == 31 and report["clamped"]


@pytest.mark.parametrize("n_max", [0, 3, 5])
def test_verdicts_lie_inside_the_reported_range(n_max):
    for report in verify.verify_all(n_max):
        lo, hi = report.n_range
        assert all(lo <= n <= hi for n in report.verdicts), (report.subject, report.verdicts)
