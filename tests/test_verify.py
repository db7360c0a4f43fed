import json

import pytest

from desarrange import formulas, verify
from desarrange.series import poly_series


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


def test_corrupted_formula_detected(monkeypatch):
    # perturb the descent formula by x^2: the corruption surfaces at n=2,
    # where the true row is the single desarrangement 21 contributing t
    real = formulas._des
    monkeypatch.setitem(formulas.FORMULAS, "des",
                        (1, lambda t, order: real(t, order) + poly_series([0, 0, 1], order)))
    report = verify.check_statistic_tables(3)
    assert not report.ok
    bad = [n for n, v in report.verdicts.items() if v != "match"]
    assert min(bad) == 2


def test_render_functions():
    reports = verify.verify_all(3)
    text = verify.render_text(reports)
    assert text.count("PASS") == len(reports)
    data = json.loads(verify.render_json(reports))
    assert data["ok"] is True
    assert len(data["reports"]) == len(reports)


def test_report_records_mismatch_details():
    rep = verify.VerificationReport("demo", (0, 1))
    rep.record(0, True)
    rep.record(1, False, "left 1 vs right 2")
    rep.record(1, False, "second failure")
    assert not rep.ok
    assert "left 1 vs right 2" in rep.verdicts[1]
    assert "second failure" in rep.verdicts[1]
    assert rep.to_json()["verdicts"]["0"] == "match"
