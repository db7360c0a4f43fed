import functools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from desarrange import cli, formulas, oracle, patterns, rungraph, verify
from desarrange.perms import avoiders, class_predicate
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


def test_specialization_checks_pass():
    report = verify.CHECKS["specializations"](6)
    assert report.ok and sorted(report.verdicts) == list(range(7))


def test_swapped_joint_pk_des_fails_its_identity_at_n2(monkeypatch, capsys):
    # s and t swapped: the packed fit and the row sums still pass, and the
    # identity "pk-des at s=1 = des" fails at every n from 2 on
    monkeypatch.setitem(formulas.FORMULAS, "joint_pk_des", (
        2, lambda s, t, order: formulas._joint_pk_des(t, s, order), "desarrangements"))
    formulas.distribution_polynomials("joint_pk_des", 8)
    assert cli.main(["verify", "--only", "specializations", "--n-max", "8"]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0] == "FAIL specializations (n=0..8)"
    assert lines[1].startswith("    n=2: mismatch(joint_pk_des at s=1 vs des: 1 vs t)")
    assert err == ""


def test_joint_pix_des_is_compared_with_brute_force_entry_by_entry(monkeypatch, capsys):
    # s t (1-s) (1-t) x^5/5! keeps every row sum, specialization and shadow
    # of the joint pix-des table; only the entry-by-entry comparison with
    # brute-force (pix, des) sees row 5
    real = formulas._joint_pix_des

    def mutant(s, t, order):
        extra = Fraction(s * t * (1 - s) * (1 - t), 120)
        return real(s, t, order) + poly_series([0, 0, 0, 0, 0, extra], order)

    monkeypatch.setitem(formulas.FORMULAS, "joint_pix_des", (2, mutant, "all"))
    assert cli.main(["verify", "--only", "specializations", "--n-max", "8"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == ["FAIL specializations (n=0..8)",
                                "    n=5: mismatch(joint pix,des vs brute)"]
    assert err == ""


def test_run_theorem_builds_each_point_once(monkeypatch):
    calls = []
    real = rungraph.run_theorem_egf

    def counted(spec, i, j, t=1, s=1, order=8):
        calls.append((spec.name, i, j, t, s))
        return real(spec, i, j, t=t, s=s, order=order)

    monkeypatch.setattr(rungraph, "run_theorem_egf", counted)
    assert verify.CHECKS["run-theorem"](9).ok
    assert len(calls) == len(set(calls)) == 14


def test_an_ambiguous_builtin_spec_fails_run_theorem(monkeypatch, capsys):
    # the hypothesis violation is a failed check with one note, not a crash
    from test_rungraph import ambiguous_spec
    real = rungraph.builtin_spec
    monkeypatch.setattr(rungraph, "builtin_spec",
                        lambda name: ambiguous_spec() if name == "fig2" else real(name))
    assert cli.main(["verify", "--only", "run-theorem", "--n-max", "4"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        "FAIL run-theorem (n=0..4)",
        "    n=4: mismatch(hypothesis violation: composition (1, 1) is (1,2)-admissible "
        "along multiple paths)"]
    assert err == ""


def test_a_displayed_example_outside_the_declared_domain_fails(monkeypatch, capsys):
    # declared on Av(123), 321_insert cannot take its displayed example
    # 45123: that example fails, and the rows are still checked at every n
    wrong = patterns.BIJECTIONS["321_insert"]._replace(
        domain=(patterns.parse_patterns("123"), "all"))
    monkeypatch.setitem(patterns.BIJECTIONS, "321_insert", wrong)
    assert cli.main(["verify", "--only", "bijections", "--n-max", "6"]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("FAIL bijections (n=0..6)\n")
    assert "n=5: mismatch(321_insert((4, 5, 1, 2, 3)) raised: input does not avoid 123)" in out
    assert err == ""
    report = verify.check_bijections(6)
    assert sorted(report.verdicts) == list(range(7))
    assert all(v == "match" or v.startswith("mismatch(321_insert")
               for v in report.verdicts.values())


def test_corrupted_formula_detected(monkeypatch):
    # perturb the descent formula by x^2: the corruption surfaces at n=2,
    # where the true row is the single desarrangement 21 contributing t
    real = formulas._des
    monkeypatch.setitem(formulas.FORMULAS, "des",
                        (1, lambda t, order: real(t, order) + poly_series([0, 0, 1], order),
                         "desarrangements"))
    report = verify.check_statistic_tables(3)
    assert not report.ok
    bad = [n for n, v in report.verdicts.items() if v != "match"]
    assert min(bad) == 2


@pytest.mark.parametrize("check, stats, klass", [
    ("tables", ("des", "pk", "val", "dasc", "ddes", "rval"), "desarrangements"),
    ("specializations", ("des",), "all"),
    ("specializations", ("fix",), "all"),
    ("specializations", ("pk", "des"), "desarrangements"),
], ids=["tables-joint", "des-over-S_n", "fix-over-S_n", "pk-des-over-D_n"])
def test_a_brute_side_error_fails_its_row_comparison(monkeypatch, check, stats, klass):
    # the formula rows hold Fractions and the brute counts ints; one count
    # off by one at n = 4 must still fail the comparison there and only there
    real = oracle.distribution

    def off_by_one(n, names, klass_, restrict=None):
        out = real(n, names, klass_, restrict)
        if n == 4 and tuple(names) == stats and klass_ == klass:
            out[next(iter(out))] += 1
        return out

    monkeypatch.setattr(oracle, "distribution", off_by_one)
    report = verify.CHECKS[check](5)
    assert [n for n, v in sorted(report.verdicts.items()) if v != "match"] == [4]


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


def _complement(p):
    return tuple(len(p) + 1 - v for v in p)


COMPLEMENT = patterns.Bijection(
    "complement", _complement, _complement,
    (patterns.parse_patterns("123"), "all"), (patterns.parse_patterns("321"), "all"),
    (0,), "replace each letter v by n + 1 - v: Av_n(123) onto Av_n(321)")


@pytest.mark.parametrize("declared, failure", [
    ({}, None),
    ({"target": (patterns.parse_patterns("123"), "all")}, "outside the target class"),
    ({"target": (patterns.parse_patterns("321"), "desarrangements")},
     "outside the target class"),
    ({"domain": (patterns.parse_patterns("123,132"), "all")}, "images of length"),
    ({"shifts": (1,)}, "undeclared length"),
    ({"flips": True}, "does not toggle"),
    ({"fixes": "desarrangements"}, "not the identity"),
])
def test_a_new_bijection_needs_only_its_record(monkeypatch, declared, failure):
    # verify knows the complement map only through its record; each wrong
    # declaration fails for its own reason
    record = COMPLEMENT._replace(**declared)
    monkeypatch.setitem(patterns.BIJECTIONS, "complement", record)
    report = verify.check_bijections(6)
    assert report.ok is (failure is None)
    if failure:
        assert any("complement: " in v and failure in v for v in report.verdicts.values())


def test_a_map_raising_on_its_declared_domain_fails(monkeypatch):
    # declared on all 132-avoiders, the toggle meets 231, whose maximum is
    # at neither end, and its guard raises: a failed check, not a crash
    wide = patterns.BIJECTIONS["132_231_toggle"]._replace(
        domain=(patterns.parse_patterns("132"), "all"))
    monkeypatch.setitem(patterns.BIJECTIONS, "132_231_toggle", wide)
    report = verify.check_bijections(6)
    assert not report.ok
    assert any("132_231_toggle: raised on its own domain" in v
               for v in report.verdicts.values())


@pytest.mark.parametrize("side", ["forward", "inverse"])
@pytest.mark.parametrize("name", list(patterns.BIJECTIONS))
def test_verify_catches_a_broken_bijection(monkeypatch, name, side):
    record = patterns.BIJECTIONS[name]
    real = getattr(record, side)
    broken = record._replace(**{side: lambda *args: real(*args)[::-1]})
    monkeypatch.setitem(patterns.BIJECTIONS, name, broken)
    report = verify.check_bijections(6)
    assert not report.ok
    assert any(f"{name}: " in v for v in report.verdicts.values())


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
        assert patterns.bijection(name, q, "inverse", grow=-shift) == p


def test_transcription_failure_keeps_the_checks_subject_and_range(monkeypatch, capsys):
    from desarrange import cli
    monkeypatch.setitem(formulas.FORMULAS, "des",
                        (1, lambda t, order: formulas._des(t, order) / t, "desarrangements"))
    assert cli.main(["verify", "--only", "tables", "--n-max", "12"]) == 1
    assert capsys.readouterr().out.startswith("FAIL statistic-tables (n=0..9)\n")
    assert cli.main(["verify", "--only", "tables", "--n-max", "12", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)["reports"][0]
    assert report["n_range"] == [0, 9] and report["n_requested"] == 12
    assert report["clamped"] is True


def test_a_formula_with_a_pole_at_every_point_fails_its_check(monkeypatch, capsys):
    from desarrange import cli

    def no_good_point(t, order):
        raise formulas.PoleError("pole")

    monkeypatch.setitem(formulas.FORMULAS, "des", (1, no_good_point, "desarrangements"))
    assert cli.main(["verify", "--only", "tables", "--n-max", "5"]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("FAIL statistic-tables (n=0..5)\n")
    assert "n=5: mismatch(formula pole: could not find 7 good points for des)" in out
    assert err == ""


@pytest.mark.parametrize("n_max", [0, 3, 5])
def test_verdicts_lie_inside_the_reported_range(n_max):
    for report in verify.verify_all(n_max):
        lo, hi = report.n_range
        assert all(lo <= n <= hi for n in report.verdicts), (report.subject, report.verdicts)
