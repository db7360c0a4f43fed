"""Acceptance suite: one test per criterion, each printing a pass line.

Criterion 10's length-11 brute-force half is opt-in (it takes minutes):
run with DESARRANGE_RUN_N11=1 to enable it.
"""
import os
import time

import pytest

from desarrange import formulas, oracle, patterns, rankdp, rungraph, verify
from desarrange.formulas import evaluate_formula, mismatches
from desarrange.perms import class_count, enumerate_class, pixed_factorization
from desarrange.series import cosh_even
from desarrange.verify import _substitute

from reference_tables import DERANGEMENT_NUMBERS, STAT_TABLES, counts

RUN_N11 = os.environ.get("DESARRANGE_RUN_N11") == "1"


def _report(number: int, name: str, started: float, budget: float):
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} ({name}): PASS ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_01_table_reproduction():
    t0 = time.perf_counter()
    for tag, table in STAT_TABLES.items():
        rows = rankdp.rows(tag, 9)
        for n in range(10):
            assert rows[n] == counts(table[n]), (tag, n)
        assert list(mismatches(tag, rows)) == [], tag
    _report(1, "tables 2-6 reproduced exactly", t0, 10)


def test_criterion_02_oracle_equivalence():
    t0 = time.perf_counter()
    stats = ["des", "pk", "val", "dasc", "ddes", "rval"]
    tables = {s: rankdp.rows(s, 9)
              for s in ("des", "pk", "val", "dasc", "ddes")}
    for tag, rows in tables.items():
        assert list(mismatches(tag, rows)) == [], tag
    tables["rval"] = formulas.rval_rows(tables["pk"])
    for n in range(10):
        joint = oracle.distribution(n, stats, "desarrangements")
        for i, name in enumerate(stats):
            assert tables[name][n] == oracle.marginal(joint, i), (name, n)
    # descents one size further
    brute10 = oracle.distribution(10, ["des"], "desarrangements")
    assert rankdp.rows("des", 10)[10] == brute10
    _report(2, "oracle equals formulas for six statistics", t0, 60)


def test_criterion_03_run_theorem_derangements():
    t0 = time.perf_counter()
    egf = rungraph.run_theorem_egf(rungraph.builtin_spec("fig1"), 1, 3, order=8)
    total = egf + cosh_even(4, 8)
    assert [total.egf_coeff(n) for n in range(9)] == DERANGEMENT_NUMBERS[:9]
    _report(3, "figure-1 spec plus cosh x gives the derangement numbers", t0, 5)


def test_criterion_04_run_theorem_descent_series():
    t0 = time.perf_counter()
    fig2 = rungraph.builtin_spec("fig2")
    for t in (2, 3, 5):
        egf = rungraph.run_theorem_egf(fig2, 1, 2, t=t, order=9)
        assert egf + 1 == evaluate_formula("des", t=t, order=9)
        for n in range(10):
            assert egf.egf_coeff(n) == rungraph.oracle_weight_sum(fig2, 1, 2, n, t=t)
    _report(4, "figure-2 spec reproduces the descent series", t0, 10)


def test_criterion_05_joint_distributions():
    t0 = time.perf_counter()
    pkdes = rankdp.rows("joint_pk_des", 9)
    assert list(mismatches("joint_pk_des", pkdes)) == []
    for n in range(10):
        assert _substitute(pkdes[n], "s", 1) == counts(STAT_TABLES["des"][n]), n
    pixdes = rankdp.rows("joint_pix_des", 9)
    assert list(mismatches("joint_pix_des", pixdes)) == []
    for n in range(10):
        assert _substitute(pixdes[n], "s", 0) == counts(STAT_TABLES["des"][n]), n
    for n in range(9):
        eul = oracle.distribution(n, ["des"], "all")
        assert _substitute(pixdes[n], "s", 1) == eul, n
    for n in range(9):
        fx = oracle.distribution(n, ["fix"], "all")
        assert _substitute(pixdes[n], "t", 1) == fx, n
    _report(5, "joint distributions and their specializations", t0, 30)


def test_criterion_06_pattern_program():
    t0 = time.perf_counter()
    for n in range(10):
        for pats in patterns.all_pattern_sets():
            brute = class_count(n, pats, "desarrangements")
            assert brute == patterns.closed_form_count(n, pats), \
                (n, patterns.patterns_label(pats))
    _report(6, "closed forms equal brute force for all 64 pattern sets", t0, 120)


def test_criterion_07_bijections():
    t0 = time.perf_counter()
    report = verify.check_bijections(8)
    assert report.ok, verify.render_text([report])
    assert patterns.bijection("321_insert", (4, 5, 1, 2, 3)) == (5, 1, 6, 2, 3, 4)
    assert patterns.bijection("312_prepend", (3, 4, 2, 5, 6, 1)) == (4, 3, 5, 2, 6, 7, 1)
    assert patterns.bijection("123_132_213_trim", (6, 4, 5, 3, 2, 1)) == (4, 2, 3, 1)
    _report(7, "all proof bijections round-trip for n <= 8", t0, 30)


def test_criterion_08_equidistribution_evidence():
    t0 = time.perf_counter()
    report = patterns.equidistribution_report(8)
    assert report.counts_list_exact, [
        e for e in report.entries if e.counts_match != e.in_counts_theorem]
    assert report.pixfix_list_exact, [
        e for e in report.entries if e.pixfix_match != e.in_pixfix_conjecture]
    e132 = next(e for e in report.entries if e.patterns == "132")
    assert e132.counts_match and not e132.pixfix_match
    _report(8, "count theorem and pix/fix conjecture lists exact for n <= 8", t0, 120)


def test_criterion_09_hypothesis_validation():
    t0 = time.perf_counter()
    for name in rungraph.BUILTIN_SPECS:
        violation = rungraph.validate_unique_admissibility(rungraph.builtin_spec(name), 12)
        assert violation is None, (name, violation)
    from test_rungraph import ambiguous_spec
    bad = rungraph.validate_unique_admissibility(ambiguous_spec(), 12)
    assert bad is not None and bad[0] == (1, 1)
    with pytest.raises(rungraph.HypothesisViolationError):
        rungraph.run_theorem_egf(ambiguous_spec(), 1, 2, order=4)
    _report(9, "unique-admissibility validation", t0, 5)


def test_criterion_10_sequence_typo_recurrence():
    t0 = time.perf_counter()
    assert patterns.sequence("a_seq", 11) == 13035
    assert patterns.sequence("a_seq", 11) != 3761
    assert patterns.sequence("catalan", 10) - patterns.sequence("a_seq", 10) == 13035
    _report(10, "index-11 value follows the recurrence, not the printed table", t0, 5)


def test_full_verification_harness():
    # the n_max = 9 verify run ties every layer together in one report
    t0 = time.perf_counter()
    reports = verify.verify_all(9)
    assert verify.all_ok(reports), verify.render_text(reports)
    _report(0, "verify_all at n_max = 9 is all-match", t0, 120)


@pytest.mark.slow
@pytest.mark.skipif(not RUN_N11, reason="set DESARRANGE_RUN_N11=1 to run the n=11 sweep")
def test_criterion_10_brute_force_n11(monkeypatch):
    monkeypatch.setenv("DESARRANGE_CAP", "11")
    t0 = time.perf_counter()
    count = sum(
        1 for p in enumerate_class(11, "desarrangements")
        if patterns.avoids(p, {patterns.P213})
    )
    assert count == 13035
    _report(10, "brute-force |D_11(213)| confirms 13035", t0, 900)


@pytest.mark.slow
@pytest.mark.skipif(not RUN_N11, reason="set DESARRANGE_RUN_N11=1 to run the n=11 sweep")
def test_pixed_factorization_unique_through_n11(monkeypatch):
    monkeypatch.setenv("DESARRANGE_CAP", "11")
    t0 = time.perf_counter()
    for n in (10, 11):
        for p in enumerate_class(n, "all"):
            pixed_factorization(p)  # raises InvariantError on any double split
    _report(10, "pixed factorization unique through n = 11", t0, 900)
