from fractions import Fraction

import pytest

from desarrange import oracle, rankdp
from desarrange.formulas import (
    PoleError, evaluate_formula, fix_egf, good_t_points, mismatches, peak_egf,
    right_valley_egf, rval_rows,
)
from desarrange.series import exp_series
from desarrange.verify import _substitute

from reference_tables import DERANGEMENT_NUMBERS, STAT_TABLES, counts


def test_evaluate_formula_examples():
    assert evaluate_formula("des", t=2, order=4).egf_coeff(4) == 3 * 2 + 5 * 4 + 8
    got = evaluate_formula("derangement_egf", order=5)
    assert [got.egf_coeff(n) for n in range(6)] == DERANGEMENT_NUMBERS[:6]
    with pytest.raises(ValueError):
        evaluate_formula("no_such_formula", order=3)
    with pytest.raises(ValueError):
        evaluate_formula("des", order=3)  # missing t


def test_poles():
    # t = 1 is a removable singularity of the written formulas: the series
    # build signals it as a pole, and the sample points step around it
    with pytest.raises(PoleError):
        evaluate_formula("eulerian", t=1, order=3)
    with pytest.raises(PoleError):
        evaluate_formula("des", t=Fraction(1, 2), order=3)
    with pytest.raises(PoleError):
        evaluate_formula("pk", t=0, order=3)
    with pytest.raises(PoleError):
        evaluate_formula("joint_pix_des", t=2, s=2, order=3)
    eul = rankdp.rows("eulerian", 3)
    assert [sum(eul[n].values()) for n in range(4)] == [1, 1, 2, 6]
    assert list(mismatches("eulerian", eul)) == []


def test_good_t_points_skip_poles():
    pts = good_t_points("joint_pix_des", 4, order=3, s=Fraction(3))
    ts = [t for t, _ in pts]
    assert Fraction(3) not in ts and len(ts) == 4


def test_statistic_tables_match_reference():
    for tag, table in STAT_TABLES.items():
        rows = rankdp.rows(tag, 9)
        for n, coeffs in table.items():
            assert rows[n] == counts(coeffs), (tag, n)
        assert list(mismatches(tag, rows)) == [], tag


def test_eulerian_rows():
    import math
    rows = rankdp.rows("eulerian", 5)
    assert rows[4] == {0: 1, 1: 11, 2: 11, 3: 1}
    for n in range(6):
        assert sum(rows[n].values()) == math.factorial(n)


def test_rval_rows():
    rows = rval_rows(rankdp.rows("pk", 6))
    assert rows[0] == {0: 1}
    joint = oracle.distribution(5, ["rval"], "desarrangements")
    assert joint == rows[5]


def test_joint_tables_small_rows():
    pkdes = rankdp.rows("joint_pk_des", 4)
    assert pkdes[2] == {(0, 1): 1}       # the single desarrangement 21
    assert pkdes[4] == {(0, 1): 3, (1, 2): 5, (0, 3): 1}
    assert list(pkdes[4]) == [(0, 1), (0, 3), (1, 2)]  # keys ascending
    pixdes = rankdp.rows("joint_pix_des", 3)
    # S_2: 12 has pix 2, 21 has pix 0 and one descent
    assert pixdes[2] == {(2, 0): 1, (0, 1): 1}


def test_joint_pk_des_against_oracle():
    rows = rankdp.rows("joint_pk_des", 6)
    for n in range(7):
        brute = oracle.distribution(n, ["pk", "des"], "desarrangements")
        assert rows[n] == brute
    assert list(mismatches("joint_pk_des", rows)) == []


def test_bivar_substitutions():
    row = {(0, 1): 3, (1, 2): 5, (1, 3): 1}
    assert _substitute(row, "s", 1) == {1: 3, 2: 5, 3: 1}
    assert _substitute(row, "s", 0) == {1: 3}  # zero counts dropped
    assert _substitute(row, "t", 1) == {0: 3, 1: 6}
    assert sum(_substitute(row, "t", 1).values()) == 9
    assert list(_substitute({(1, 0): 2, (0, 1): 3}, "t", 1)) == [0, 1]  # keys ascending


def test_pd_identity_series():
    for t in (2, 3):
        val = evaluate_formula("val", t=t, order=8)
        assert exp_series(1, 8) * val == peak_egf(t, 8)


def test_rval_egf_against_oracle():
    for t in (2, 3):
        ser = right_valley_egf(t, 6)
        for n in range(7):
            brute = oracle.distribution(n, ["rval"], "all")
            want = sum(Fraction(t) ** k * v for k, v in brute.items())
            assert ser.egf_coeff(n) == want


def test_fix_egf_against_oracle():
    for s in (2, 5):
        ser = fix_egf(s, 6)
        for n in range(7):
            brute = oracle.distribution(n, ["fix"], "all")
            want = sum(Fraction(s) ** k * v for k, v in brute.items())
            assert ser.egf_coeff(n) == want


def test_arity_zero_rejects_distribution():
    # a plain series has no table to count
    with pytest.raises(KeyError):
        rankdp.rows("derangement_egf", 3)


def test_row_sums():
    import math
    from reference_tables import DERANGEMENT_NUMBERS as D
    for tag, (klass, _, _) in rankdp.TABLES.items():
        rows = rankdp.rows(tag, 7)
        for n in range(8):
            want = D[n] if klass == "desarrangements" else math.factorial(n)
            row = rows[n]
            assert sum(row.values()) == want, (tag, n)
            # a row has the shape perms.tally returns
            assert list(row) == sorted(row) and all(type(c) is int and c > 0
                                                    for c in row.values()), (tag, n)


def test_rows_to_n30():
    from reference_tables import derangement_numbers
    d = derangement_numbers(60)
    tables = {tag: rankdp.rows(tag, 60)
              for tag in ("des", "pk", "val", "dasc", "ddes")}
    for tag, rows in tables.items():
        assert [sum(rows[n].values()) for n in range(61)] == d, tag
    # Eulerian numbers A(n, k) = (k+1) A(n-1, k) + (n-k) A(n-1, k-1)
    eul = rankdp.rows("eulerian", 60)
    a = [1]  # A(0, 0)
    for n in range(61):
        assert eul[n] == counts(a), n
        a = [(k + 1) * (a[k] if k < len(a) else 0) + (n + 1 - k) * (a[k - 1] if k else 0)
             for k in range(n + 1)]
    pkdes = rankdp.rows("joint_pk_des", 30)
    pixdes = rankdp.rows("joint_pix_des", 30)
    for n in range(31):
        assert _substitute(pkdes[n], "s", 1) == tables["des"][n], n
        assert _substitute(pixdes[n], "s", 0) == tables["des"][n], n
        assert _substitute(pixdes[n], "s", 1) == eul[n], n
    # every formula meets its rows: the one-variable ones to n = 60, the
    # joint ones (at s = 2^B) to n = 30
    for tag, rows in (*tables.items(), ("eulerian", eul), ("joint_pk_des", pkdes),
                      ("joint_pix_des", pixdes)):
        assert list(mismatches(tag, rows)) == [], tag
