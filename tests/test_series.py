import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from desarrange.series import (
    ConstantTermError, OrderMismatchError, Poly,
    SeriesMatrix, SingularMatrixError, TruncSeries, cosh_even, exp_series,
    hat_transform, poly_series, sinh_even_div,
)


def F(a, b=1):
    return Fraction(a, b)


def series(*coeffs, order=None):
    return TruncSeries(list(coeffs), order)


def test_mul_and_div_examples():
    one_plus = series(1, 1, order=3)
    one_minus = series(1, -1, order=3)
    assert (one_plus * one_minus).coeffs == (1, 0, -1, 0)
    geo = TruncSeries.one(4) / series(1, -1, order=4)
    assert geo.coeffs == (1, 1, 1, 1, 1)
    # shifted Jacobsthal generating function
    num = poly_series([1, -1, -1], 6)
    den = poly_series([1, -1, -2], 6)  # (1+x)(1-2x)
    assert [int(c) for c in (num / den).coeffs] == [1, 0, 1, 1, 3, 5, 11]


def test_order_mismatch_and_zero_division():
    with pytest.raises(OrderMismatchError):
        TruncSeries.one(3) + TruncSeries.one(4)
    with pytest.raises(ConstantTermError):
        TruncSeries.one(3) / poly_series([0, 1], 3)


def test_exp_series():
    assert exp_series(0, 5).coeffs == (1, 0, 0, 0, 0, 0)
    e = exp_series(1, 3)
    assert e.coeffs == (1, 1, F(1, 2), F(1, 6))
    derang = exp_series(-1, 4) / poly_series([1, -1], 4)
    assert [derang.egf_coeff(n) for n in range(5)] == [1, 0, 1, 2, 9]


def test_cosh_even():
    assert cosh_even(0, 4).coeffs == (1, 0, 0, 0, 0)
    # p = 4 is cosh(x)
    assert cosh_even(4, 2).coeffs == (1, 0, F(1, 2))
    # p = 1 is cosh(x/2): coefficient of x^(2k) is (1/2)^(2k)/(2k)!
    got = cosh_even(1, 4)
    for k in (0, 1, 2):
        assert got.coeffs[2 * k] == F(1, 2 ** (2 * k) * math.factorial(2 * k))


def test_sinh_even_div():
    assert sinh_even_div(0, 3).coeffs == (0, F(1, 2), 0, 0)
    # p = 4 is sinh(x)/2
    assert sinh_even_div(4, 3).coeffs == (0, F(1, 2), 0, F(1, 12))
    # p = 1 is sinh(x/2): coefficient of x^(2k+1) is (1/2)^(2k+1)/(2k+1)!
    got = sinh_even_div(1, 5)
    for k in (0, 1, 2):
        assert got.coeffs[2 * k + 1] == F(1, 2 ** (2 * k + 1) * math.factorial(2 * k + 1))


def _random_series(rng, order):
    return TruncSeries([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                        for _ in range(order + 1)], order)


def test_ring_axioms_randomized():
    rng = random.Random(20240811)
    for order in (0, 1, 5, 12):
        for _ in range(8):
            a, b, c = (_random_series(rng, order) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_div_mul_roundtrip():
    rng = random.Random(7)
    for _ in range(10):
        a = _random_series(rng, 8)
        b = _random_series(rng, 8)
        if b.coeffs[0] == 0:
            b = b + 1
        assert (a / b) * b == a


def test_sqrt():
    s = poly_series([1, -4], 10)
    r = s.sqrt()
    assert r * r == s
    with pytest.raises(ConstantTermError):
        poly_series([2, 1], 4).sqrt()


def test_shift_down():
    s = series(0, 1, 2, 3)
    assert s.shift_down().coeffs == (1, 2, 3)
    with pytest.raises(ValueError):
        series(1, 1).shift_down()


def test_hat_transform_examples():
    # x^3/(1-x^2) becomes the series of sinh x - x
    s = poly_series([0, 0, 0, 1], 7) / poly_series([1, 0, -1], 7)
    hatted = hat_transform(s)
    sinh_minus_x = [F(0), F(0), F(0)] + [
        F(1, math.factorial(k)) if k % 2 else F(0) for k in range(3, 8)]
    assert list(hatted.coeffs) == sinh_minus_x
    assert hat_transform(TruncSeries.one(4)) == TruncSeries.one(4)
    s = series(0, 1, 1, 0, 1)
    assert hat_transform(s).coeffs == (0, 1, F(1, 2), 0, F(1, 24))


def test_hat_linearity():
    rng = random.Random(3)
    a, b = _random_series(rng, 9), _random_series(rng, 9)
    assert hat_transform(a + b) == hat_transform(a) + hat_transform(b)
    assert hat_transform(a * 3) == hat_transform(a) * 3


def test_matrix_identity_and_roundtrip():
    one, zero = TruncSeries.one(5), TruncSeries.constant(0, 5)
    eye = SeriesMatrix([[one, zero, zero], [zero, one, zero], [zero, zero, one]])
    assert eye.inverse() == eye
    t = F(2)
    b = SeriesMatrix([
        [TruncSeries.one(6),
         poly_series([0, 0, t], 6) / poly_series([1, 0, -t * t], 6)],
        [TruncSeries.constant(0, 6),
         TruncSeries.one(6) + poly_series([0, 1], 6) / poly_series([1, -t], 6)],
    ])
    prod = b * b.inverse()
    one, zero = TruncSeries.one(6), TruncSeries.constant(0, 6)
    assert prod == SeriesMatrix([[one, zero], [zero, one]])


def test_matrix_singular():
    z = poly_series([0, 1], 4)
    with pytest.raises(SingularMatrixError):
        SeriesMatrix([[z, z], [z, z]]).inverse()


def test_figure_matrix_hat_invert():
    # 3x3 unit-weight desarrangement graph: entry (1,3) of (hat(B^-1))^-1
    # counts the non-decreasing desarrangements (brute-force derived:
    # all desarrangements minus the decreasing one on even lengths).
    order = 8
    one = TruncSeries.one(order)
    zero = TruncSeries.constant(0, order)
    x = poly_series([0, 1], order)
    b = SeriesMatrix([
        [one, x, zero],
        [x, one, poly_series([0, 0, 1], order) / poly_series([1, -1], order)],
        [zero, zero, one / poly_series([1, -1], order)],
    ])
    entry = hat_transform(b.inverse()).inverse().entry(1, 3)
    assert ([entry.egf_coeff(n) for n in range(order + 1)]
            == [0, 0, 0, 2, 8, 44, 264, 1854, 14832])


def test_poly_eval_and_render():
    p = Poly([0, 3, 5, 1])
    assert p(2) == 3 * 2 + 5 * 4 + 8
    assert repr(p) == "Poly(['0', '3', '5', '1'])"
    assert Poly([]).coeffs == () and Poly([])(7) == 0
    assert len(Poly([2, 0, -1]).coeffs) == 3
    assert Poly([1, 0]).coeffs == (1,)  # trailing zeros trimmed


def test_json_round_trips():
    assert [str(c) for c in Poly([1, F(1, 3)]).coeffs] == ["1", "1/3"]


# Reference implementations: the Fraction-by-Fraction series product and
# inverse that the integer kernels replaced.  The differential tests below hold the new code to them.

def reference_mul(a, b):
    if a.order != b.order:
        raise OrderMismatchError("orders differ")
    n = a.order
    out = [Fraction(0)] * (n + 1)
    for i, x in enumerate(a.coeffs):
        if x:
            for j in range(n + 1 - i):
                y = b.coeffs[j]
                if y:
                    out[i + j] += x * y
    return TruncSeries(out, n)


def reference_inverse(a):
    c = a.coeffs
    if c[0] == 0:
        raise ConstantTermError("zero constant term")
    n = a.order
    out = [Fraction(0)] * (n + 1)
    out[0] = 1 / c[0]
    for m in range(1, n + 1):
        out[m] = -sum(c[k] * out[m - k] for k in range(1, m + 1)) / c[0]
    return TruncSeries(out, n)


def outcome(fn, *args):
    """The value fn returns, or the type of the exception it raises."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


# Large pairwise coprime denominators (primes and a product of two).
_DENOMINATORS = (1, 2 ** 31 - 1, 10 ** 9 + 7, 998244353, (10 ** 9 + 9) * (2 ** 61 - 1))
rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-10 ** 6, 10 ** 6).map(Fraction),
    st.builds(Fraction, st.integers(-10 ** 15, 10 ** 15), st.sampled_from(_DENOMINATORS)),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
)


@st.composite
def series_pairs(draw):
    order = draw(st.integers(0, 12))
    other = order if draw(st.integers(0, 3)) else draw(st.integers(0, 12))
    a = TruncSeries(draw(st.lists(rationals, min_size=order + 1, max_size=order + 1)))
    b = TruncSeries(draw(st.lists(rationals, min_size=other + 1, max_size=other + 1)))
    return a, b


@settings(derandomize=True, max_examples=200, deadline=None)
@given(series_pairs())
def test_series_kernels_match_fraction_reference(pair):
    a, b = pair
    assert outcome(TruncSeries.__mul__, a, b) == outcome(reference_mul, a, b)
    assert outcome(TruncSeries.__rmul__, b, a) == outcome(reference_mul, b, a)
    for s in pair:
        assert outcome(TruncSeries.inverse, s) == outcome(reference_inverse, s)
    assert (outcome(TruncSeries.__truediv__, a, b)
            == outcome(lambda a, b: reference_mul(a, reference_inverse(b)), a, b))


# Reference constructions of the elementary series, one Fraction per term:
# the definitions the integer numerator builders must reproduce.

def reference_exp_series(c, order):
    c = Fraction(c)
    return TruncSeries([c ** k / math.factorial(k) for k in range(order + 1)], order)


def reference_cosh_even(p, order):
    p = Fraction(p)
    return TruncSeries([p ** (k // 2) / (4 ** (k // 2) * math.factorial(k)) if k % 2 == 0
                        else Fraction(0) for k in range(order + 1)], order)


def reference_sinh_even_div(p, order):
    p = Fraction(p)
    return TruncSeries([p ** (k // 2) / (2 ** k * math.factorial(k)) if k % 2
                        else Fraction(0) for k in range(order + 1)], order)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(rationals, st.integers(0, 12))
def test_elementary_series_match_fraction_definitions(value, order):
    for build, reference in ((exp_series, reference_exp_series),
                             (cosh_even, reference_cosh_even),
                             (sinh_even_div, reference_sinh_even_div)):
        got, want = build(value, order), reference(value, order)
        assert got == want and hash(got) == hash(want)
        assert got.coeffs == want.coeffs


@settings(derandomize=True, max_examples=100, deadline=None)
@given(series_pairs())
def test_equal_series_by_different_routes_are_equal_and_hash_equal(pair):
    a, b = pair
    routes = [(-(-a), a), (a * 1, a), (a - a, TruncSeries.constant(0, a.order)),
              (hat_transform(a), TruncSeries([c / math.factorial(k)
                                              for k, c in enumerate(a.coeffs)], a.order))]
    if a.order == b.order:
        routes.append(((a + b) - b, a))
        routes.append((a * b, reference_mul(a, b)))
        routes.append((a * b, TruncSeries(list((a * b).coeffs), a.order)))
        if b.coeffs[0]:
            routes.append(((a / b) * b, a))
    for got, want in routes:
        assert got == want and hash(got) == hash(want)
        assert got.coeffs == want.coeffs
        assert all(got.egf_coeff(n) == want.egf_coeff(n) for n in range(got.order + 1))
        # an integer EGF coefficient is recognised without a Fraction, and nothing else is
        for n in range(got.order + 1):
            value = got.egf_coeff(n)
            assert got.egf_coeff_is(n, value.numerator) == (value.denominator == 1)
            assert not got.egf_coeff_is(n, value.numerator + 1)
