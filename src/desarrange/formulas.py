"""
Closed-form generating functions, evaluated at sample points and checked
against counted rows.

Statistic variables are never handled symbolically: a formula is evaluated
at concrete rational points of t (and s), giving plain rational x-series.
The distribution rows themselves are counted by rankdp; a formula only has
to meet them.  mismatches evaluates it at the first n_max + 2 integers
t >= 2 off its poles, a joint formula at the one value s = 2^B with
2^(B-1) > n_max!, and compares each row's value there with n! [x^n] of the
series, in integers on the series' EGF numerators.

A distribution row has the shape perms.tally returns: a count map
{t-exponent: count}, or {(s-exponent, t-exponent): count} for a joint
formula, with ascending keys and no zero counts, so a row and its
brute-force counterpart compare by ==.

Every formula that the source material states with a square root
(sqrt(1-t), or the combined radicals in the double-ascent/descent and
joint peak formulas) is first rewritten to be even in that radical, so
only cosh_even / sinh_even_div / exp_series appear and all arithmetic
stays rational:

    des          (1-t)(1-2t-e^{-tx}+e^{(t-1)x}) / ((1-2t)(e^{(t-1)x}-t))
    pk           1 - 1/t + e^{-x}/(t*(C4 - 2*S4)),        p = 4(1-t)
    val          e^{-x} C4 / (C4 - 2*S4),                 p = 4(1-t)
    dasc         (e^{-x}((2-t)C - t(1-t)S) + (1-t)e^{(1-t)x/2})
                   / ((3-2t)(C - (1+t)S)),                p = (t+3)(t-1)
    ddes         (2t(1-t)C + 2(1-2t+t^3)S - e^{(1-3t)x/2})
                   / ((2t(1-t)-1)(C - (1+t)S)),           p = (t+3)(t-1)
    joint pk,des ((3-s-2t)C - (1-s+(3-s)t-2t^2)S - e^{(1-3t)x/2})
                   / ((2-s-2t)(C - (1+t)S)),              p = 1+2t(1-2s)+t^2

where C = cosh_even(p), S = sinh_even_div(p), and C4/S4 are the same at
p = 4(1-t).  Each rewrite just divides the stated numerator and
denominator by the radical; correctness is enforced wholesale by the
counted rows and the brute-force oracle.
"""
from __future__ import annotations

import functools
from fractions import Fraction
from math import factorial

from .series import (
    ConstantTermError, TruncSeries, cosh_even, exp_series, poly_series, sinh_even_div,
)


class PoleError(ValueError):
    """The chosen (t, s) specialization hits a pole; resample elsewhere."""


def _div(num: TruncSeries, den: TruncSeries) -> TruncSeries:
    try:
        return num / den
    except ConstantTermError as exc:
        raise PoleError(str(exc)) from exc


def _eulerian(t: Fraction, order: int) -> TruncSeries:
    return _div(TruncSeries.constant(1 - t, order), exp_series(t - 1, order) - t)


def _des(t: Fraction, order: int) -> TruncSeries:
    num = (exp_series(t - 1, order) - exp_series(-t, order) + (1 - 2 * t)) * (1 - t)
    den = (exp_series(t - 1, order) - t) * (1 - 2 * t)
    return _div(num, den)


def _pk_val_parts(t: Fraction, order: int):
    p = 4 * (1 - t)
    c = cosh_even(p, order)
    s2 = sinh_even_div(p, order) * 2  # sinh(x*sqrt(1-t)) / sqrt(1-t)
    return c, c - s2


def _pk(t: Fraction, order: int) -> TruncSeries:
    if t == 0:
        raise PoleError("pk formula has a 1/t factor")
    _, den = _pk_val_parts(t, order)
    return _div(exp_series(-1, order), den) / t + (1 - 1 / t)


def _val(t: Fraction, order: int) -> TruncSeries:
    c, den = _pk_val_parts(t, order)
    return _div(exp_series(-1, order) * c, den)


def peak_egf(t, order: int) -> TruncSeries:
    """EGF of t^pk over all permutations (equals the one for t^val)."""
    t = Fraction(t)
    c, den = _pk_val_parts(t, order)
    return _div(c, den)


def right_valley_egf(t, order: int) -> TruncSeries:
    """EGF of t^rval over all permutations."""
    t = Fraction(t)
    _, den = _pk_val_parts(t, order)
    return _div(TruncSeries.one(order), den)


def fix_egf(s, order: int) -> TruncSeries:
    """EGF of s^fix over all permutations: e^{(s-1)x}/(1-x)."""
    s = Fraction(s)
    return _div(exp_series(s - 1, order), poly_series([1, -1], order))


def _dasc(t: Fraction, order: int) -> TruncSeries:
    p = (t + 3) * (t - 1)
    c, s = cosh_even(p, order), sinh_even_div(p, order)
    num = (exp_series(-1, order) * (c * (2 - t) - s * (t * (1 - t)))
           + exp_series(Fraction(1 - t, 2), order) * (1 - t))
    den = (c - s * (1 + t)) * (3 - 2 * t)
    return _div(num, den)


def _ddes(t: Fraction, order: int) -> TruncSeries:
    p = (t + 3) * (t - 1)
    c, s = cosh_even(p, order), sinh_even_div(p, order)
    num = c * (2 * t * (1 - t)) + s * (2 * (1 - 2 * t + t ** 3)) \
        - exp_series(Fraction(1 - 3 * t, 2), order)
    den = (c - s * (1 + t)) * (2 * t * (1 - t) - 1)
    return _div(num, den)


def _joint_pk_des(s: Fraction, t: Fraction, order: int) -> TruncSeries:
    p = 1 + 2 * t * (1 - 2 * s) + t * t
    c, sh = cosh_even(p, order), sinh_even_div(p, order)
    num = c * (3 - s - 2 * t) - sh * (1 - s + (3 - s) * t - 2 * t * t) \
        - exp_series(Fraction(1 - 3 * t, 2), order)
    den = (c - sh * (1 + t)) * (2 - s - 2 * t)
    return _div(num, den)


def _joint_pix_des(s: Fraction, t: Fraction, order: int) -> TruncSeries:
    inner = exp_series(s + t - 1, order) * ((1 - s) * (s - t)) - t * (1 - 2 * t)
    num = (exp_series(s - t, order) * ((1 - s) * (1 - s - t) * t)
           + inner * (1 - t)) * (1 - t)
    den = (exp_series(t - 1, order) - t) * ((1 - 2 * t) * (1 - s - t) * (s - t))
    return _div(num, den)


# tag -> (number of statistic variables, builder); a builder takes the
# variables it needs, s before t, then the order.  The rows a formula meets,
# with their class, are named in rankdp.TABLES.
FORMULAS = {
    "eulerian": (1, _eulerian),
    "derangement_egf": (0, functools.partial(fix_egf, 0)),
    "fix": (1, fix_egf),
    "des": (1, _des),
    "pk": (1, _pk),
    "val": (1, _val),
    "dasc": (1, _dasc),
    "ddes": (1, _ddes),
    "joint_pk_des": (2, _joint_pk_des),
    "joint_pix_des": (2, _joint_pix_des),
}


def evaluate_formula(tag: str, t=None, s=None, order: int = 8) -> TruncSeries:
    """The named generating function as an x-series to the given order.

    Statistic variables are concrete rationals; a specialization sitting on
    a pole of the formula raises PoleError so callers can pick a new point.
    """
    if tag not in FORMULAS:
        raise ValueError(f"unknown formula {tag!r}")
    arity, build = FORMULAS[tag]
    if arity >= 1 and t is None:
        raise ValueError(f"{tag} needs a t value")
    if arity == 2 and s is None:
        raise ValueError(f"{tag} needs an s value")
    variables = (s, t)[2 - arity:]
    return build(*(Fraction(v) for v in variables), order)


def good_t_points(tag: str, count: int, order: int, s=None):
    """First `count` integer t >= 2 where the formula evaluates, with series."""
    out = []
    t = 2
    while len(out) < count:
        if t > 2 + 20 * count:
            raise PoleError(f"could not find {count} good points for {tag}")
        try:
            out.append((Fraction(t), evaluate_formula(tag, t=t, s=s, order=order)))
        except PoleError:
            pass
        t += 1
    return out


def mismatches(tag: str, rows: dict, var: str = "t"):
    """Yield (n, note), n ascending, for each row n that the named formula
    misses at one of its sample points: the first n_max + 2 integers t >= 2
    off its poles, n_max being the last row, and for a joint formula
    s = 2^B with 2^(B-1) > n_max!.  There the row's value must be n! [x^n]
    of the series, compared in integers.  var names t in the notes.
    """
    n_max = max(rows)
    bits = factorial(n_max).bit_length() + 1
    s = 2 ** bits if FORMULAS[tag][0] == 2 else None
    s_pow = [s ** i for i in range(n_max + 1)] if s else None
    points = [([t.numerator ** j for j in range(n_max + 1)], ser,
               f"{var}={t}" if s is None else f"s=2^{bits}, t={t}")
              for t, ser in good_t_points(tag, n_max + 2, n_max, s=s)]
    for n, row in rows.items():
        for t_pow, ser, where in points:
            got = (sum(c * t_pow[j] for j, c in row.items()) if s is None
                   else sum(c * s_pow[i] * t_pow[j] for (i, j), c in row.items()))
            if not ser.egf_coeff_is(n, got):
                yield n, f"DP {got} vs formula {ser.egf_coeff(n)} at {where}"
                break


def rval_rows(pk_rows: dict) -> dict:
    """Right-valley rows from the pk rows: t * pk-row for n >= 1.

    Every nonempty desarrangement has exactly one more right valley than
    peaks, and the empty permutation has none.
    """
    return {n: {k + 1: c for k, c in row.items()} if n else {0: 1}
            for n, row in pk_rows.items()}
