"""
Truncated power series and polynomials over exact rationals.

A TruncSeries of order N stands for the coefficients c_0 .. c_N of x^0 ..
x^N.  It stores them in the EGF scaling, as the integers k! * c_k over one
positive common denominator reduced by their gcd, so the series of
exp(c*x) at an integer c is just the powers c^k over 1.  Every ring
operation works on these integers and truncates back to order N: a sum
over the lcm of the denominators, a product as a binomial convolution, a
quotient by an all-integer recurrence (an inverse is the quotient of
one).  The rational coefficients are derived on each read, and
egf_coeff_is tests an EGF coefficient against an integer without them.
Arithmetic is only defined between series of equal order.  SeriesMatrix
wraps a square grid of equal-order series and supports inversion by
Gaussian elimination, which only needs the constant-term matrix to be
invertible over the rationals.

CORRECTIONS names the series a run-theorem worked example adds to its
entry; runthm --correction and verify both read it here.
"""
from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction


class OrderMismatchError(ValueError):
    """Arithmetic between series of different truncation orders."""


class ConstantTermError(ZeroDivisionError):
    """Division (or square root) needs an invertible constant term."""


class SingularMatrixError(ValueError):
    """The constant-term matrix is not invertible over the rationals."""


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected an exact rational, got {type(v).__name__}")


@functools.lru_cache(maxsize=None)
def _binomials(order: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..order of Pascal's triangle, built on first use per order."""
    rows = [(1,)]
    for m in range(1, order + 1):
        prev = rows[-1]
        rows.append((1,) + tuple(map(operator.add, prev, prev[1:])) + (1,))
    return tuple(rows)


def _over_lcm(values) -> tuple[list[int], int]:
    """Integer numerators over the lcm of the denominators: values == nums / den."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


class TruncSeries:
    """Power series in x truncated at a fixed order, with rational coefficients.

    Stored in the EGF scaling: the coefficient c_k of x^k is
    _num[k] / (k! * _den), with integer numerators over one positive
    denominator that shares no factor with all of them.  The form is
    canonical, so equal series have equal numerators and denominators.
    """

    __slots__ = ("order", "_num", "_den")

    def __init__(self, coeffs, order: int | None = None):
        coeffs = [_as_fraction(c) for c in coeffs]
        if order is None:
            if not coeffs:
                raise ValueError("need at least the constant coefficient")
            order = len(coeffs) - 1
        if len(coeffs) > order + 1:
            raise ValueError(f"{len(coeffs)} coefficients exceed order {order}")
        scaled, fact = [], 1
        for k, c in enumerate(coeffs):
            fact *= k or 1
            scaled.append(c * fact)
        num, den = _over_lcm(scaled)  # already canonical
        self.order = order
        self._num = tuple(num) + (0,) * (order + 1 - len(num))
        self._den = den

    @classmethod
    def _make(cls, num, den: int, order: int) -> "TruncSeries":
        """The series with EGF numerators num over den, put in canonical form."""
        g = math.gcd(den, *num)
        if den < 0:
            g = -g
        out = cls.__new__(cls)
        out.order = order
        out._num = tuple(num) if g == 1 else tuple(v // g for v in num)
        out._den = den // g
        return out

    @classmethod
    def constant(cls, c, order: int) -> "TruncSeries":
        return cls([_as_fraction(c)], order)

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls.constant(1, order)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients of x^0 .. x^order, derived on each read."""
        out, fact = [], 1
        for k, v in enumerate(self._num):
            fact *= k or 1
            out.append(Fraction(v, fact * self._den))
        return tuple(out)

    def egf_coeff(self, n: int) -> Fraction:
        """n! times the coefficient of x^n."""
        return Fraction(self._num[n], self._den)

    def egf_coeff_is(self, n: int, value: int) -> bool:
        """Whether n! times the coefficient of x^n is the integer value,
        tested in integers."""
        return value * self._den == self._num[n]

    def _check_order(self, other: "TruncSeries"):
        if self.order != other.order:
            raise OrderMismatchError(f"orders {self.order} and {other.order} differ")

    def __add__(self, other):
        a, da = self._num, self._den
        if isinstance(other, TruncSeries):
            self._check_order(other)
            b, db = other._num, other._den
            den = math.lcm(da, db)
            fa, fb = den // da, den // db
            return TruncSeries._make([x * fa + y * fb for x, y in zip(a, b)], den, self.order)
        c = _as_fraction(other)
        den = math.lcm(da, c.denominator)
        fa = den // da
        num = [x * fa for x in a]
        num[0] += c.numerator * (den // c.denominator)
        return TruncSeries._make(num, den, self.order)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries._make([-v for v in self._num], self._den, self.order)

    def __sub__(self, other):
        return self + (-other if isinstance(other, TruncSeries) else -_as_fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """A product of series is the binomial convolution of the numerators:
        E_m = sum_k C(m, k) F_k G_(m-k)."""
        if not isinstance(other, TruncSeries):
            f = _as_fraction(other)
            return TruncSeries._make([v * f.numerator for v in self._num],
                                     self._den * f.denominator, self.order)
        self._check_order(other)
        n = self.order
        binom = _binomials(n)
        a, b = self._num, other._num
        b_terms = [(j, v) for j, v in enumerate(b) if v]
        out = [0] * (n + 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in b_terms:
                    if i + j > n:
                        break
                    out[i + j] += binom[i + j][i] * ai * bj
        return TruncSeries._make(out, self._den * other._den, n)

    __rmul__ = __mul__

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse in the truncated ring: 1 / self."""
        return TruncSeries.one(self.order) / self

    def __truediv__(self, other):
        """Quotient by one all-integer recurrence.

        With self = N/Dn and other = A/Da in the EGF scaling, N/A has
        numerators r_m / A_0^(m+1), where
        r_m = N_m A_0^m - sum_{k=1..m} C(m, k) A_k r_{m-k} A_0^(k-1).
        """
        if not isinstance(other, TruncSeries):
            return self * (1 / _as_fraction(other))
        a, d = other._num, other._den
        if a[0] == 0:
            raise ConstantTermError("series has zero constant term")
        self._check_order(other)
        n = self.order
        binom = _binomials(n)
        a0_pow = [1] * (n + 2)  # a0_pow[k] = A_0^k
        for k in range(1, n + 2):
            a0_pow[k] = a0_pow[k - 1] * a[0]
        terms = [(k, a[k] * a0_pow[k - 1]) for k in range(1, n + 1) if a[k]]
        r = [0] * (n + 1)
        for m, nm in enumerate(self._num):
            row = binom[m]
            acc = nm * a0_pow[m]
            for k, w in terms:
                if k > m:
                    break
                acc -= row[k] * w * r[m - k]
            r[m] = acc
        # self/other = (Da/Dn) N/A: numerator m is Da r_m A_0^(n-m) over Dn A_0^(n+1)
        return TruncSeries._make([d * rm * a0_pow[n - m] for m, rm in enumerate(r)],
                                 self._den * a0_pow[n + 1], n)

    def __rtruediv__(self, other):
        return self.inverse() * _as_fraction(other)

    def sqrt(self) -> "TruncSeries":
        """Square root of a series with constant term 1."""
        a = self.coeffs
        if a[0] != 1:
            raise ConstantTermError("sqrt implemented for constant term 1 only")
        n = self.order
        out = [Fraction(0)] * (n + 1)
        out[0] = Fraction(1)
        for m in range(1, n + 1):
            s = sum(out[k] * out[m - k] for k in range(1, m))
            out[m] = (a[m] - s) / 2
        return TruncSeries(out, n)

    def shift_down(self) -> "TruncSeries":
        """Divide by x (constant term must vanish); drops the order by one."""
        if self._num[0] != 0:
            raise ValueError("cannot divide by x: nonzero constant term")
        if self.order == 0:
            raise ValueError("order too small to shift")
        return TruncSeries(list(self.coeffs[1:]), self.order - 1)

    def __eq__(self, other):
        return (isinstance(other, TruncSeries) and self.order == other.order
                and self._den == other._den and self._num == other._num)

    def __hash__(self):
        return hash((self.order, self._num, self._den))

    def __repr__(self):
        return f"TruncSeries({[str(c) for c in self.coeffs]})"


def poly_series(coeffs, order: int) -> TruncSeries:
    """Embed a polynomial (low-degree coefficients first) as a series."""
    return TruncSeries([_as_fraction(c) for c in coeffs[: order + 1]], order)


def _powers(r, order: int, start: int = 0, step: int = 1, scale: int = 1) -> TruncSeries:
    """Numerators a^k b^(K-k) at x^(start+step*k), k = 0..K, over scale * b^K,
    with r = a/b and K the largest k with start + step*k <= order."""
    r = _as_fraction(r)
    a, b = r.numerator, r.denominator
    count = len(range(start, order + 1, step))
    a_pow, b_pow = [1] * count, [1] * count
    for k in range(1, count):
        a_pow[k] = a_pow[k - 1] * a
        b_pow[k] = b_pow[k - 1] * b
    num = [0] * (order + 1)
    num[start::step] = [x * y for x, y in zip(a_pow, reversed(b_pow))]
    return TruncSeries._make(num, scale * (b_pow[-1] if count else 1), order)


def exp_series(c, order: int) -> TruncSeries:
    """exp(c*x) = sum_k c^k x^k / k!."""
    return _powers(c, order)


def cosh_even(p, order: int) -> TruncSeries:
    """sum_k p^k (x/2)^{2k} / (2k)!, i.e. cosh(a*x/2) written in p = a^2."""
    return _powers(_as_fraction(p) / 4, order, 0, 2)


def sinh_even_div(p, order: int) -> TruncSeries:
    """sum_k p^k (x/2)^{2k+1} / (2k+1)!, i.e. sinh(a*x/2)/a written in p = a^2."""
    return _powers(_as_fraction(p) / 4, order, 1, 2, 2)


# The named series added to a run-theorem entry, by order.  cosh x completes
# fig1's entry (1,3) to the derangement numbers, and one completes fig2's
# entry (1,2) to the descent series over desarrangements.
CORRECTIONS = {
    "cosh": lambda order: cosh_even(4, order),
    "one": TruncSeries.one,
    "none": lambda order: TruncSeries.constant(0, order),
}


class SeriesMatrix:
    """Square matrix of equal-order truncated series."""

    __slots__ = ("dim", "order", "entries")

    def __init__(self, entries):
        entries = tuple(tuple(row) for row in entries)
        dim = len(entries)
        if any(len(row) != dim for row in entries):
            raise ValueError("matrix must be square")
        orders = {e.order for row in entries for e in row}
        if len(orders) != 1:
            raise ValueError("all entries must share one truncation order")
        self.dim = dim
        self.order = orders.pop()
        self.entries = entries

    def entry(self, i: int, j: int) -> TruncSeries:
        """1-based entry access."""
        return self.entries[i - 1][j - 1]

    def __mul__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        if self.dim != other.dim or self.order != other.order:
            raise ValueError("matrix shape/order mismatch")
        m = self.dim
        rows = []
        for i in range(m):
            row = []
            for j in range(m):
                acc = TruncSeries.constant(0, self.order)
                for k in range(m):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            rows.append(row)
        return SeriesMatrix(rows)

    def inverse(self) -> "SeriesMatrix":
        """Gauss-Jordan inverse; pivots need a nonzero constant term."""
        m, order = self.dim, self.order
        a = [[e for e in row] for row in self.entries]
        b = [[TruncSeries.constant(1 if i == j else 0, order) for j in range(m)]
             for i in range(m)]
        for col in range(m):
            piv = next((r for r in range(col, m) if a[r][col]._num[0]), None)
            if piv is None:
                raise SingularMatrixError("constant-term matrix is singular")
            a[col], a[piv] = a[piv], a[col]
            b[col], b[piv] = b[piv], b[col]
            inv_piv = a[col][col].inverse()
            a[col] = [e * inv_piv for e in a[col]]
            b[col] = [e * inv_piv for e in b[col]]
            for r in range(m):
                if r != col:
                    f = a[r][col]
                    if any(f._num):
                        a[r] = [e - f * g for e, g in zip(a[r], a[col])]
                        b[r] = [e - f * g for e, g in zip(b[r], b[col])]
        return SeriesMatrix(b)

    def __eq__(self, other):
        return isinstance(other, SeriesMatrix) and self.entries == other.entries

    def __repr__(self):
        return f"SeriesMatrix(dim={self.dim}, order={self.order})"


def hat_transform(obj):
    """Map x^n -> x^n/n! coefficientwise (entrywise on matrices).

    The coefficients of the series become the EGF numerators of its image.
    """
    if isinstance(obj, SeriesMatrix):
        return SeriesMatrix([[hat_transform(e) for e in row] for row in obj.entries])
    n = obj.order
    ratio = [1] * (n + 1)  # ratio[k] = n!/k!
    for k in range(n - 1, -1, -1):
        ratio[k] = ratio[k + 1] * (k + 1)
    return TruncSeries._make(list(map(operator.mul, obj._num, ratio)), obj._den * ratio[0], n)


class Poly:
    """Polynomial with rational coefficients, constant term first.  No
    command builds one; perfbench/tracer.py reads Poly.__call__ off the
    class."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [_as_fraction(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    def __call__(self, x) -> Fraction:
        x = _as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({[str(c) for c in self.coeffs]})"
