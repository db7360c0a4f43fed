"""
Truncated power series and polynomials over exact rationals.

A TruncSeries of order N stores the coefficients of x^0 .. x^N as
fractions.Fraction values; every ring operation truncates back to order N.
Arithmetic is only defined between series of equal order.  SeriesMatrix
wraps a square grid of equal-order series and supports inversion by
Gaussian elimination, which only needs the constant-term matrix to be
invertible over the rationals.
"""
from __future__ import annotations

import math
from fractions import Fraction

Rat = Fraction


class OrderMismatchError(ValueError):
    """Arithmetic between series of different truncation orders."""


class ConstantTermError(ZeroDivisionError):
    """Division (or square root) needs an invertible constant term."""


class SingularMatrixError(ValueError):
    """The constant-term matrix is not invertible over the rationals."""


class InterpolationError(ValueError):
    """Interpolation input is malformed or inconsistent with the degree bound."""


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected an exact rational, got {type(v).__name__}")


class TruncSeries:
    """Power series in x truncated at a fixed order, with rational coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order: int | None = None):
        coeffs = [_as_fraction(c) for c in coeffs]
        if order is None:
            if not coeffs:
                raise ValueError("need at least the constant coefficient")
            order = len(coeffs) - 1
        if len(coeffs) > order + 1:
            raise ValueError(f"{len(coeffs)} coefficients exceed order {order}")
        coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
        self.order = order
        self.coeffs = tuple(coeffs)

    @classmethod
    def constant(cls, c, order: int) -> "TruncSeries":
        return cls([_as_fraction(c)], order)

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls.constant(1, order)

    @classmethod
    def x(cls, order: int) -> "TruncSeries":
        return cls([0, 1], order)

    def coeff(self, n: int) -> Fraction:
        return self.coeffs[n]

    def egf_coeff(self, n: int) -> Fraction:
        """n! times the coefficient of x^n."""
        return self.coeffs[n] * math.factorial(n)

    def egf_coeffs(self) -> list[Fraction]:
        return [self.egf_coeff(n) for n in range(self.order + 1)]

    def _check_order(self, other: "TruncSeries"):
        if self.order != other.order:
            raise OrderMismatchError(f"orders {self.order} and {other.order} differ")

    def __add__(self, other):
        if isinstance(other, TruncSeries):
            self._check_order(other)
            return TruncSeries([a + b for a, b in zip(self.coeffs, other.coeffs)], self.order)
        c = list(self.coeffs)
        c[0] += _as_fraction(other)
        return TruncSeries(c, self.order)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries([-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        return self + (-other if isinstance(other, TruncSeries) else -_as_fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def _scaled(self) -> tuple[list[int], int]:
        """Integer numerators over one common denominator: coeffs == nums / den."""
        den = math.lcm(*(c.denominator for c in self.coeffs))
        return [c.numerator * (den // c.denominator) for c in self.coeffs], den

    @classmethod
    def _from_fractions(cls, coeffs: list[Fraction], order: int) -> "TruncSeries":
        """Wrap order + 1 Fractions without the constructor's checks."""
        out = cls.__new__(cls)
        out.order = order
        out.coeffs = tuple(coeffs)
        return out

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            f = _as_fraction(other)
            return TruncSeries([c * f for c in self.coeffs], self.order)
        self._check_order(other)
        n = self.order
        a, da = self._scaled()
        b, db = other._scaled()
        out = [0] * (n + 1)
        for i, ai in enumerate(a):
            if ai:
                for j in range(n + 1 - i):
                    out[i + j] += ai * b[j]
        den = da * db
        return TruncSeries._from_fractions([Fraction(v, den) for v in out], n)

    __rmul__ = __mul__

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse in the truncated ring.

        With self = A/D on integers, 1/A has coefficients c_m / A_0^(m+1)
        where c_0 = 1 and c_m = -sum_{k=1..m} A_k c_{m-k} A_0^(k-1), so the
        recurrence never leaves the integers.
        """
        if self.coeffs[0] == 0:
            raise ConstantTermError("series has zero constant term")
        n = self.order
        a, d = self._scaled()
        a0_pow = [1] * (n + 2)  # a0_pow[k] = A_0^k
        for k in range(1, n + 2):
            a0_pow[k] = a0_pow[k - 1] * a[0]
        c = [1] + [0] * n
        for m in range(1, n + 1):
            c[m] = -sum(a[k] * c[m - k] * a0_pow[k - 1] for k in range(1, m + 1) if a[k])
        return TruncSeries._from_fractions(
            [Fraction(cm * d, a0_pow[m + 1]) for m, cm in enumerate(c)], n)

    def __truediv__(self, other):
        if isinstance(other, TruncSeries):
            return self * other.inverse()
        return self * (1 / _as_fraction(other))

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
        if self.coeffs[0] != 0:
            raise ValueError("cannot divide by x: nonzero constant term")
        if self.order == 0:
            raise ValueError("order too small to shift")
        return TruncSeries(list(self.coeffs[1:]), self.order - 1)

    def __eq__(self, other):
        return (isinstance(other, TruncSeries)
                and self.order == other.order and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return f"TruncSeries({[str(c) for c in self.coeffs]})"

    def to_json(self) -> list[str]:
        return [format_rational(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, arr) -> "TruncSeries":
        return cls([parse_rational(s) for s in arr])


def format_rational(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def parse_rational(s: str) -> Fraction:
    return Fraction(s)


def poly_series(coeffs, order: int) -> TruncSeries:
    """Embed a polynomial (low-degree coefficients first) as a series."""
    return TruncSeries([_as_fraction(c) for c in coeffs[: order + 1]], order)


def exp_series(c, order: int) -> TruncSeries:
    """exp(c*x) = sum_k c^k x^k / k!."""
    c = _as_fraction(c)
    out = []
    term = Fraction(1)
    for k in range(order + 1):
        out.append(term)
        term = term * c / (k + 1)
    return TruncSeries(out, order)

def cosh_even(p, order: int) -> TruncSeries:
    """sum_k p^k (x/2)^{2k} / (2k)!, i.e. cosh(a*x/2) written in p = a^2."""
    p = _as_fraction(p)
    out = [Fraction(0)] * (order + 1)
    k = 0
    while 2 * k <= order:
        out[2 * k] = p ** k / (Fraction(4) ** k * math.factorial(2 * k))
        k += 1
    return TruncSeries(out, order)


def sinh_even_div(p, order: int) -> TruncSeries:
    """sum_k p^k (x/2)^{2k+1} / (2k+1)!, i.e. sinh(a*x/2)/a written in p = a^2."""
    p = _as_fraction(p)
    out = [Fraction(0)] * (order + 1)
    k = 0
    while 2 * k + 1 <= order:
        out[2 * k + 1] = p ** k / (Fraction(2) ** (2 * k + 1) * math.factorial(2 * k + 1))
        k += 1
    return TruncSeries(out, order)


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

    @classmethod
    def identity(cls, dim: int, order: int) -> "SeriesMatrix":
        return cls([[TruncSeries.constant(1 if i == j else 0, order)
                     for j in range(dim)] for i in range(dim)])

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
            piv = next((r for r in range(col, m) if a[r][col].coeffs[0] != 0), None)
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
                    if any(c != 0 for c in f.coeffs):
                        a[r] = [e - f * g for e, g in zip(a[r], a[col])]
                        b[r] = [e - f * g for e, g in zip(b[r], b[col])]
        return SeriesMatrix(b)

    def __eq__(self, other):
        return isinstance(other, SeriesMatrix) and self.entries == other.entries

    def __repr__(self):
        return f"SeriesMatrix(dim={self.dim}, order={self.order})"


def hat_transform(obj):
    """Map x^n -> x^n/n! coefficientwise (entrywise on matrices)."""
    if isinstance(obj, SeriesMatrix):
        return SeriesMatrix([[hat_transform(e) for e in row] for row in obj.entries])
    return TruncSeries([c / math.factorial(n) for n, c in enumerate(obj.coeffs)],
                       obj.order)


class Poly:
    """Polynomial with rational coefficients, constant term first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [_as_fraction(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial reports -1."""
        return len(self.coeffs) - 1

    def __call__(self, x) -> Fraction:
        x = _as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if k < len(self.coeffs) else Fraction(0)

    def int_coeffs(self) -> list[int]:
        """Coefficients as integers, padded with the constant term first."""
        out = []
        for c in self.coeffs:
            if c.denominator != 1:
                raise ValueError(f"non-integer coefficient {c}")
            out.append(c.numerator)
        return out

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({[str(c) for c in self.coeffs]})"

    def to_text(self, var: str = "t") -> str:
        """Render like 3t+5t^2+t^3 (ascending powers, unit coefficients dropped)."""
        if not self.coeffs:
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            cs = format_rational(c)
            if k == 0:
                terms.append(cs)
            else:
                power = var if k == 1 else f"{var}^{k}"
                terms.append(power if c == 1 else f"{cs}{power}")
        return "+".join(terms) if terms else "0"

    def to_json(self) -> list[str]:
        return [format_rational(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, arr) -> "Poly":
        return cls([parse_rational(s) for s in arr])


def interpolate(points, degree_bound: int) -> Poly:
    """The unique polynomial of degree <= degree_bound through the points.

    Takes (x, y) pairs with exact rational entries.  Needs at least
    degree_bound+1 points with distinct abscissae; any extra points must be
    consistent with the interpolant, otherwise InterpolationError is raised.
    """
    pts = [(_as_fraction(x), _as_fraction(y)) for x, y in points]
    xs = [x for x, _ in pts]
    if len(set(xs)) != len(xs):
        raise InterpolationError("duplicate abscissae")
    if len(pts) < degree_bound + 1:
        raise InterpolationError(
            f"need {degree_bound + 1} points for degree {degree_bound}, got {len(pts)}")
    base = max(degree_bound + 1, 0)  # a negative bound leaves only the zero polynomial
    # Newton divided differences: dd[i] becomes f[x_0, ..., x_i]
    xs = xs[:base]
    dd = [y for _, y in pts[:base]]
    for k in range(1, len(dd)):
        for i in range(len(dd) - 1, k - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - k])
    # nested multiplication: c <- c * (x - x_k) + dd[k], from the top down
    coeffs = dd[-1:]
    for k in range(len(dd) - 2, -1, -1):
        coeffs.insert(0, dd[k] - xs[k] * coeffs[0])
        for i in range(1, len(coeffs) - 1):
            coeffs[i] -= xs[k] * coeffs[i + 1]
    result = Poly(coeffs)
    for x, y in pts[base:]:
        if result(x) != y:
            raise InterpolationError(
                f"point ({x}, {y}) inconsistent with degree-{degree_bound} interpolant")
    return result
