"""Exact truncated power series over the rationals.

Every coefficient is a ``fractions.Fraction``; no value ever passes through
floating point.  A series is made from its full coefficient list, and its
truncation order N (the largest tracked exponent) is one less than the list's
length; each operation states the order of its result.  Products and
quotients of two series sum integer numerators over a common denominator and
build one ``Fraction`` per coefficient.  Binary operations insist on equal
orders, so order bookkeeping mistakes surface as errors instead of silently
wrong tails.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]

__all__ = [
    "TruncatedSeries",
    "OrderMismatchError",
    "SeriesDivisionError",
    "div",
    "sin_scaled",
    "cos_scaled",
    "egf_value",
]


class OrderMismatchError(ValueError):
    """Binary operation applied to series of different truncation orders."""


class SeriesDivisionError(ArithmeticError):
    """Series division has no well-defined truncated quotient."""


def _as_rational(value: Scalar) -> Fraction:
    # Floats are rejected outright rather than converted: exactness is the
    # whole point of this module.
    if isinstance(value, float):
        raise TypeError("float coefficients are not allowed; use Fraction or int")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot use {type(value).__name__} as a rational coefficient")


def _integer_terms(coeffs: Sequence[Fraction]) -> tuple[list[tuple[int, int]], int]:
    """The nonzero coefficients as (exponent, numerator) over their lcm denominator."""
    den = math.lcm(*(c.denominator for c in coeffs))
    terms = [(k, c.numerator * (den // c.denominator)) for k, c in enumerate(coeffs) if c]
    return terms, den


class TruncatedSeries:
    """A power series known exactly through x^order.

    Instances are immutable.  ``coeffs`` always has length ``order + 1``.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar]):
        cs = [_as_rational(c) for c in coeffs]
        if not cs:
            raise ValueError("a series needs at least one coefficient")
        self._coeffs = tuple(cs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        if order < 0:
            raise ValueError("order must be >= 0")
        return cls([1] + [0] * order)

    @classmethod
    def from_egf(cls, terms: Iterable[tuple[int, Scalar]], order: int) -> "TruncatedSeries":
        """Series with coefficient value/k! at exponent k for each (k, value).

        Exponents may repeat (contributions add) but must lie in [0, order].
        This is the bridge from integer-indexed tables to their exponential
        generating functions, including families whose exponent is offset
        from the index.
        """
        coeffs = [Fraction(0)] * (order + 1)
        for exponent, value in terms:
            if not 0 <= exponent <= order:
                raise ValueError(f"exponent {exponent} outside [0, {order}]")
            coeffs[exponent] += _as_rational(value) / math.factorial(exponent)
        return cls(coeffs)

    # -- basic accessors ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def coeff(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"exponent {k} outside [0, {self.order}]")
        return self._coeffs[k]

    @property
    def constant_term(self) -> Fraction:
        return self._coeffs[0]

    def is_zero(self) -> bool:
        return not any(self._coeffs)

    def valuation(self) -> int | None:
        """Smallest exponent with nonzero coefficient, or None if all zero."""
        for k, c in enumerate(self._coeffs):
            if c:
                return k
        return None

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        if order < 0:
            raise ValueError("order must be >= 0")
        return TruncatedSeries(self._coeffs[: order + 1])

    def _shift_down(self, v: int) -> "TruncatedSeries":
        # Divide by x^v; caller guarantees the low coefficients vanish.
        return TruncatedSeries(self._coeffs[v:])

    # -- arithmetic --------------------------------------------------------

    def _check_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"orders differ: {self.order} != {other.order}"
            )

    def __add__(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            self._check_order(other)
            return TruncatedSeries(
                [a + b for a, b in zip(self._coeffs, other._coeffs)]
            )
        try:
            c = _as_rational(other)
        except TypeError:
            return NotImplemented
        return TruncatedSeries(
            [self._coeffs[0] + c, *self._coeffs[1:]]
        )

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries([-c for c in self._coeffs])

    def __sub__(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            self._check_order(other)
            return TruncatedSeries(
                [a - b for a, b in zip(self._coeffs, other._coeffs)]
            )
        result = self.__add__(-other if isinstance(other, (int, Fraction)) else other)
        return result

    def __rsub__(self, other) -> "TruncatedSeries":
        return (-self).__add__(other)

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            self._check_order(other)
            n = self.order
            # Integer sums over a_den * b_den, one Fraction per coefficient;
            # zero coefficients of either factor contribute no terms.
            a_terms, a_den = _integer_terms(self._coeffs)
            b_terms, b_den = _integer_terms(other._coeffs)
            sums = [0] * (n + 1)
            for i, a in a_terms:
                for j, b in b_terms:
                    if i + j > n:
                        break
                    sums[i + j] += a * b
            den = a_den * b_den
            return TruncatedSeries([Fraction(s, den) for s in sums])
        try:
            c = _as_rational(other)
        except TypeError:
            return NotImplemented
        return TruncatedSeries([c * a for a in self._coeffs])

    __rmul__ = __mul__

    def __truediv__(self, other) -> "TruncatedSeries":
        # Scalars only: a quotient of two series is ``div``.
        c = _as_rational(other)
        if not c:
            raise ZeroDivisionError("division by zero scalar")
        return TruncatedSeries([a / c for a in self._coeffs])

    def __pow__(self, k: int) -> "TruncatedSeries":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if k == 0:
            return TruncatedSeries.one(self.order)
        result = self
        for _ in range(k - 1):
            result = result * self
        return result

    def derivative(self) -> "TruncatedSeries":
        """Formal derivative; order drops by one."""
        if self.order < 1:
            raise ValueError("derivative needs order >= 1")
        return TruncatedSeries(
            [k * c for k, c in enumerate(self._coeffs)][1:]
        )

    # -- comparison and display -------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self._coeffs)!r})"


def div(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Quotient h with h*g = f; orders must match.

    If g has valuation v > 0 then f must be divisible by x^v as well; the
    common factor is cancelled and the result has order N - v.  With an
    invertible g (v = 0) the result keeps order N.
    """
    f._check_order(g)
    n = f.order
    v = g.valuation()
    if v is None:
        raise SeriesDivisionError("division by an identically zero series")
    if v > 0:
        fv = f.valuation()
        if fv is not None and fv < v:
            raise SeriesDivisionError(
                f"denominator valuation {v} exceeds numerator valuation {fv}"
            )
        f = f._shift_down(v)
        g = g._shift_down(v)
        n -= v
    # With g = G/g_den and the quotient so far q = Q/q_den in integers,
    # q_k = (f_k - sum_i g_i q_(k-i)) / g_0 is one integer dot product and
    # one Fraction.  q_den is the lcm of the denominators of q_0..q_(k-1).
    g_terms, g_den = _integer_terms(g.coeffs)
    _, lead = g_terms[0]
    tail = g_terms[1:]
    out: list[Fraction] = []
    nums: list[int] = []
    q_den = 1
    for k, c in enumerate(f.coeffs):
        dot = 0
        for i, b in tail:
            if i > k:
                break
            dot += b * nums[k - i]
        p, q = c.numerator, c.denominator
        value = Fraction(p * g_den * q_den - dot * q, q * q_den * lead)
        if q_den % value.denominator:
            new_den = math.lcm(q_den, value.denominator)
            scale = new_den // q_den
            nums = [x * scale for x in nums]
            q_den = new_den
        nums.append(value.numerator * (q_den // value.denominator))
        out.append(value)
    return TruncatedSeries(out)


def _taylor(a: Scalar, order: int, first: int) -> TruncatedSeries:
    """sin(a*x) (first = 1) or cos(a*x) (first = 0) through x^order, exactly."""
    if order < 0:
        raise ValueError("order must be >= 0")
    a = _as_rational(a)
    coeffs = [Fraction(0)] * (order + 1)
    sign = 1
    for k in range(first, order + 1, 2):
        coeffs[k] = sign * a**k / math.factorial(k)
        sign = -sign
    return TruncatedSeries(coeffs)


def sin_scaled(a: Scalar, order: int) -> TruncatedSeries:
    """Taylor expansion of sin(a*x) through x^order, exactly."""
    return _taylor(a, order, 1)


def cos_scaled(a: Scalar, order: int) -> TruncatedSeries:
    """Taylor expansion of cos(a*x) through x^order, exactly."""
    return _taylor(a, order, 0)


def egf_value(f: TruncatedSeries, k: int) -> Fraction:
    """k! times the coefficient of x^k: the table value an EGF encodes."""
    return f.coeff(k) * math.factorial(k)
