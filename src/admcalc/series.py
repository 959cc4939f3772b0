"""Exact truncated power series over the rationals.

Every coefficient is a ``fractions.Fraction``; no value ever passes through
floating point.  A series carries its truncation order N (the largest tracked
exponent), and each operation states the order of its result.  Binary
operations insist on equal orders, so order bookkeeping mistakes surface as
errors instead of silently wrong tails.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

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


class TruncatedSeries:
    """A power series known exactly through x^order.

    Instances are immutable.  ``coeffs`` always has length ``order + 1``.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar], order: int | None = None):
        cs = [_as_rational(c) for c in coeffs]
        if order is None:
            if not cs:
                raise ValueError("empty coefficient list needs an explicit order")
        else:
            if order < 0:
                raise ValueError("order must be >= 0")
            if len(cs) > order + 1:
                raise ValueError("got more coefficients than order allows")
            cs.extend([Fraction(0)] * (order + 1 - len(cs)))
        self._coeffs = tuple(cs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([], order=order)

    @classmethod
    def constant(cls, value: Scalar, order: int) -> "TruncatedSeries":
        return cls([value], order=order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.constant(1, order)

    @classmethod
    def x(cls, order: int) -> "TruncatedSeries":
        if order < 1:
            raise ValueError("order must be >= 1 to represent x")
        return cls([0, 1], order=order)

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
            out = [Fraction(0)] * (n + 1)
            for i, a in enumerate(self._coeffs):
                if not a:
                    continue
                for j in range(n + 1 - i):
                    b = other._coeffs[j]
                    if b:
                        out[i + j] += a * b
            return TruncatedSeries(out)
        try:
            c = _as_rational(other)
        except TypeError:
            return NotImplemented
        return TruncatedSeries([c * a for a in self._coeffs])

    __rmul__ = __mul__

    def __truediv__(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            return _div_series(self, other)
        c = _as_rational(other)
        if not c:
            raise ZeroDivisionError("division by zero scalar")
        return TruncatedSeries([a / c for a in self._coeffs])

    def __pow__(self, k: int) -> "TruncatedSeries":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = TruncatedSeries.one(self.order)
        for _ in range(k):
            result = result * self
        return result

    def derivative(self) -> "TruncatedSeries":
        """Formal derivative; order drops by one."""
        if self.order < 1:
            raise ValueError("derivative needs order >= 1")
        return TruncatedSeries(
            [k * c for k, c in enumerate(self._coeffs)][1:]
        )

    def antiderivative(self, constant: Scalar = 0) -> "TruncatedSeries":
        """Formal antiderivative with given constant term; order grows by one."""
        out = [_as_rational(constant)]
        out.extend(c / (k + 1) for k, c in enumerate(self._coeffs))
        return TruncatedSeries(out)

    # -- comparison and display -------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __str__(self) -> str:
        parts = []
        for k, c in enumerate(self._coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{k}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(x^{self.order + 1})"

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self._coeffs)!r})"


def _div_series(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    # The one quotient body, behind both ``div`` and ``f / g``.
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
    fc, gc = f.coeffs, g.coeffs
    lead = gc[0]
    out = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        acc = fc[k]
        for i in range(1, k + 1):
            if gc[i]:
                acc -= gc[i] * out[k - i]
        out[k] = acc / lead
    return TruncatedSeries(out)


def div(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Quotient h with h*g = f, the same as ``f / g``; orders must match.

    If g has valuation v > 0 then f must be divisible by x^v as well; the
    common factor is cancelled and the result has order N - v.  With an
    invertible g (v = 0) the result keeps order N.
    """
    return _div_series(f, g)


def sin_scaled(a: Scalar, order: int) -> TruncatedSeries:
    """Taylor expansion of sin(a*x) through x^order, exactly."""
    if order < 0:
        raise ValueError("order must be >= 0")
    a = _as_rational(a)
    coeffs = [Fraction(0)] * (order + 1)
    sign = 1
    for k in range(1, order + 1, 2):
        coeffs[k] = sign * a**k / math.factorial(k)
        sign = -sign
    return TruncatedSeries(coeffs)


def cos_scaled(a: Scalar, order: int) -> TruncatedSeries:
    """Taylor expansion of cos(a*x) through x^order, exactly."""
    if order < 0:
        raise ValueError("order must be >= 0")
    a = _as_rational(a)
    coeffs = [Fraction(0)] * (order + 1)
    sign = 1
    for k in range(0, order + 1, 2):
        coeffs[k] = sign * a**k / math.factorial(k)
        sign = -sign
    return TruncatedSeries(coeffs)


def egf_value(f: TruncatedSeries, k: int) -> Fraction:
    """k! times the coefficient of x^k: the table value an EGF encodes."""
    return f.coeff(k) * math.factorial(k)
