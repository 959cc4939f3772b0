"""Exact truncated power series over the rationals.

Every coefficient is a ``fractions.Fraction``; no value ever passes through
floating point.  A series is made from its full coefficient list, and its
truncation order N (the largest tracked exponent) is one less than the list's
length; each operation states the order of its result.  Products and
quotients of two series sum integer numerators over a common denominator and
build one ``Fraction`` per coefficient.  The two integer-row helpers are
public, since ``hodge`` solves its tables with them too: ``over_lcm`` puts a
row over its lcm, and ``append_over_lcm`` grows a row one value at a time, as
``div`` grows its quotient.  Binary operations insist on equal
orders, so order bookkeeping mistakes surface as errors instead of silently
wrong tails.

``_Value``, the private base of the package's value types (the series here,
the tables of ``hodge``, the cycle types and branch profiles of ``hurwitz``),
owns their read-only fields, equality, hash and repr.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

__all__ = [
    "TruncatedSeries",
    "OrderMismatchError",
    "SeriesDivisionError",
    "div",
    "over_lcm",
    "append_over_lcm",
    "sin_scaled",
    "cos_scaled",
    "egf_value",
]


class OrderMismatchError(ValueError):
    """Binary operation applied to series of different truncation orders."""


class SeriesDivisionError(ArithmeticError):
    """Series division has no well-defined truncated quotient."""


def _as_rational(value: int | Fraction) -> Fraction:
    # Floats are rejected outright rather than converted: exactness is the
    # whole point of this module.
    if isinstance(value, float):
        raise TypeError("float coefficients are not allowed; use Fraction or int")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot use {type(value).__name__} as a rational coefficient")


def over_lcm(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """``values`` as integer numerators over their lcm denominator."""
    den = math.lcm(*(value.denominator for value in values))
    return [value.numerator * (den // value.denominator) for value in values], den


def append_over_lcm(nums: list[int], den: int, p, q: int) -> tuple[Fraction, int]:
    """Append p/q to ``nums``, numerators over ``den`` rescaled in place to the
    lcm of the denominators, and return p/q and that lcm: from ``[]`` over 1,
    the appends end as ``over_lcm`` of their values.  ``p`` may be a Fraction."""
    value = Fraction(p, q)
    if den % value.denominator:
        scale = value.denominator // math.gcd(den, value.denominator)
        nums[:] = [x * scale for x in nums]
        den *= scale
    nums.append(value.numerator * (den // value.denominator))
    return value, den


def _integer_terms(coeffs: Sequence[Fraction]) -> tuple[list[tuple[int, int]], int]:
    """The nonzero coefficients as (exponent, numerator) over their lcm denominator."""
    nums, den = over_lcm(coeffs)
    return [(k, a) for k, a in enumerate(nums) if a], den


class _Value:
    """Read-only fields, with equality, hash and repr over them.

    A subclass names its fields in ``_fields``; its ``__init__`` checks its
    arguments and writes the fields once into ``__dict__``, past the guard,
    as ``cached_property`` writes too.  Values are equal when their classes
    are the same and their fields equal, and hash the same fields unless the
    subclass sets ``__hash__ = None``.  The repr, ``Name(field=value, ...)``,
    makes an equal value where the names in it are in scope.
    """

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class TruncatedSeries(_Value):
    """A power series known exactly through x^order.

    Its one field, ``coeffs``, is the tuple of its ``order + 1`` coefficients.
    """

    _fields = ("coeffs",)
    __hash__ = None

    def __init__(self, coeffs: Iterable[int | Fraction]):
        cs = [_as_rational(c) for c in coeffs]
        if not cs:
            raise ValueError("a series needs at least one coefficient")
        self.__dict__["coeffs"] = tuple(cs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        if order < 0:
            raise ValueError("order must be >= 0")
        return cls([1] + [0] * order)

    @classmethod
    def from_egf(cls, terms: Iterable[tuple[int, int | Fraction]], order: int) -> "TruncatedSeries":
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
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"exponent {k} outside [0, {self.order}]")
        return self.coeffs[k]

    @property
    def constant_term(self) -> Fraction:
        return self.coeffs[0]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def valuation(self) -> int | None:
        """Smallest exponent with nonzero coefficient, or None if all zero."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return None

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        if order < 0:
            raise ValueError("order must be >= 0")
        return TruncatedSeries(self.coeffs[: order + 1])

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
                [a + b for a, b in zip(self.coeffs, other.coeffs)]
            )
        try:
            c = _as_rational(other)
        except TypeError:
            return NotImplemented
        return TruncatedSeries(
            [self.coeffs[0] + c, *self.coeffs[1:]]
        )

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries([-c for c in self.coeffs])

    def __sub__(self, other) -> "TruncatedSeries":
        if isinstance(other, (TruncatedSeries, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other) -> "TruncatedSeries":
        return (-self).__add__(other)

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            self._check_order(other)
            n = self.order
            # Integer sums over a_den * b_den, one Fraction per coefficient;
            # zero coefficients of either factor contribute no terms.
            a_terms, a_den = _integer_terms(self.coeffs)
            b_terms, b_den = _integer_terms(other.coeffs)
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
        return TruncatedSeries([c * a for a in self.coeffs])

    __rmul__ = __mul__

    def __truediv__(self, other) -> "TruncatedSeries":
        # Scalars only: a quotient of two series is ``div``.
        c = _as_rational(other)
        if not c:
            raise ZeroDivisionError("division by zero scalar")
        return TruncatedSeries([a / c for a in self.coeffs])

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
            [k * c for k, c in enumerate(self.coeffs)][1:]
        )


def div(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Quotient h with h*g = f; orders must match.

    If g has valuation v > 0 then f must be divisible by x^v as well; the
    common factor is cancelled and the result has order N - v.  With an
    invertible g (v = 0) the result keeps order N.
    """
    f._check_order(g)
    v = g.valuation()
    if v is None:
        raise SeriesDivisionError("division by an identically zero series")
    if v > 0:
        fv = f.valuation()
        if fv is not None and fv < v:
            raise SeriesDivisionError(
                f"denominator valuation {v} exceeds numerator valuation {fv}"
            )
    # Both are divided by x^v.  With g = G/g_den and the quotient so far
    # q = Q/q_den in integers, q_k = (f_k - sum_i g_i q_(k-i)) / g_0 is one
    # integer dot product and one Fraction.  q_den is the lcm of the
    # denominators of q_0..q_(k-1).
    g_terms, g_den = _integer_terms(g.coeffs[v:])
    _, lead = g_terms[0]
    tail = g_terms[1:]
    out: list[Fraction] = []
    nums: list[int] = []
    q_den = 1
    for k, c in enumerate(f.coeffs[v:]):
        dot = 0
        for i, b in tail:
            if i > k:
                break
            dot += b * nums[k - i]
        p, q = c.numerator, c.denominator
        value, q_den = append_over_lcm(
            nums, q_den, p * g_den * q_den - dot * q, q * q_den * lead
        )
        out.append(value)
    return TruncatedSeries(out)


def _taylor(a: int | Fraction, order: int, first: int) -> TruncatedSeries:
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


def sin_scaled(a: int | Fraction, order: int) -> TruncatedSeries:
    """Taylor expansion of sin(a*x) through x^order, exactly."""
    return _taylor(a, order, 1)


def cos_scaled(a: int | Fraction, order: int) -> TruncatedSeries:
    """Taylor expansion of cos(a*x) through x^order, exactly."""
    return _taylor(a, order, 0)


def egf_value(f: TruncatedSeries, k: int) -> Fraction:
    """k! times the coefficient of x^k: the table value an EGF encodes."""
    return f.coeff(k) * math.factorial(k)
