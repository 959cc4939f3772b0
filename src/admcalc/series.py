"""Exact truncated power series over the rationals.

Every coefficient is a ``fractions.Fraction``; no value ever passes through
floating point.  A series is made from its full coefficient list, and its
truncation order N (the largest tracked exponent) is one less than the list's
length; each operation states the order of its result.  Every series the
package builds is an exponential generating function, so a series stores
m! c_m, its EGF value at each exponent m, and reads its ordinary coefficients
off those values when first asked.  On the values the derivative is a shift,
sin(ax) and cos(ax) are +-a^m, a product is the binomial convolution
sum_i C(m, i) A_i B_(m-i), and ``div`` solves that convolution for the
quotient.  Products and quotients of two series sum integer numerators over
a common denominator, with binomials from Pascal's rows, and build one
``Fraction`` per value.  The two integer-row helpers are public, since
``hodge`` solves its tables with them too: ``over_lcm`` puts a row over its
lcm, and ``append_over_lcm`` grows a row one value at a time, as ``div``
grows its quotient.  Binary operations insist on equal orders, so order
bookkeeping mistakes surface as errors instead of silently wrong tails.

``_Value``, the private base of the package's value types (the series here,
the tables of ``hodge``, the cycle types and branch profiles of ``hurwitz``),
owns their read-only fields, equality, hash and repr.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import cached_property
from operator import add

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
    are the same and their ``_values()`` equal: the fields, unless the
    subclass compares a form it stores in their place.  They hash the same
    values unless the subclass sets ``__hash__ = None``.  The repr,
    ``Name(field=value, ...)``, makes an equal value where the names in it
    are in scope.
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

    Its one field, ``coeffs``, is the tuple of its ``order + 1`` ordinary
    coefficients.  The series stores m! c_m, the EGF value at each exponent
    m, and reads ``coeffs`` off those values when first used; equality
    compares the values, which are equal exactly when the coefficients are.
    """

    _fields = ("coeffs",)
    __hash__ = None

    def __init__(self, coeffs: Iterable[int | Fraction]):
        cs = tuple([_as_rational(c) for c in coeffs])
        if not cs:
            raise ValueError("a series needs at least one coefficient")
        values = []
        factorial = 1
        for m, c in enumerate(cs):
            factorial *= m or 1
            values.append(c * factorial)
        self.__dict__.update(coeffs=cs, _egf=tuple(values))

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, values: Iterable[Fraction]) -> "TruncatedSeries":
        """The series with these EGF values, ``Fraction``s, stored as given."""
        series = object.__new__(cls)
        series.__dict__["_egf"] = tuple(values)
        return series

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
        from the index; the values are stored as given.
        """
        values = [Fraction(0)] * (order + 1)
        for exponent, value in terms:
            if not 0 <= exponent <= order:
                raise ValueError(f"exponent {exponent} outside [0, {order}]")
            values[exponent] += _as_rational(value)
        return cls._of(values)

    # -- basic accessors ---------------------------------------------------

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        out = []
        factorial = 1
        for m, value in enumerate(self._egf):
            factorial *= m or 1
            out.append(value / factorial)
        return tuple(out)

    def _values(self) -> tuple:
        return (self._egf,)

    @property
    def order(self) -> int:
        return len(self._egf) - 1

    def coeff(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"exponent {k} outside [0, {self.order}]")
        return self.coeffs[k]

    @property
    def constant_term(self) -> Fraction:
        return self._egf[0]

    def is_zero(self) -> bool:
        return not any(self._egf)

    def valuation(self) -> int | None:
        """Smallest exponent with nonzero coefficient, or None if all zero."""
        for k, value in enumerate(self._egf):
            if value:
                return k
        return None

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        if order < 0:
            raise ValueError("order must be >= 0")
        return TruncatedSeries._of(self._egf[: order + 1])

    # -- arithmetic --------------------------------------------------------

    def _check_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"orders differ: {self.order} != {other.order}"
            )

    def __add__(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            self._check_order(other)
            return TruncatedSeries._of(
                [a + b for a, b in zip(self._egf, other._egf)]
            )
        try:
            c = _as_rational(other)
        except TypeError:
            return NotImplemented
        return TruncatedSeries._of([self._egf[0] + c, *self._egf[1:]])

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._of([-value for value in self._egf])

    def __sub__(self, other) -> "TruncatedSeries":
        if isinstance(other, (TruncatedSeries, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other) -> "TruncatedSeries":
        return (-self).__add__(other)

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            self._check_order(other)
            # The EGF product: value m is sum_i C(m, i) A_i B_(m-i), summed
            # in integers over a_den * b_den with one Fraction per value;
            # zero values of either factor contribute no terms.
            a_terms, a_den = _integer_terms(self._egf)
            b, b_den = over_lcm(other._egf)
            sums = []
            for m, row in enumerate(_pascal_rows(len(b))):
                s = 0
                for i, a in a_terms:
                    if i > m:
                        break
                    y = b[m - i]
                    if y:
                        s += row[i] * a * y
                sums.append(s)
            den = a_den * b_den
            return TruncatedSeries._of([Fraction(s, den) for s in sums])
        try:
            c = _as_rational(other)
        except TypeError:
            return NotImplemented
        return TruncatedSeries._of([c * value for value in self._egf])

    __rmul__ = __mul__

    def __truediv__(self, other) -> "TruncatedSeries":
        # Scalars only: a quotient of two series is ``div``.
        c = _as_rational(other)
        if not c:
            raise ZeroDivisionError("division by zero scalar")
        return TruncatedSeries._of([value / c for value in self._egf])

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
        """Formal derivative, a shift of the EGF values; order drops by one."""
        if self.order < 1:
            raise ValueError("derivative needs order >= 1")
        return TruncatedSeries._of(self._egf[1:])


def _pascal_rows(count: int) -> Iterator[list[int]]:
    """The rows C(m, 0..m) of Pascal's triangle for m < count, each by
    additions from the one before."""
    row = [1]
    for _ in range(count):
        yield row
        row = [1, *map(add, row, row[1:]), 1]


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
    # h g = f read at exponent m + v, where g's values below v vanish: the
    # EGF value f_(m+v) is sum_(i<=m) C(m+v, i) h_i g_(m+v-i), so h_m is
    # (f_(m+v) - sum_(i<m) C(m+v, i) h_i g_(m+v-i)) / (C(m+v, m) g_v).  With
    # g = Gn/g_den in integers and the quotient so far h = Q/q_den, that is
    # one integer dot product and one Fraction; q_den is the lcm of the
    # denominators of h_0..h_(m-1).  Zero quotient terms are skipped before
    # a binomial is read.
    g_terms, g_den = _integer_terms(g._egf)
    _, lead = g_terms[0]
    tail = [(j - v, b) for j, b in g_terms[1:]]
    out: list[Fraction] = []
    nums: list[int] = []
    q_den = 1
    for m, row in enumerate(itertools.islice(_pascal_rows(len(g._egf)), v, None)):
        c = f._egf[m + v]
        dot = 0
        for j, b in tail:
            if j > m:
                break
            a = nums[m - j]
            if a:
                dot += row[m - j] * a * b
        p, q = c.numerator, c.denominator
        value, q_den = append_over_lcm(
            nums, q_den, p * g_den * q_den - dot * q, q * q_den * lead * row[m]
        )
        out.append(value)
    return TruncatedSeries._of(out)


def _taylor(a: int | Fraction, order: int, first: int) -> TruncatedSeries:
    """sin(a*x) (first = 1) or cos(a*x) (first = 0) through x^order, exactly:
    EGF value +-a^m at every m of the parity of ``first``."""
    if order < 0:
        raise ValueError("order must be >= 0")
    a = _as_rational(a)
    values = [Fraction(0)] * (order + 1)
    power = a**first
    for m in range(first, order + 1, 2):
        values[m] = power if m % 4 < 2 else -power
        power *= a * a
    return TruncatedSeries._of(values)


def sin_scaled(a: int | Fraction, order: int) -> TruncatedSeries:
    """Taylor expansion of sin(a*x) through x^order, exactly."""
    return _taylor(a, order, 1)


def cos_scaled(a: int | Fraction, order: int) -> TruncatedSeries:
    """Taylor expansion of cos(a*x) through x^order, exactly."""
    return _taylor(a, order, 0)


def egf_value(f: TruncatedSeries, k: int) -> Fraction:
    """k! times the coefficient of x^k: the table value an EGF encodes,
    as the series stores it."""
    if not 0 <= k <= f.order:
        raise IndexError(f"exponent {k} outside [0, {f.order}]")
    return f._egf[k]
