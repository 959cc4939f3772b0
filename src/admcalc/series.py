"""Exact truncated power series over the rationals.

No value ever passes through floating point.  A series is made from its full
coefficient list, and its truncation order N (the largest tracked exponent) is
one less than the list's length; each operation states the order of its
result.  Every series the package builds is an exponential generating
function, so a series stores m! c_m, its EGF value at each exponent m, as one
integer row over one positive denominator, in lowest terms, so that equal
series have equal rows.  On the values the derivative is a shift, a finite
sum of c sin(ax), or of c cos(ax), is +-sum c a^m, a product is the binomial
convolution sum_i C(m, i) A_i B_(m-i) of the two rows, with binomials from
Pascal's rows, and ``div`` solves that convolution for the quotient; both
read each value through the one convolution step, ``_convolved``.  One
builder, ``_trig_sum``, makes every such trigonometric sum in one integer
loop: sin and cos here, and the closed form's numerator and the cover-count
EGFs in ``hodge``.  ``Fraction``s are built only where the API returns them:
``coeffs``, ``coeff``, ``constant_term`` and ``egf_value``.  Two private
integer-row helpers, which ``hodge`` also solves its tables with:
``_over_lcm`` puts a row over its lcm, and ``_append_over_lcm`` grows a row
one value at a time, as ``div`` grows its quotient, and returns the new
lcm.  Binary operations insist on equal orders, so order bookkeeping
mistakes surface as errors instead of silently wrong tails.

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
from operator import add, mul

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


def _as_rational(value: int | Fraction) -> int | Fraction:
    # Floats are rejected outright rather than converted: exactness is the whole
    # point of this module.  Ints and Fractions pass as they are; both have a
    # numerator and a denominator.
    if isinstance(value, float):
        raise TypeError("float coefficients are not allowed; use Fraction or int")
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"cannot use {type(value).__name__} as a rational coefficient")


def _over_lcm(values: Sequence[int | Fraction]) -> tuple[list[int], int]:
    """``values`` as integer numerators over their lcm denominator."""
    den = math.lcm(*(value.denominator for value in values))
    return [value.numerator * (den // value.denominator) for value in values], den


def _append_over_lcm(nums: list[int], den: int, p, q) -> int:
    """Append p/q to ``nums``, numerators over ``den`` rescaled in place to the
    lcm of the denominators, and return that lcm: from ``[]`` over 1, the
    appends end as ``_over_lcm`` of their values.  ``p`` and ``q`` may be
    Fractions; a zero ``q`` raises ZeroDivisionError."""
    num, q = p.numerator * q.denominator, p.denominator * q.numerator
    # With q = 0 the floor division or the modulo below raises.
    g = math.gcd(num, q) if q > 0 else -math.gcd(num, q)
    num, q = num // g, q // g
    if den % q:
        scale = q // math.gcd(den, q)
        nums[:] = [x * scale for x in nums]
        den *= scale
    nums.append(num * (den // q))
    return den


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
    m, as the integer row ``_nums`` over the positive denominator ``_den`` in
    lowest terms, and reads ``coeffs`` off that row when first used; equality
    compares the rows, which are equal exactly when the coefficients are.
    """

    _fields = ("coeffs",)
    __hash__ = None

    def __init__(self, coeffs: Iterable[int | Fraction]):
        nums, den = _over_lcm([_as_rational(c) for c in coeffs])
        if not nums:
            raise ValueError("a series needs at least one coefficient")
        factorial = 1
        for m in range(1, len(nums)):
            factorial *= m
            nums[m] *= factorial
        self._store(nums, den)

    def _store(self, nums: Sequence[int], den: int) -> "TruncatedSeries":
        """Write the EGF values nums[m]/den, den nonzero, in lowest terms."""
        g = math.gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums, den = [x // g for x in nums], den // g
        self.__dict__.update(_nums=tuple(nums), _den=den)
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, nums: Sequence[int], den: int) -> "TruncatedSeries":
        """The series with EGF values nums[m]/den."""
        return object.__new__(cls)._store(nums, den)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.from_egf([(0, 1)], order)

    @classmethod
    def from_egf(cls, terms: Iterable[tuple[int, int | Fraction]], order: int) -> "TruncatedSeries":
        """Series with coefficient value/k! at exponent k for each (k, value).

        Exponents may repeat (contributions add) but must lie in [0, order].
        This is the bridge from integer-indexed tables to their exponential
        generating functions, including families whose exponent is offset
        from the index; the values are put over their lcm once.
        """
        if order < 0:
            raise ValueError("order must be >= 0")
        values = [0] * (order + 1)
        for exponent, value in terms:
            if not 0 <= exponent <= order:
                raise ValueError(f"exponent {exponent} outside [0, {order}]")
            values[exponent] += _as_rational(value)
        return cls._of(*_over_lcm(values))

    # -- basic accessors ---------------------------------------------------

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        out = []
        factorial = 1
        for m, num in enumerate(self._nums):
            factorial *= m or 1
            out.append(Fraction(num, self._den * factorial))
        return tuple(out)

    def _values(self) -> tuple:
        return (self._nums, self._den)

    @property
    def order(self) -> int:
        return len(self._nums) - 1

    def coeff(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"exponent {k} outside [0, {self.order}]")
        return self.coeffs[k]

    @property
    def constant_term(self) -> Fraction:
        return Fraction(self._nums[0], self._den)

    def is_zero(self) -> bool:
        return not any(self._nums)

    def valuation(self) -> int | None:
        """Smallest exponent with nonzero coefficient, or None if all zero."""
        return next((k for k, num in enumerate(self._nums) if num), None)

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        if order < 0:
            raise ValueError("order must be >= 0")
        return TruncatedSeries._of(self._nums[: order + 1], self._den)

    # -- arithmetic --------------------------------------------------------

    def _check_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise OrderMismatchError(f"orders differ: {self.order} != {other.order}")

    def __add__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            try:
                c = _as_rational(other)
            except TypeError:
                return NotImplemented
            other = TruncatedSeries._of([c.numerator] + [0] * self.order, c.denominator)
        self._check_order(other)
        den = math.lcm(self._den, other._den)
        a, b = den // self._den, den // other._den
        nums = [a * x + b * y for x, y in zip(self._nums, other._nums)]
        return TruncatedSeries._of(nums, den)

    __radd__ = __add__

    def _scaled(self, p: int, q: int) -> "TruncatedSeries":
        return TruncatedSeries._of([p * x for x in self._nums], q * self._den)

    def __neg__(self) -> "TruncatedSeries":
        return self._scaled(-1, 1)

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
            # on the two rows over a_den * b_den, with C(m, i) read as
            # C(m, m-i); zero values of either factor contribute no terms.
            a_terms = [(i, x) for i, x in enumerate(self._nums) if x]
            b = other._nums
            sums = [_convolved(row, m, a_terms, b) for m, row in enumerate(_pascal_rows(len(b)))]
            return TruncatedSeries._of(sums, self._den * other._den)
        try:
            c = _as_rational(other)
        except TypeError:
            return NotImplemented
        return self._scaled(c.numerator, c.denominator)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "TruncatedSeries":
        # Scalars only: a quotient of two series is ``div``.
        c = _as_rational(other)
        if not c:
            raise ZeroDivisionError("division by zero scalar")
        return self._scaled(c.denominator, c.numerator)

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
        return TruncatedSeries._of(self._nums[1:], self._den)


def _pascal_rows(count: int) -> Iterator[list[int]]:
    """The rows C(m, 0..m) of Pascal's triangle for m < count, each by
    additions from the one before."""
    row = [1]
    for _ in range(count):
        yield row
        row = [1, *map(add, row, row[1:]), 1]


def _convolved(row: list[int], m: int, sparse: list[tuple[int, int]],
               dense: Sequence[int]) -> int:
    """Value m of a binomial convolution: the sum of row[k] * dense[k] * y,
    k = m - j, over the (j, y) of ``sparse`` (j ascending) with j <= m,
    zero ``dense`` values skipped."""
    s = 0
    for j, y in sparse:
        if j > m:
            break
        k = m - j
        x = dense[k]
        if x:
            s += row[k] * x * y
    return s


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
    # (f_(m+v) - sum_(i<m) C(m+v, i) h_i g_(m+v-i)) / (C(m+v, m) g_v).  On
    # the rows f = F/(k f_den), g = G/(k g_den), with k their denominators'
    # gcd, and h = H/q_den so far, that is one integer dot product and one
    # reduced ratio; q_den is the lcm of the denominators of h_0..h_(m-1).
    # The dot product is the convolution step of the product, over g's tail
    # and the quotient so far.
    k = math.gcd(f._den, g._den)
    F, f_den = f._nums, f._den // k
    G, g_den = g._nums, g._den // k
    lead = G[v]
    tail = [(j - v, b) for j, b in enumerate(G) if b and j > v]
    H: list[int] = []
    q_den = 1
    for m, row in enumerate(itertools.islice(_pascal_rows(len(G)), v, None)):
        dot = _convolved(row, m, tail, H)
        q_den = _append_over_lcm(
            H, q_den, F[m + v] * g_den * q_den - dot * f_den, f_den * q_den * lead * row[m]
        )
    return TruncatedSeries._of(H, q_den)


def _trig_sum(parity: int, terms: Sequence[tuple[int | Fraction, int | Fraction]],
              order: int) -> TruncatedSeries:
    """sum c sin(a*x) (parity 1) or sum c cos(a*x) (parity 0) over the (c, a)
    pairs of ``terms``, through x^order, exactly: EGF value +-sum c a^m at
    every m of the parity.  With the c as C over their lcm s and the a as
    n/q over their lcm q, that is +-sum C n^m q^(order-m) over s q^order,
    each power stepped from the one two exponents below."""
    if order < 0:
        raise ValueError("order must be >= 0")
    coeffs, s = _over_lcm([_as_rational(c) for c, _ in terms])
    bases, q = _over_lcm([_as_rational(a) for _, a in terms])
    powers = [n**parity for n in bases]
    squares = [n * n for n in bases]
    q_power = q ** max(order - parity, 0)
    nums = [0] * (order + 1)
    for m in range(parity, order + 1, 2):
        total = sum(map(mul, coeffs, powers)) * q_power
        nums[m] = total if m % 4 < 2 else -total
        powers = list(map(mul, powers, squares))
        q_power //= q * q
    return TruncatedSeries._of(nums, s * q**order)


def sin_scaled(a: int | Fraction, order: int) -> TruncatedSeries:
    """Taylor expansion of sin(a*x) through x^order, exactly."""
    return _trig_sum(1, [(1, a)], order)


def cos_scaled(a: int | Fraction, order: int) -> TruncatedSeries:
    """Taylor expansion of cos(a*x) through x^order, exactly."""
    return _trig_sum(0, [(1, a)], order)


def egf_value(f: TruncatedSeries, k: int) -> Fraction:
    """k! times the coefficient of x^k: the table value an EGF encodes,
    as the series stores it."""
    if not 0 <= k <= f.order:
        raise IndexError(f"exponent {k} outside [0, {f.order}]")
    return Fraction(f._nums[k], f._den)
