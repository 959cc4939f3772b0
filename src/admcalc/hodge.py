"""Recursion engine for the intersection-number tables and their series.

Two families of numbers are tabulated exactly:

* degree 2: L2(g), seeded by L2(0) = 1/2, satisfying
      L2(g) = (1/2g) * sum_{i<g} (-1)^(g-i+1) C(2g+1, 2i) L2(i),
  with generating function sum L2(g) x^(2g+1)/(2g+1)! = tan(x/2);
* degree 3: L3(g), determined together with the degree-2 family by
      0 = (2/3) sum_{i<=g} C(2g+3, 2i+1) (-1)^(g-i+1) P3_full(g-i) L3(i)
        + sum_{i<=g} C(2g+3, 2i) (-1)^(g-i) P3_trans(g-i) L2(i),
  where P3_full(g) = 9^g and P3_trans(g) = (9^(g+1)-1)/2 are branched-cover
  counts; the generating function is (9/2)(1/(1+2 cos x) - 1/3).

The one-point invariants are I2(g) = -L2(g)/2 and I3(g) = (2/9) L3(g); the
two-point invariants satisfy the square identity J_d = d * I_d^2.  A single
closed form covers both degrees (and conjecturally all d >= 1):

      I_d(x) = (-1)^(d-1) (1/d) (2 sin(x/2))^d / (2 sin(dx/2)).

It is the only closed form computed here.  ``TableSource.closed_form`` is the
one derivation of the L and J closed forms from it (L scales I_d, J is d I_d^2);
``closed_form_L2/L3`` and ``j_relation_check`` read it, and a test checks the
proven spellings above against it.  Its numerator is a finite sum of
sines or cosines of (d-2k)x/2, so each EGF value is an O(d) integer sum
(``_sine_power``, built by the series kernel's ``_trig_sum``, as are the
cover-count EGFs ``p3_full_series`` and ``p3_trans_series``); the one series
division by 2 sin(dx/2) costs most.

The three relations take their binomials from one walker, ``_every_other``,
which steps along every other entry of a Pascal row by one product and one
exact division, so no genus loop calls ``comb``.  The degree-3 relation and
the J convolution are summed in integers, one Fraction per value, with the
series kernel's private row helpers: ``_over_lcm`` gives each row its integer
form, and ``l3_table`` grows L3 by ``_append_over_lcm`` as ``div`` grows a
quotient.
``_j_numerators`` gives the J row and the two-point loci one sum.  The L2
recursion still adds Fractions.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property
from math import comb

from .series import TruncatedSeries, div, egf_value, sin_scaled
from .series import _Value, _append_over_lcm, _as_rational, _over_lcm, _trig_sum

__all__ = [
    "HodgeTable",
    "p2_closed",
    "p3_full_closed",
    "p3_trans_closed",
    "l2_table",
    "l3_table",
    "TableSource",
    "l_series",
    "closed_form_L2",
    "closed_form_L3",
    "conjecture_series",
    "i_series",
    "j_series",
    "p3_full_series",
    "p3_trans_series",
    "j_relation_check",
    "ode_residual_deg2",
    "ode_residual_deg3",
]


_I_PER_L = {2: Fraction(-1, 2), 3: Fraction(2, 9)}  # I_d = _I_PER_L[d] * L_d
_HALF = Fraction(1, 2)


class HodgeTable(_Value):
    """The solved L-row for one of the two computed degrees; row g is genus g.

    The one- and two-point rows ``I`` and ``J`` are read off ``L`` when
    first used, and so are the integer forms ``L_int`` and ``I_int`` that
    the relation sums read.  The degree-3 row is solved with the cover
    counts' closed forms, which ``_l3_weights`` reads.

    Its fields are ``degree`` and ``L``.  Each row, like the numerators of
    ``L_int`` and ``I_int``, is a tuple, so a cached row never outlives the
    ``L`` it was read off: a perturbed table is a new ``HodgeTable(degree,
    L)``, which stores ``L`` as a tuple.  The degree must be 2 or 3
    (``ValueError``) and each value an int or a Fraction (``TypeError``).
    """

    _fields = ("degree", "L")
    __hash__ = None

    def __init__(self, degree: int, L: Iterable[Fraction]):
        if not (isinstance(degree, int) and degree in _I_PER_L):
            raise ValueError(f"a table has degree 2 or 3, not {degree!r}")
        self.__dict__.update(degree=degree, L=tuple(map(_as_rational, L)))

    @property
    def gmax(self) -> int:
        return len(self.L) - 1

    @cached_property
    def I(self) -> tuple[Fraction, ...]:
        """I2 = -L2/2 and I3 = (2/9) L3."""
        return tuple([_I_PER_L[self.degree] * value for value in self.L])

    @cached_property
    def J(self) -> tuple[Fraction, ...]:
        """J_d(g), the EGF coefficients of d * I_d^2, from ``_j_numerators``."""
        summands = (_j_numerators(self, g) for g in range(len(self.L)))
        return tuple([Fraction(sum(terms), den) for terms, den in summands])

    @cached_property
    def L_int(self) -> tuple[tuple[int, ...], int]:
        """``L`` as integer numerators over their lcm denominator."""
        nums, den = _over_lcm(self.L)
        return tuple(nums), den

    @cached_property
    def I_int(self) -> tuple[tuple[int, ...], int]:
        """``I`` as integer numerators over their lcm denominator."""
        nums, den = _over_lcm(self.I)
        return tuple(nums), den


def _check_roles(l2: HodgeTable, l3: HodgeTable | None = None) -> None:
    """Refuse a table passed in the other degree's role: ``l2`` must be the
    degree-2 table and ``l3``, when given, the degree-3 one."""
    for role, table, degree in (("l2", l2, 2), ("l3", l3, 3)):
        if table is not None and table.degree != degree:
            raise ValueError(
                f"{role} must be a degree-{degree} table, not degree {table.degree}"
            )


def _check_genus(g: int) -> None:
    """Refuse a genus that is not an int (``TypeError``) or is negative
    (``ValueError``)."""
    if not isinstance(g, int):
        raise TypeError(f"genus must be an int, not {g!r}")
    if g < 0:
        raise ValueError("genus must be >= 0")


def p2_closed(g: int) -> Fraction:
    """Count of genus-g connected double covers (any g): always 1/2."""
    _check_genus(g)
    return _HALF


def p3_full_closed(g: int) -> int:
    """Closed form 9^g for the triple-point branched-cover count."""
    _check_genus(g)
    return 9**g


def p3_trans_closed(g: int) -> int:
    """Closed form (9^(g+1)-1)/2 for the all-simple branched-cover count."""
    _check_genus(g)
    return (9 ** (g + 1) - 1) // 2


# -- the relations -----------------------------------------------------------
#
# Each relation's per-i summands are written once, here.  The tables solve
# them; the fixed-locus catalogs in ``localization`` list each summand as one
# locus, so their identities restate these relations.


def _every_other(n: int, k: int, count: int) -> list[int]:
    """C(n, k), C(n, k + 2), ...: ``count`` binomials of row n, every other one
    from k >= 0, each from the one before by one product and one exact
    division; past the row's end they are 0."""
    if count <= 0:
        return []
    row = [comb(n, k)]
    for j in range(k, k + 2 * count - 2, 2):
        row.append(row[-1] * ((n - j) * (n - j - 1)) // ((j + 1) * (j + 2)))
    return row


def _l2_terms(g: int, L2: list[Fraction]) -> list[Fraction]:
    """Summands (-1)^(g-i+1) C(2g+1, 2i) L2(i), i < g, of 2g L2(g)."""
    row = _every_other(2 * g + 1, 0, g)
    return [c * L2[i] if (g - i) % 2 else -c * L2[i] for i, c in enumerate(row)]


def _l3_weights(g: int) -> list[tuple[int, int]]:
    """Integer weights (a_i, b_i), i <= g, of 3 times the degree-3 relation:
    sum a_i L3(i) + b_i L2(i) = 0.

    a_i = -2 C(2g+3, 2i+1) (-1)^(g-i) P3_full(g-i) and
    b_i = 3 C(2g+3, 2i) (-1)^(g-i) P3_trans(g-i), with the counts read from
    ``p3_full_closed`` and ``p3_trans_closed``.
    """
    odd = _every_other(2 * g + 3, 1, g + 1)
    even = _every_other(2 * g + 3, 0, g + 1)
    weights = []
    for i in range(g + 1):
        sign = -1 if (g - i) % 2 else 1
        weights.append((
            -2 * sign * odd[i] * p3_full_closed(g - i),
            3 * sign * even[i] * p3_trans_closed(g - i),
        ))
    return weights


def _j_terms(d: int, g: int, I: Sequence[Fraction]) -> list[Fraction]:
    """Summands d C(2g+2d-2, 2i+d-1) I_d(i) I_d(g-i), i <= g, of J_d(g).

    This is the EGF-product expansion of d * I_d^2: I_d(i) sits at exponent
    2i+d-1, so the binomial splits the 2g+2d-2 slots accordingly.
    """
    row = _every_other(2 * g + 2 * d - 2, d - 1, g + 1)
    return [d * c * I[i] * I[g - i] for i, c in enumerate(row)]


def _j_numerators(table: HodgeTable, g: int) -> tuple[list[int], int]:
    """J_d(g)'s summands ``_j_terms`` on the numerators of ``table.I_int``, over
    den^2 since the sum is quadratic in the row; the J row and loci read them."""
    numerators, den = table.I_int
    return _j_terms(table.degree, g, numerators), den * den


def l2_table(gmax: int) -> HodgeTable:
    """L2 for all genera up to gmax, from the recursion."""
    if gmax < 0:
        raise ValueError("gmax must be >= 0")
    L = [Fraction(1, 2)]
    for g in range(1, gmax + 1):
        L.append(sum(_l2_terms(g, L)) / (2 * g))
    return HodgeTable(degree=2, L=L)


def l3_table(l2: HodgeTable) -> HodgeTable:
    """L3 up to ``l2.gmax``, by solving the mixed-degree relation on the rows
    of the L2 table given.

    The genus-g instance of the relation involves L3(i) and L2(i) for
    i <= g; the i = g weight -2 C(2g+3, 2) is nonzero, so it can be
    solved for L3(g) once all lower entries are known.  No seed value is
    assumed: g = 0 already determines L3(0) = 1.

    Both rows are summed in integers: L2 as ``l2.L_int`` and the L3 solved
    so far over its running lcm, by ``_append_over_lcm`` as in ``series.div``,
    so each genus takes two integer dot products; the L3 values are read off
    the finished row.
    """
    _check_roles(l2)
    l2_nums, l2_den = l2.L_int
    nums: list[int] = []
    den = 1
    for g in range(l2.gmax + 1):
        weights = _l3_weights(g)
        known3 = sum(a * num for (a, _), num in zip(weights, nums))
        known2 = sum(b * num for (_, b), num in zip(weights, l2_nums))
        den = _append_over_lcm(
            nums, den, -(known3 * l2_den + known2 * den), l2_den * den * weights[g][0]
        )
    return HodgeTable(degree=3, L=[Fraction(num, den) for num in nums])


def _genus_for_order(degree: int, order: int) -> int:
    """The genus an L or I row, at exponent 2g + d - 1, needs to fill ``order``."""
    return max(0, (order - degree + 1) // 2)


def _row_series(
    table: HodgeTable, row: tuple[Fraction, ...], shift: int, order: int
) -> TruncatedSeries:
    """EGF of one of the table's rows, row g at exponent 2g + d - 1 + shift.

    L and I have shift 0 and J, at 2g + 2d - 2, has shift d - 1; the row
    must reach the genus of the last exponent at or below ``order``.
    """
    needed = _genus_for_order(table.degree, order - shift)
    if len(row) <= needed:
        raise ValueError(
            f"order {order} needs the degree-{table.degree} table to reach genus "
            f"{needed}; it reaches genus {len(row) - 1}"
        )
    start = table.degree - 1 + shift
    return TruncatedSeries.from_egf(
        ((2 * g + start, value) for g, value in enumerate(row)
         if 2 * g + start <= order),
        order,
    )


def l_series(table: HodgeTable, order: int) -> TruncatedSeries:
    """EGF of the table's L-values, truncated at the given order."""
    return _row_series(table, table.L, 0, order)


class TableSource:
    """The one source of tables and closed forms for one request.

    ``tables(degree, gmax=0)`` returns the degree's table to at least the
    larger of ``gmax`` and the genus its L row needs to fill ``order``.  A
    table solved earlier serves while it reaches that far, since rows are
    prefix-stable.  Otherwise L2 is solved at that genus unless the source's
    L2 already reaches it, and L3 is solved from the source's L2, so it
    takes L2's genus.

    ``tables.closed_form(row, degree, n)`` returns the closed form of the
    degree's ``row`` ("I", "L" or "J") to order n, the one derivation of L and
    J from I_d.  Each degree's I_d is built by ``conjecture_series`` at the
    order first asked; every request reads a truncation of it, exact since
    the series is prefix-stable, and one past the order built builds it
    again.  Nothing outlives the source.  Tables, and L rows, exist
    at degrees 2 and 3 only; any other request raises ValueError.
    """

    def __init__(self, order: int):
        self._order = order
        self._solved: dict[int, HodgeTable] = {}
        self._closed: dict[int, TruncatedSeries] = {}

    def __call__(self, degree: int, gmax: int = 0) -> HodgeTable:
        if degree not in _I_PER_L:
            raise ValueError(f"tables are solved at degree 2 or 3, not {degree}")
        solved = self._solved
        reach = max(gmax, _genus_for_order(degree, self._order))
        table = solved.get(degree)
        if table is None or table.gmax < reach:
            l2 = solved.get(2)
            if l2 is None or l2.gmax < reach:
                l2 = solved[2] = l2_table(reach)
            table = solved[degree] = l2 if degree == 2 else l3_table(l2)
        return table

    def closed_form(self, row: str, degree: int, n: int) -> TruncatedSeries:
        if row not in ("I", "L", "J") or (row == "L" and degree not in _I_PER_L):
            raise ValueError(f"no closed form for row {row!r} at degree {degree}")
        i_d = self._closed.get(degree)
        if i_d is None or i_d.order < n:
            i_d = conjecture_series(degree, n)
            self._closed[degree] = i_d
        i_d = i_d.truncate(n)
        if row == "L":
            return i_d / _I_PER_L[degree]
        if row == "J":
            return degree * i_d**2
        return i_d


def conjecture_series(d: int, N: int) -> TruncatedSeries:
    """(-1)^(d-1) (1/d) (2 sin(x/2))^d / (2 sin(dx/2)) to order N.

    Proven to agree with i_series for d in {2, 3}; for d >= 4 the output is
    conjectural data.  d = 1 collapses to the constant series 1.  The
    numerator is ``_sine_power``'s finite sum, O(d N) integer work; the
    division by 2 sin(dx/2), one series division, is the main cost.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    if N < d - 1:
        raise ValueError("order must be >= d - 1")
    # The quotient loses one order to the denominator's valuation.
    work = N + 1
    numerator = _sine_power(d, work)
    denominator = 2 * sin_scaled(Fraction(d, 2), work)
    sign = (-1) ** (d - 1)
    return div(numerator, denominator) * Fraction(sign, d)


def _sine_power(d: int, N: int) -> TruncatedSeries:
    """(2 sin(x/2))^d to order N, as a finite trigonometric sum.

    (2 sin(x/2))^d = (-i)^d sum_k (-1)^k C(d, k) e^(i(d-2k)x/2), which is
    sum_k (-1)^(k + d//2) C(d, k) sin((d-2k)x/2) for odd d and the same sum
    of cosines for even d.  So m! times its coefficient of x^m is zero unless
    m = d (mod 2), and otherwise
        (-1)^((m-d)/2) sum_{k=0..d} (-1)^k C(d, k) (d-2k)^m / 2^m,
    which vanishes for m < d: d! times the central factorial numbers, up to
    sign (Riordan, Combinatorial Identities, 1968).  ``_trig_sum`` sums it in
    O(d) integer work per coefficient.
    """
    terms = [((-1) ** (k + d // 2) * comb(d, k), Fraction(d - 2 * k, 2)) for k in range(d + 1)]
    return _trig_sum(d % 2, terms, N)


def closed_form_L2(N: int) -> TruncatedSeries:
    """-2 I_2(x) to order N: the EGF of L2, from ``TableSource.closed_form``."""
    return TableSource(0).closed_form("L", 2, N)


def closed_form_L3(N: int) -> TruncatedSeries:
    """(9/2) I_3(x) to order N: the EGF of L3, from ``TableSource.closed_form``."""
    return TableSource(0).closed_form("L", 3, N)


def i_series(table: HodgeTable, order: int) -> TruncatedSeries:
    """EGF of the one-point invariants I_d(g) of the table's degree."""
    return _row_series(table, table.I, 0, order)


def j_series(table: HodgeTable, order: int) -> TruncatedSeries:
    """EGF of the J row: the two-point invariants J_d(g) at x^(2g+2d-2)."""
    return _row_series(table, table.J, table.degree - 1, order)


def p3_full_series(N: int) -> TruncatedSeries:
    """(1 - cos 3x)/9: the alternating EGF of the 9^g counts."""
    return _trig_sum(0, [(Fraction(1, 9), 0), (Fraction(-1, 9), 3)], N)


def p3_trans_series(N: int) -> TruncatedSeries:
    """(3 sin x - sin 3x)/6: the alternating EGF of the (9^(g+1)-1)/2 counts."""
    return _trig_sum(1, [(Fraction(1, 2), 1), (Fraction(-1, 6), 3)], N)


def j_relation_check(g: int) -> bool:
    """Compare the table's J2(g), the convolution ``_j_terms``, with the
    coefficient of the J closed form 2 * I_2(x)^2, read off
    ``TableSource.closed_form``.  No command calls it; the tests and the
    benchmark's tracer do."""
    _check_genus(g)
    order = 2 * g + 2
    closed = TableSource(0).closed_form("J", 2, order)
    return l2_table(g).J[g] == egf_value(closed, order)


def ode_residual_deg2(l2: HodgeTable, N: int) -> TruncatedSeries:
    """L2'(x) sin(x) - L2(x) to order N; zero for the true table.

    The table must reach order N + 1; a perturbed one (made with
    ``HodgeTable(degree, L)``) shows up as a nonzero residual.
    """
    if N < 2:
        raise ValueError("order must be >= 2")
    _check_roles(l2)
    l2_series = l_series(l2, N + 1)
    return l2_series.derivative() * sin_scaled(1, N) - l2_series.truncate(N)


def ode_residual_deg3(l2: HodgeTable, l3: HodgeTable, N: int) -> TruncatedSeries:
    """(2/3) P3_full-series * L3' - P3_trans-series * L2' to order N.

    Both tables must reach order N + 1.
    """
    if N < 2:
        raise ValueError("order must be >= 2")
    _check_roles(l2, l3)
    full_part = Fraction(2, 3) * p3_full_series(N) * l_series(l3, N + 1).derivative()
    trans_part = p3_trans_series(N) * l_series(l2, N + 1).derivative()
    return full_part - trans_part
