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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .series import TruncatedSeries, cos_scaled, div, egf_value, sin_scaled

__all__ = [
    "HodgeTable",
    "p2_closed",
    "p3_full_closed",
    "p3_trans_closed",
    "l2_table",
    "l3_table",
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


@dataclass(frozen=True)
class HodgeTable:
    """Exact tables for one of the two computed degrees; row g is genus g.

    ``P_full``/``P_trans`` hold the branched-cover counts entering the
    degree-3 relation and are None at degree 2.
    """

    degree: int
    L: list[Fraction]
    I: list[Fraction]
    J: list[Fraction]
    P_full: list[Fraction] | None = None
    P_trans: list[Fraction] | None = None

    @property
    def gmax(self) -> int:
        return len(self.L) - 1


def p2_closed(g: int) -> Fraction:
    """Count of genus-g connected double covers (any g): always 1/2."""
    if g < 0:
        raise ValueError("genus must be >= 0")
    return Fraction(1, 2)


def p3_full_closed(g: int) -> Fraction:
    """Closed form 9^g for the triple-point branched-cover count."""
    if g < 0:
        raise ValueError("genus must be >= 0")
    return Fraction(9) ** g


def p3_trans_closed(g: int) -> Fraction:
    """Closed form (9^(g+1)-1)/2 for the all-simple branched-cover count."""
    if g < 0:
        raise ValueError("genus must be >= 0")
    return Fraction(9 ** (g + 1) - 1, 2)


# -- the relations -----------------------------------------------------------
#
# Each relation's per-i summands are written once, here.  The tables solve
# them; the fixed-locus catalogs in ``localization`` attach a locus to each
# summand, so their identities restate these relations.


def _l2_terms(g: int, L2: list[Fraction]) -> list[Fraction]:
    """Summands (-1)^(g-i+1) C(2g+1, 2i) L2(i), i < g, of 2g L2(g)."""
    return [(-1) ** (g - i + 1) * comb(2 * g + 1, 2 * i) * L2[i] for i in range(g)]


def _l3_weights(
    g: int, P_full: list[Fraction], P_trans: list[Fraction]
) -> list[tuple[Fraction, Fraction]]:
    """Weights (a_i, b_i), i <= g, of the relation sum a_i L3(i) + b_i L2(i) = 0."""
    return [
        (
            Fraction(2, 3) * comb(2 * g + 3, 2 * i + 1)
            * (-1) ** (g - i + 1) * P_full[g - i],
            comb(2 * g + 3, 2 * i) * (-1) ** (g - i) * P_trans[g - i],
        )
        for i in range(g + 1)
    ]


def _j_terms(d: int, g: int, I: list[Fraction]) -> list[Fraction]:
    """Summands d C(2g+2d-2, 2i+d-1) I_d(i) I_d(g-i), i <= g, of J_d(g).

    This is the EGF-product expansion of d * I_d^2: I_d(i) sits at exponent
    2i+d-1, so the binomial splits the 2g+2d-2 slots accordingly.
    """
    return [
        d * comb(2 * g + 2 * d - 2, 2 * i + d - 1) * I[i] * I[g - i]
        for i in range(g + 1)
    ]


def _j_values(d: int, I: list[Fraction]) -> list[Fraction]:
    return [sum(_j_terms(d, g, I)) for g in range(len(I))]


def l2_table(gmax: int) -> HodgeTable:
    """L2, I2, J2 for all genera up to gmax, from the recursion."""
    if gmax < 0:
        raise ValueError("gmax must be >= 0")
    L = [Fraction(1, 2)]
    for g in range(1, gmax + 1):
        L.append(sum(_l2_terms(g, L)) / (2 * g))
    I = [-value / 2 for value in L]
    return HodgeTable(degree=2, L=L, I=I, J=_j_values(2, I))


def l3_table(gmax: int) -> HodgeTable:
    """L3, I3, J3 up to gmax, by solving the mixed-degree relation.

    The genus-g instance of the relation involves L3(i) for i <= g; the
    i = g weight -(2/3) C(2g+3, 2) is nonzero, so it can be solved for L3(g)
    once all lower entries are known.  No seed value is assumed: g = 0
    already determines L3(0) = 1.
    """
    if gmax < 0:
        raise ValueError("gmax must be >= 0")
    L2 = l2_table(gmax).L
    P_full = [p3_full_closed(g) for g in range(gmax + 1)]
    P_trans = [p3_trans_closed(g) for g in range(gmax + 1)]
    L3: list[Fraction] = []
    for g in range(gmax + 1):
        weights = _l3_weights(g, P_full, P_trans)
        known = sum(a * l3 for (a, _), l3 in zip(weights, L3))
        known += sum(b * l2 for (_, b), l2 in zip(weights, L2))
        L3.append(-known / weights[g][0])
    I = [Fraction(2, 9) * value for value in L3]
    return HodgeTable(
        degree=3, L=L3, I=I, J=_j_values(3, I), P_full=P_full, P_trans=P_trans
    )


def _row_series(degree: int, row: list[Fraction], order: int) -> TruncatedSeries:
    # Both L-families, and so the I-families, sit at exponent 2g + d - 1.
    return TruncatedSeries.from_egf(
        (
            (2 * g + degree - 1, value)
            for g, value in enumerate(row)
            if 2 * g + degree - 1 <= order
        ),
        order,
    )


def l_series(table: HodgeTable, order: int) -> TruncatedSeries:
    """EGF of the table's L-values, truncated at the given order."""
    return _row_series(table.degree, table.L, order)


def _table_for_order(degree: int, order: int) -> HodgeTable:
    gmax = max(0, (order - degree + 1) // 2)
    return l2_table(gmax) if degree == 2 else l3_table(gmax)


def closed_form_L2(N: int) -> TruncatedSeries:
    """tan(x/2) to order N, computed as sin(x/2)/cos(x/2)."""
    if N < 1:
        raise ValueError("order must be >= 1")
    return div(sin_scaled(Fraction(1, 2), N), cos_scaled(Fraction(1, 2), N))


def closed_form_L3(N: int) -> TruncatedSeries:
    """(9/2)(1/(1+2 cos x) - 1/3) to order N.

    The denominator 1 + 2 cos x has constant term 3, so plain unit division
    applies; the equivalent 4 cos^2(x/2) - 1 form would give the same series.
    """
    if N < 1:
        raise ValueError("order must be >= 1")
    one = TruncatedSeries.one(N)
    inv = div(one, 2 * cos_scaled(1, N) + 1)
    return Fraction(9, 2) * (inv - Fraction(1, 3))


def conjecture_series(d: int, N: int) -> TruncatedSeries:
    """(-1)^(d-1) (1/d) (2 sin(x/2))^d / (2 sin(dx/2)) to order N.

    Proven to agree with i_series for d in {2, 3}; for d >= 4 the output is
    conjectural data.  d = 1 collapses to the constant series 1.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    if N < d - 1:
        raise ValueError("order must be >= d - 1")
    # The quotient loses one order to the denominator's valuation.
    work = N + 1
    numerator = (2 * sin_scaled(Fraction(1, 2), work)) ** d
    denominator = 2 * sin_scaled(Fraction(d, 2), work)
    sign = (-1) ** (d - 1)
    return div(numerator, denominator) * Fraction(sign, d)


def i_series(d: int, N: int) -> TruncatedSeries:
    """EGF of the one-point invariants I_d(g), from the tables."""
    if d not in (2, 3):
        raise ValueError("one-point tables exist only for degrees 2 and 3")
    return _row_series(d, _table_for_order(d, N).I, N)


def j_series(d: int, N: int) -> TruncatedSeries:
    """d times the square of i_series; the identity proven for d in {2, 3}."""
    if d not in (2, 3):
        raise ValueError("the square identity is only available for degrees 2 and 3")
    base = i_series(d, N)
    return d * base * base


def p3_full_series(N: int) -> TruncatedSeries:
    """(1 - cos 3x)/9: the alternating EGF of the 9^g counts."""
    return (1 - cos_scaled(3, N)) * Fraction(1, 9)


def p3_trans_series(N: int) -> TruncatedSeries:
    """(3 sin x - sin 3x)/6: the alternating EGF of the (9^(g+1)-1)/2 counts."""
    return (3 * sin_scaled(1, N) - sin_scaled(3, N)) * Fraction(1, 6)


def j_relation_check(g: int) -> bool:
    """Compare the binomial-sum J2(g) with the square-identity route.

    Both sides expand the same product 2 * I2^2, one as the J convolution
    the table uses and one as a series product, so this restates the table's
    J recursion rather than testing it against an independent route.
    """
    if g < 0:
        raise ValueError("genus must be >= 0")
    binomial_sum = sum(_j_terms(2, g, l2_table(g).I))
    return binomial_sum == egf_value(j_series(2, 2 * g + 2), 2 * g + 2)


def ode_residual_deg2(
    N: int, l2_series: TruncatedSeries | None = None
) -> TruncatedSeries:
    """L2'(x) sin(x) - L2(x) to order N; zero for the true table.

    Passing an explicit ``l2_series`` (order N+1) substitutes a candidate
    generating function, e.g. to confirm the residual detects perturbations.
    """
    if N < 2:
        raise ValueError("order must be >= 2")
    if l2_series is None:
        l2_series = l_series(_table_for_order(2, N + 1), N + 1)
    return l2_series.derivative() * sin_scaled(1, N) - l2_series.truncate(N)


def ode_residual_deg3(
    N: int,
    l3_series: TruncatedSeries | None = None,
    l2_series: TruncatedSeries | None = None,
) -> TruncatedSeries:
    """(2/3) P3_full-series * L3' - P3_trans-series * L2' to order N."""
    if N < 2:
        raise ValueError("order must be >= 2")
    if l3_series is None:
        l3_series = l_series(_table_for_order(3, N + 1), N + 1)
    if l2_series is None:
        l2_series = l_series(_table_for_order(2, N + 1), N + 1)
    full_part = Fraction(2, 3) * p3_full_series(N) * l3_series.derivative()
    trans_part = p3_trans_series(N) * l2_series.derivative()
    return full_part - trans_part
