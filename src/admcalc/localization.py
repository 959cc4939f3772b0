"""Reduced fixed-locus contributions and the identities they must satisfy.

Each torus-fixed locus of a cover space contributes a term of the form
(rational coefficient) * hbar^k, where the coefficient already has all
branched-cover counts (P values) and lambda-class integrals (L values)
substituted.  Three families are catalogued:

* degree 2, linearization A: a single locus worth -L2(g)/2;
* degree 2, linearization B: g+1 loci whose sum must again be -L2(g)/2;
* degree 3, auxiliary integral: 2g+2 loci, all proportional to 1/hbar,
  whose sum must vanish outright (the integral is zero for dimension
  reasons) -- this is exactly the relation that determines L3;
* two-point loci at degree 2: sum to J2(g).

The raw equivariant data (Hodge bundle weights, psi-class denominators,
normal bundle factors) is not modelled; only the reduced outcome per locus
is, which is what the identities consume.  The reduced outcomes are the
summands of the relations in ``hodge`` (``_l2_terms``, ``_l3_weights``,
``_j_terms``): a catalog attaches a locus kind, genera and an hbar exponent
to each summand.  So the linearization check (acceptance criterion 5) and
the vanishing check (criterion 6) restate the L2 and L3 recursions, and
``j2_from_loci`` sums the convolution that builds the J2 table; they catch
a table that disagrees with its own recursion, not an error in the
recursion itself.

A catalog term, ``FixedLocusTerm``, is a NamedTuple, so it compares as the
plain tuple of its fields.  Each identity sums its catalog's coefficients in
integers over their lcm denominator and builds one Fraction.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .hodge import HodgeTable, _j_terms, _l2_terms, _l3_weights, p2_closed
from .series import _integer_terms

__all__ = [
    "LocusKind",
    "FixedLocusTerm",
    "enumerate_loci",
    "deg2_linA",
    "deg2_linB",
    "deg3_aux_residual",
    "j2_from_loci",
]


class LocusKind(Enum):
    """Structural tag for a fixed locus.

    The F_{a,b} notation lists the genera of the cover components sitting
    over the two torus-fixed points of the base; a dot marks a side with no
    positive-dimensional component, an extra slot a rational bridge through
    a node.
    """

    DEG2_A_MAIN = "linA:F_{g,.}"
    DEG2_B_INFTY = "linB:F_{.,g}"
    DEG2_B_SPLIT = "linB:F_{g1,g2}"
    DEG2_B_MAIN = "linB:F_{g,.}"
    AUX_MAIN_ZERO = "aux:F_{g,0}"
    AUX_SPLIT = "aux:F_{g1,g2}"
    AUX_ZERO_MAIN = "aux:F_{0,g}"
    AUX_MAIN_NODE = "aux:F_{g,.,.}"
    AUX_SPLIT_NODE = "aux:F_{g1,g2,x}"
    AUX_ZERO_MAIN_NODE = "aux:F_{0,g,.}"
    J_LEFT = "J:g-left"
    J_SPLIT = "J:g1g2-split"
    J_RIGHT = "J:g-right"


class FixedLocusTerm(NamedTuple):
    """One locus of a catalog: its degree, kind, genera, coefficient and
    hbar exponent."""

    degree: int
    kind: LocusKind
    genera: tuple[int, ...]
    coefficient: Fraction
    hbar_exponent: int


def _deg2_linA_terms(g: int, l2: HodgeTable) -> list[FixedLocusTerm]:
    # Single locus: genus-g component over 0, its lambda-lambda-psi sum
    # giving L2(g), with overall weight -1/2: the table's I2(g).
    return [FixedLocusTerm(2, LocusKind.DEG2_A_MAIN, (g,), l2.I[g], 0)]


def _deg2_linB_terms(g: int, l2: HodgeTable) -> list[FixedLocusTerm]:
    terms = [
        # 2g+1 copies of the space with the genus on the far side.
        FixedLocusTerm(2, LocusKind.DEG2_B_INFTY, (g,), (2 * g + 1) * l2.I[g], 0)
    ]
    # Genus split g1 = g-i over 0 (psi-power side, count P2) and i over
    # infinity (L-side); 2i of the 2g+1 free branch points go to the L side.
    # At i = 0 everything sits over 0 and the far side is the seed L2(0).
    # Each locus is an L2-recursion summand times P2(g1) = 1/2, so the sum
    # is -L2(g)/2 exactly when the recursion holds.
    recursion = _l2_terms(g, l2.L)
    for i in reversed(range(g)):
        g1 = g - i
        if i > 0:
            kind, genera = LocusKind.DEG2_B_SPLIT, (g1, i)
        else:
            kind, genera = LocusKind.DEG2_B_MAIN, (g,)
        coeff = recursion[i] * p2_closed(g1)
        terms.append(FixedLocusTerm(2, kind, genera, coeff, 0))
    return terms


def _deg3_aux_terms(g: int, l2: HodgeTable, l3: HodgeTable) -> list[FixedLocusTerm]:
    assert l3.P_full is not None and l3.P_trans is not None
    weights = _l3_weights(g, l3.P_full, l3.P_trans)
    terms = []
    # Full-ramification family: psi-power side of genus g1 = g-i counted by
    # P3_full, lambda side of genus i contributing L3(i); 2i+1 of the 2g+3
    # free points sit on the lambda side, gluing multiplicity 3 and weight
    # 2/9 already folded into the displayed 2/3.
    for i, (a, _) in enumerate(weights):
        g1 = g - i
        if g1 == 0 and g > 0:
            kind = LocusKind.AUX_ZERO_MAIN
        elif i == 0:
            kind = LocusKind.AUX_MAIN_ZERO
        else:
            kind = LocusKind.AUX_SPLIT
        terms.append(FixedLocusTerm(3, kind, (g1, i), a * l3.L[i], -1))
    # Node-bridge family: transposition-count side of genus g1 = g-i counted
    # by P3_trans, double-cover lambda side of genus i contributing L2(i).
    for i, (_, b) in enumerate(weights):
        g1 = g - i
        if g1 == 0 and g > 0:
            kind = LocusKind.AUX_ZERO_MAIN_NODE
            genera: tuple[int, ...] = (0, g)
        elif i == 0:
            kind = LocusKind.AUX_MAIN_NODE
            genera = (g,)
        else:
            kind = LocusKind.AUX_SPLIT_NODE
            genera = (g1, i)
        terms.append(FixedLocusTerm(3, kind, genera, b * l2.L[i], -1))
    return terms


def _j_loci(g: int, l2: HodgeTable) -> list[FixedLocusTerm]:
    # One locus per split i (genus over 0) + (g-i) (genus over infinity),
    # worth the J2 convolution summand 2 C(2g+2, 2i+1) I2(i) I2(g-i).  At
    # g = 0 the two single-sided end loci are one and the same, so exactly
    # one term is emitted.
    summands = _j_terms(2, g, l2.I)
    terms = []
    for i in reversed(range(g + 1)):
        if i == g:
            kind, genera = LocusKind.J_LEFT, (g,)
        elif i == 0:
            kind, genera = LocusKind.J_RIGHT, (g,)
        else:
            kind, genera = LocusKind.J_SPLIT, (i, g - i)
        terms.append(FixedLocusTerm(2, kind, genera, summands[i], 0))
    return terms


def enumerate_loci(
    g: int,
    family: str,
    l2: HodgeTable,
    l3: HodgeTable | None = None,
) -> list[FixedLocusTerm]:
    """Complete reduced-term catalog for one identity at one genus.

    Families: ``linA`` and ``linB`` (degree 2, both linearizations of the
    one-point integral), ``J`` (degree 2, two-point integral), ``aux``
    (degree 3, vanishing auxiliary integral); the family fixes the degree.
    Every family reads the L2 table ``l2``; ``aux`` also reads the L3 table
    ``l3`` and the P rows it was solved with.  The tables must reach genus
    g; a perturbed table (made with ``dataclasses.replace``) probes what the
    identity detects.
    """
    if g < 0:
        raise ValueError("genus must be >= 0")
    if family not in ("linA", "linB", "J", "aux"):
        raise ValueError(f"unknown family {family!r}")
    if family == "aux" and l3 is None:
        raise ValueError("the aux family needs the L3 table")
    if l2.gmax < g or (family == "aux" and l3.gmax < g):
        raise ValueError(f"the tables must reach genus {g}")
    if family == "linA":
        return _deg2_linA_terms(g, l2)
    if family == "linB":
        return _deg2_linB_terms(g, l2)
    if family == "J":
        return _j_loci(g, l2)
    return _deg3_aux_terms(g, l2, l3)


def _loci_sum(
    g: int, family: str, l2: HodgeTable, l3: HodgeTable | None = None
) -> Fraction:
    """Sum of the coefficients of one family's catalog at genus g."""
    terms = enumerate_loci(g, family, l2, l3)
    numerators, den = _integer_terms([t.coefficient for t in terms])
    return Fraction(sum(numerator for _, numerator in numerators), den)


def deg2_linA(g: int, l2: HodgeTable) -> Fraction:
    """One-point degree-2 integral under linearization A: -L2(g)/2."""
    return _loci_sum(g, "linA", l2)


def deg2_linB(g: int, l2: HodgeTable) -> Fraction:
    """Same integral under linearization B: the g+1 locus contributions."""
    return _loci_sum(g, "linB", l2)


def deg3_aux_residual(g: int, l2: HodgeTable, l3: HodgeTable) -> Fraction:
    """Total 1/hbar coefficient of the auxiliary integral; must be zero."""
    return _loci_sum(g, "aux", l2, l3)


def j2_from_loci(g: int, l2: HodgeTable) -> Fraction:
    """J2(g) as the sum over the two-point fixed-locus catalog."""
    return _loci_sum(g, "J", l2)
