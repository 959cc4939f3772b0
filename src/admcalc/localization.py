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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .hodge import (
    HodgeTable,
    _j_terms,
    _l2_terms,
    _l3_weights,
    l2_table,
    l3_table,
    p2_closed,
)

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


@dataclass(frozen=True)
class FixedLocusTerm:
    degree: int
    kind: LocusKind
    genera: tuple[int, ...]
    coefficient: Fraction
    hbar_exponent: int


_FAMILIES = {2: ("linA", "linB", "J"), 3: ("aux",)}


def _deg2_linA_terms(g: int, l2: HodgeTable) -> list[FixedLocusTerm]:
    # Single locus: genus-g component over 0, its lambda-lambda-psi sum
    # giving L2(g), with overall weight -1/2.
    return [
        FixedLocusTerm(2, LocusKind.DEG2_A_MAIN, (g,), -l2.L[g] / 2, 0)
    ]


def _deg2_linB_terms(g: int, l2: HodgeTable) -> list[FixedLocusTerm]:
    terms = [
        # 2g+1 copies of the space with the genus on the far side.
        FixedLocusTerm(
            2, LocusKind.DEG2_B_INFTY, (g,), -Fraction(2 * g + 1, 2) * l2.L[g], 0
        )
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
    degree: int,
    g: int,
    family: str,
    l2: HodgeTable | None = None,
    l3: HodgeTable | None = None,
) -> list[FixedLocusTerm]:
    """Complete reduced-term catalog for one identity at one genus.

    Families: ``linA`` and ``linB`` (degree 2, both linearizations of the
    one-point integral), ``J`` (degree 2, two-point integral), ``aux``
    (degree 3, vanishing auxiliary integral).  Tables may be passed in to
    reuse work or to probe perturbed inputs; they must cover genus g.
    """
    if g < 0:
        raise ValueError("genus must be >= 0")
    if degree not in _FAMILIES:
        raise ValueError(f"no locus catalog for degree {degree}")
    if family not in _FAMILIES[degree]:
        raise ValueError(f"unknown family {family!r} for degree {degree}")
    if l2 is None:
        l2 = l2_table(g)
    if family == "linA":
        return _deg2_linA_terms(g, l2)
    if family == "linB":
        return _deg2_linB_terms(g, l2)
    if family == "J":
        return _j_loci(g, l2)
    if l3 is None:
        l3 = l3_table(g)
    return _deg3_aux_terms(g, l2, l3)


def deg2_linA(g: int, l2: HodgeTable | None = None) -> Fraction:
    """One-point degree-2 integral under linearization A: -L2(g)/2."""
    terms = enumerate_loci(2, g, "linA", l2=l2)
    return sum((t.coefficient for t in terms), Fraction(0))


def deg2_linB(g: int, l2: HodgeTable | None = None) -> Fraction:
    """Same integral under linearization B: the g+1 locus contributions."""
    terms = enumerate_loci(2, g, "linB", l2=l2)
    return sum((t.coefficient for t in terms), Fraction(0))


def deg3_aux_residual(
    g: int, l2: HodgeTable | None = None, l3: HodgeTable | None = None
) -> Fraction:
    """Total 1/hbar coefficient of the auxiliary integral; must be zero."""
    terms = enumerate_loci(3, g, "aux", l2=l2, l3=l3)
    return sum((t.coefficient for t in terms), Fraction(0))


def j2_from_loci(g: int, l2: HodgeTable | None = None) -> Fraction:
    """J2(g) as the sum over the two-point fixed-locus catalog."""
    terms = enumerate_loci(2, g, "J", l2=l2)
    return sum((t.coefficient for t in terms), Fraction(0))
