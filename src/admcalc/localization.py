"""Reduced fixed-locus contributions and the identities they must satisfy.

Each torus-fixed locus of a cover space contributes a term of the form
(rational coefficient) * hbar^k, where the coefficient already has all
branched-cover counts (P values) and lambda-class integrals (L values)
substituted.  Four identities are stated, each on its own catalog:

* ``deg2_linA``, degree 2, linearization A: a single locus worth -L2(g)/2;
* ``deg2_linB``, degree 2, linearization B: g+1 loci whose sum must again
  be -L2(g)/2;
* ``deg3_aux_residual``, degree 3, auxiliary integral: 2g+2 loci, all
  proportional to 1/hbar, whose sum must vanish outright (the integral is
  zero for dimension reasons) -- this is exactly the relation that
  determines L3;
* ``j2_from_loci``, the two-point loci at degree 2: they sum to J2(g).

The raw equivariant data (Hodge bundle weights, psi-class denominators,
normal bundle factors) is not modelled; only the reduced outcome per locus
is, which is what the identities consume.  A catalog is the list of those
outcomes, one coefficient per locus: the summands of a relation in
``hodge`` (``_l2_terms``, ``_l3_weights``, ``_j_terms``), with the locus of
each named in a comment beside its builder or call, and the cover counts are the
closed forms there; all are looked up on ``hodge`` when called, as the tables
look them up.  So the linearization check (acceptance criterion 5) and the
vanishing check (criterion 6) restate the L2 and L3 recursions, and
``j2_from_loci`` sums the terms that build the J2 table,
``hodge._j_numerators``; they catch a table that disagrees with its own
recursion, not an error in the recursion itself.

A catalog builder checks the genus and the tables it reads, states one
denominator and yields each locus as an integer numerator over it, read off
the tables' integer rows (``L_int``, ``I_int``).  Each identity calls its
builder directly, adds those integers and builds one Fraction.
``enumerate_loci`` maps a family name to its builder and divides the
numerators out, one Fraction per locus.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import hodge
from .hodge import HodgeTable

__all__ = [
    "enumerate_loci",
    "deg2_linA",
    "deg2_linB",
    "deg3_aux_residual",
    "j2_from_loci",
]

# (numerators, denominator).  A numerator is a Fraction only where a patched
# relation or count makes it one; the sums below take that too.
Catalog = tuple[list[int], int]


def _check(g: int, l2: HodgeTable, l3: HodgeTable | None = None) -> None:
    # Every builder's guard, on the genus and the tables it reads.
    if g < 0:
        raise ValueError("genus must be >= 0")
    hodge._check_roles(l2, l3)
    if l2.gmax < g or (l3 is not None and l3.gmax < g):
        raise ValueError(f"the tables must reach genus {g}")


# F_{a,b} lists the genera of the cover components over the two torus-fixed
# points of the base, 0 and infinity; a dot marks a side with no
# positive-dimensional component, an extra slot a rational bridge through a
# node.  The genera of every locus of a catalog sum to g.


def _deg2_linA_terms(g: int, l2: HodgeTable) -> Catalog:
    # The single locus F_{g,.}: its lambda-lambda-psi sum gives L2(g), with
    # overall weight -1/2: the table's I2(g).
    _check(g, l2)
    i_nums, i_den = l2.I_int
    return [i_nums[g]], i_den


def _deg2_linB_terms(g: int, l2: HodgeTable) -> Catalog:
    # First F_{.,g}: 2g+1 copies of the space with the genus over infinity.
    # Then F_{g-i,i}, i = g-1 down to 0: the psi-power side of genus g-i
    # over 0 carries the count P2(g-i) = 1/2, the L side of genus i over
    # infinity the value L2(i) (at i = 0, F_{g,.}, the seed L2(0)); 2i of the
    # 2g+1 free branch points go to the L side.  Each locus is an L2-recursion
    # summand times P2, so the sum is -L2(g)/2 exactly when it holds.
    _check(g, l2)
    l_nums, l_den = l2.L_int
    i_nums, i_den = l2.I_int
    recursion = hodge._l2_terms(g, l_nums)  # over l_den
    loci = [(recursion[i], hodge.p2_closed(g - i)) for i in reversed(range(g))]
    den = lcm(l_den, i_den) * lcm(*(count.denominator for _, count in loci))
    return [(2 * g + 1) * i_nums[g] * (den // i_den)] + [
        term * count.numerator * (den // (l_den * count.denominator))
        for term, count in loci
    ], den


def _deg3_aux_terms(g: int, l2: HodgeTable, l3: HodgeTable) -> Catalog:
    # Every aux locus sits at hbar^-1.  First the full-ramification family
    # F_{g-i,i}, i = 0..g: the psi-power side of genus g-i carries the count
    # P3_full(g-i), the lambda side of genus i the value L3(i); 2i+1 of the
    # 2g+3 free points sit on the lambda side, gluing multiplicity 3 and
    # weight 2/9 already folded into the relation's 2/3.  Then the node-bridge
    # family F_{g-i,i,x} (F_{g,.,.} at i = 0): the transposition side carries
    # P3_trans(g-i), the double-cover lambda side of genus i the value L2(i).
    # The weights are those of 3 times the relation, so the catalog is over
    # 3 times the rows' common denominator.
    _check(g, l2, l3)
    weights = hodge._l3_weights(g)
    l2_nums, l2_den = l2.L_int
    l3_nums, l3_den = l3.L_int
    den = lcm(l2_den, l3_den)
    l2_scale, l3_scale = den // l2_den, den // l3_den
    return [a * l3_nums[i] * l3_scale for i, (a, _) in enumerate(weights)] + [
        b * l2_nums[i] * l2_scale for i, (_, b) in enumerate(weights)
    ], 3 * den


def _deg2_j_terms(g: int, l2: HodgeTable) -> Catalog:
    # One locus F_{i,g-i} per split, worth the J2 convolution summand
    # 2 C(2g+2, 2i+1) I2(i) I2(g-i) (a palindrome in i).  The ends are the
    # single-sided loci F_{g,.} and F_{.,g}; at g = 0 they are one and the
    # same, so exactly one term is emitted.  The J2 row sums the same terms.
    _check(g, l2)
    return hodge._j_numerators(l2, g)


_FAMILIES = {"linA": _deg2_linA_terms, "linB": _deg2_linB_terms,
             "J": _deg2_j_terms, "aux": _deg3_aux_terms}


def enumerate_loci(
    g: int, family: str, l2: HodgeTable, l3: HodgeTable | None = None
) -> list[Fraction]:
    """The reduced catalog of one identity at one genus, a coefficient per locus.

    Families: ``linA`` and ``linB`` (degree 2, both linearizations of the
    one-point integral), ``J`` (degree 2, two-point integral), ``aux``
    (degree 3, vanishing auxiliary integral); the family fixes the degree.
    Every family reads the L2 table ``l2``; ``aux`` also reads the L3 table
    ``l3``.  The cover counts come from their closed forms in ``hodge``, as
    they do for the tables.  Each table must have the degree of its role and
    reach genus g; a perturbed table (made with ``HodgeTable(degree, L)``)
    probes what the identity detects.
    """
    build = _FAMILIES.get(family)
    if build is None:
        raise ValueError(f"unknown family {family!r}")
    if build is _deg3_aux_terms and l3 is None:
        raise ValueError("the aux family needs the L3 table")
    numerators, den = build(g, l2, l3) if build is _deg3_aux_terms else build(g, l2)
    return [Fraction(numerator, den) for numerator in numerators]


def _total(numerators: list[int], den: int) -> Fraction:
    return Fraction(sum(numerators), den)


def deg2_linA(g: int, l2: HodgeTable) -> Fraction:
    """One-point degree-2 integral under linearization A: -L2(g)/2."""
    return _total(*_deg2_linA_terms(g, l2))


def deg2_linB(g: int, l2: HodgeTable) -> Fraction:
    """Same integral under linearization B: the g+1 locus contributions."""
    return _total(*_deg2_linB_terms(g, l2))


def deg3_aux_residual(g: int, l2: HodgeTable, l3: HodgeTable) -> Fraction:
    """Total 1/hbar coefficient of the auxiliary integral; must be zero."""
    return _total(*_deg3_aux_terms(g, l2, l3))


def j2_from_loci(g: int, l2: HodgeTable) -> Fraction:
    """J2(g) as the sum over the two-point fixed-locus catalog."""
    return _total(*_deg2_j_terms(g, l2))


