"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line on success (pytest shows it with -s or
on failure); an assertion failure marks the criterion failed.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

from admcalc.hodge import (
    closed_form_L2,
    closed_form_L3,
    conjecture_series,
    i_series,
    j_series,
    l2_table,
    l3_table,
    ode_residual_deg2,
    ode_residual_deg3,
    p2_closed,
    p3_full_closed,
    p3_trans_closed,
)
from admcalc.hurwitz import (
    BranchProfile,
    CycleType,
    hurwitz_count,
    p2,
    p3_full,
    p3_trans,
)
from admcalc.localization import (
    deg2_linA,
    deg2_linB,
    deg3_aux_residual,
    j2_from_loci,
)
from admcalc.series import TruncatedSeries, cos_scaled, div, egf_value, sin_scaled

F = Fraction


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_deg2_recursion_vs_closed_form():
    started = time.perf_counter()
    table = l2_table(25)
    closed = closed_form_L2(51)
    assert table.L[0] == F(1, 2)
    assert table.L[1] == F(1, 4)
    assert table.L[2] == F(1, 2)
    for g in range(26):
        assert table.L[g] == egf_value(closed, 2 * g + 1), f"L2({g})"
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(1, f"L2 recursion = tan(x/2) coefficients for g<=25 ({elapsed:.2f}s)")


def test_criterion_02_deg3_recursion_vs_closed_form():
    table = l3_table(25)
    closed = closed_form_L3(52)
    assert table.L[0] == 1
    assert table.L[1] == 3
    for g in range(26):
        assert table.L[g] == egf_value(closed, 2 * g + 2), f"L3({g})"
    report(2, "L3 recursion = (9/2)(1/(1+2cos x) - 1/3) coefficients for g<=25")


def test_criterion_03_conjecture_to_order_51():
    assert conjecture_series(1, 51) == TruncatedSeries.one(51)
    for d in (2, 3):
        assert conjecture_series(d, 51) == i_series(d, 51), f"degree {d}"
    report(3, "conjecture series = table series to order 51 for d in {1,2,3}")


def test_criterion_04_hurwitz_brute_force():
    started = time.perf_counter()
    for g in range(9):
        assert p3_full(g) == p3_full_closed(g), f"p3_full({g})"
    for g in range(8):
        assert p3_trans(g) == p3_trans_closed(g), f"p3_trans({g})"
    for g in range(11):
        assert p2(g) == p2_closed(g), f"p2({g})"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    report(4, f"brute-force counts match closed forms ({elapsed:.1f}s)")


def test_criterion_05_two_linearizations_agree():
    t2 = l2_table(25)
    for g in range(26):
        assert deg2_linA(g, l2=t2) == deg2_linB(g, l2=t2), f"g={g}"
    report(5, "linearization A = linearization B for g<=25")


def test_criterion_06_auxiliary_integral_vanishes():
    t2, t3 = l2_table(25), l3_table(25)
    for g in range(26):
        assert deg3_aux_residual(g, l2=t2, l3=t3) == 0, f"g={g}"
    report(6, "auxiliary-integral residual = 0 for g<=25")


def test_criterion_07_ode_residuals_vanish_to_order_41():
    assert ode_residual_deg2(41).is_zero()
    assert ode_residual_deg3(41).is_zero()
    report(7, "both ODE residual series vanish identically to order 41")


def test_criterion_08_multiple_cover_coefficients():
    assert j_series(2, 2).coeff(2) == F(1, 8)
    assert j_series(3, 4).coeff(4) == F(1, 27)
    report(8, "lowest J coefficients are 1/8 and 1/27 (the 1/d^3 law)")


def test_criterion_09_j_route_equivalence():
    t2 = l2_table(15)
    tan_squared = closed_form_L2(32) ** 2
    for g in range(16):
        expected = egf_value(tan_squared, 2 * g + 2) / 2
        assert j2_from_loci(g, l2=t2) == expected, f"g={g}"
    trig = div(
        F(16, 3) * sin_scaled(F(1, 2), 32) ** 6,
        sin_scaled(F(3, 2), 32) ** 2,
    )
    assert j_series(3, 30) == trig
    report(9, "locus J2 = tan^2 route for g<=15; J3 series = trig closed form to order 30")


def test_criterion_10_property_suites():
    rng = random.Random(2026)

    def random_series(order):
        return TruncatedSeries(
            [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(order + 1)]
        )

    # Series algebra: Leibniz, Pythagoras, division round-trip.
    for _ in range(25):
        order = rng.randint(2, 9)
        f, g = random_series(order), random_series(order)
        assert (f * g).derivative() == (
            f.derivative() * g.truncate(order - 1)
            + f.truncate(order - 1) * g.derivative()
        )
        unit = g if g.constant_term else g + 1
        assert div(f * unit, unit) == f
    for a in (F(1, 2), 1, F(3, 2), 3):
        s, c = sin_scaled(a, 13), cos_scaled(a, 13)
        assert s * s + c * c == TruncatedSeries.one(13)

    # Hurwitz: profile-order symmetry and integrality, exhaustively small.
    partitions = {2: [(2,), (1, 1)], 3: [(3,), (2, 1), (1, 1, 1)]}
    for d in (2, 3):
        for n in (2, 3, 4):
            for multiset in combinations_with_replacement(partitions[d], n):
                counts = set()
                for arrangement in set(permutations(multiset)):
                    prof = BranchProfile(
                        d, tuple(CycleType(t) for t in arrangement)
                    )
                    value = hurwitz_count(prof)
                    counts.add(value)
                    assert (value * math.factorial(d)).denominator == 1
                assert len(counts) == 1

    # Parity of every generating function in the catalog.
    i2, i3 = i_series(2, 21), i_series(3, 21)
    j2, j3 = j_series(2, 21), j_series(3, 21)
    assert all(i2.coeff(k) == 0 for k in range(0, 22, 2))
    for s in (i3, j2, j3):
        assert all(s.coeff(k) == 0 for k in range(1, 22, 2))
    report(10, "series algebra, Hurwitz symmetry/integrality, parity all hold")
