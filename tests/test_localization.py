from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admcalc import hodge
from admcalc.hodge import HodgeTable, closed_form_L2, l2_table, l3_table
from admcalc.localization import (
    _loci_sum,
    deg2_linA,
    deg2_linB,
    deg3_aux_residual,
    enumerate_loci,
    j2_from_loci,
)
from admcalc.series import egf_value

F = Fraction


T2 = l2_table(12)
T3 = l3_table(T2)


def test_linA_values():
    assert [deg2_linA(g, T2) for g in range(3)] == [F(-1, 4), F(-1, 8), F(-1, 4)]


def test_linB_values():
    assert [deg2_linB(g, T2) for g in range(3)] == [F(-1, 4), F(-1, 8), F(-1, 4)]


def test_linearizations_agree():
    t2 = l2_table(12)
    for g in range(13):
        assert deg2_linA(g, l2=t2) == deg2_linB(g, l2=t2)


def test_term_counts():
    for g in (0, 1, 2, 4, 7):
        assert len(enumerate_loci(g, "linA", T2)) == 1
        assert len(enumerate_loci(g, "linB", T2)) == g + 1
        assert len(enumerate_loci(g, "aux", T2, T3)) == 2 * g + 2
        assert len(enumerate_loci(g, "J", T2)) == max(g + 1, 1)


def test_aux_residual_vanishes():
    t2 = l2_table(12)
    t3 = l3_table(t2)
    for g in range(13):
        assert deg3_aux_residual(g, l2=t2, l3=t3) == 0


def test_aux_residual_spot_structure():
    # g = 0: the relation collapses to -2 L3(0) + 2 = 0.
    assert sorted(enumerate_loci(0, "aux", T2, T3)) == [-2, 2]


def test_perturbed_p3_trans_breaks_vanishing(monkeypatch):
    # The tables are solved with the true counts; the catalog then reads a
    # wrong P3_trans(0) through ``hodge``, at every genus.
    t2 = l2_table(4)
    t3 = l3_table(t2)
    true = hodge.p3_trans_closed
    monkeypatch.setattr(hodge, "p3_trans_closed", lambda g: 5 if g == 0 else true(g))
    for g in range(5):
        assert deg3_aux_residual(g, l2=t2, l3=t3) != 0


def test_perturbed_l3_breaks_vanishing():
    t3 = l3_table(l2_table(4))
    bumped = HodgeTable(3, [t3.L[0], t3.L[1] + 1, *t3.L[2:]])
    assert deg3_aux_residual(1, l2=l2_table(4), l3=bumped) != 0


@pytest.mark.parametrize("k", [0, 1, 4])
def test_l3_table_solves_from_the_l2_rows_given(k):
    # L3(g) reads L2 rows 0..g only, and the vanishing relation holds for
    # whatever L2 row the L3 table was solved from.
    L = list(T2.L)
    L[k] += 1
    l2 = HodgeTable(2, L)
    l3 = l3_table(l2)
    assert l3.L[:k] == T3.L[:k]
    assert l3.L[k] != T3.L[k]
    for g in range(l2.gmax + 1):
        assert deg3_aux_residual(g, l2=l2, l3=l3) == 0


@pytest.mark.parametrize("k", [0, 1, 3])
def test_perturbed_l2_breaks_linearizations_and_j(k):
    # The linB and J catalogs read every L2/I2 row they use from the table
    # passed in, the seed row L2(0) included.
    t2 = l2_table(6)
    L = list(t2.L)
    L[k] += 1
    bumped = HodgeTable(2, L)
    tan_sq = closed_form_L2(14) ** 2
    assert any(deg2_linA(g, l2=bumped) != deg2_linB(g, l2=bumped) for g in range(k, 7))
    assert any(
        j2_from_loci(g, l2=bumped) != egf_value(tan_sq, 2 * g + 2) / 2
        for g in range(k, 7)
    )


def test_signs_at_unit_split():
    # The locus with genera (1, 1) of each split family at g = 2 has a pinned
    # sign and value: linB and J list it second, aux once per family, at
    # positions 1 and g + 2.
    assert enumerate_loci(2, "linB", T2)[1] == F(5, 4)
    assert enumerate_loci(2, "aux", T2, T3)[1] == 630
    assert enumerate_loci(2, "aux", T2, T3)[4] == -210
    assert enumerate_loci(2, "J", T2)[1] == F(5, 8)


def test_j_end_terms_fold_the_seed():
    # Both single-sided J loci reduce to (1/4)(2g+2) L2(g).
    t2 = l2_table(3)
    for g in (1, 2, 3):
        terms = enumerate_loci(g, "J", l2=t2)
        assert [terms[0], terms[-1]] == [F(2 * g + 2, 4) * t2.L[g]] * 2


def test_j_at_genus_zero_single_locus():
    assert enumerate_loci(0, "J", T2) == [F(1, 4)]


def test_j2_values():
    assert [j2_from_loci(g, T2) for g in range(3)] == [F(1, 4), F(1, 2), F(17, 8)]


def test_j2_matches_tangent_square():
    t2 = l2_table(8)
    tan_sq = closed_form_L2(18) ** 2
    for g in range(9):
        assert j2_from_loci(g, l2=t2) == egf_value(tan_sq, 2 * g + 2) / 2


def test_family_validation():
    with pytest.raises(ValueError, match="unknown family"):
        enumerate_loci(1, "linC", T2, T3)
    with pytest.raises(ValueError):
        enumerate_loci(-1, "J", T2)


def test_aux_needs_the_l3_table():
    with pytest.raises(ValueError, match="L3"):
        enumerate_loci(1, "aux", T2)


@pytest.mark.parametrize("family, degree", [("linA", 2), ("linB", 2), ("J", 2), ("aux", 3)])
def test_tables_must_reach_the_genus(family, degree):
    with pytest.raises(ValueError, match="reach genus 4"):
        enumerate_loci(4, family, l2_table(3), l3_table(l2_table(4)))
    if degree == 3:  # only the aux family reads the L3 table
        with pytest.raises(ValueError, match="reach genus 4"):
            enumerate_loci(4, family, l2_table(4), l3_table(l2_table(3)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from([T2, T3]),
    st.integers(0, 12),
    st.fractions(min_value=-100, max_value=100, max_denominator=50).filter(bool),
)
def test_loci_sum_matches_the_fraction_sum(table, k, delta):
    # The integer sum over the lcm denominator equals the Fraction sum, also
    # on tables one bumped L row has taken off their identities.
    values = list(table.L)
    values[k] += delta
    bumped = HodgeTable(table.degree, values)
    t2 = bumped if table is T2 else T2
    t3 = bumped if table is T3 else T3
    for g in range(13):
        for family in ("linA", "linB", "J", "aux"):
            expected = sum(enumerate_loci(g, family, t2, t3), Fraction(0))
            assert _loci_sum(g, family, t2, t3) == expected
