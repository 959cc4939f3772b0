import dataclasses
from fractions import Fraction

import pytest

from admcalc.hodge import closed_form_L2, l2_table, l3_table
from admcalc.localization import (
    LocusKind,
    deg2_linA,
    deg2_linB,
    deg3_aux_residual,
    enumerate_loci,
    j2_from_loci,
)
from admcalc.series import egf_value

F = Fraction


def test_linA_values():
    assert [deg2_linA(g) for g in range(3)] == [F(-1, 4), F(-1, 8), F(-1, 4)]


def test_linB_values():
    assert [deg2_linB(g) for g in range(3)] == [F(-1, 4), F(-1, 8), F(-1, 4)]


def test_linearizations_agree():
    t2 = l2_table(12)
    for g in range(13):
        assert deg2_linA(g, l2=t2) == deg2_linB(g, l2=t2)


def test_term_counts():
    for g in (0, 1, 2, 4, 7):
        assert len(enumerate_loci(2, g, "linA")) == 1
        assert len(enumerate_loci(2, g, "linB")) == g + 1
        assert len(enumerate_loci(3, g, "aux")) == 2 * g + 2
        assert len(enumerate_loci(2, g, "J")) == max(g + 1, 1)


def test_genera_sum_to_ambient_genus():
    t2, t3 = l2_table(6), l3_table(6)
    for g in range(7):
        for family, degree in (("linA", 2), ("linB", 2), ("J", 2), ("aux", 3)):
            for term in enumerate_loci(degree, g, family, l2=t2, l3=t3):
                assert all(part >= 0 for part in term.genera)
                assert sum(term.genera) == g
                assert term.degree == degree


def test_aux_terms_carry_inverse_hbar():
    for g in (0, 1, 3, 6):
        assert all(t.hbar_exponent == -1 for t in enumerate_loci(3, g, "aux"))
    for g in (0, 2):
        for family in ("linA", "linB", "J"):
            assert all(t.hbar_exponent == 0 for t in enumerate_loci(2, g, family))


def test_aux_residual_vanishes():
    t2, t3 = l2_table(12), l3_table(12)
    for g in range(13):
        assert deg3_aux_residual(g, l2=t2, l3=t3) == 0


def test_aux_residual_spot_structure():
    # g = 0: the relation collapses to -2 L3(0) + 2 = 0.
    terms = enumerate_loci(3, 0, "aux")
    assert sorted(t.coefficient for t in terms) == [-2, 2]


def test_perturbed_p3_trans_breaks_vanishing():
    t3 = l3_table(4)
    bumped = dataclasses.replace(t3, P_trans=[F(5), *t3.P_trans[1:]])
    for g in range(5):
        assert deg3_aux_residual(g, l3=bumped) != 0


def test_perturbed_l3_breaks_vanishing():
    t3 = l3_table(4)
    bumped = dataclasses.replace(t3, L=[t3.L[0], t3.L[1] + 1, *t3.L[2:]])
    assert deg3_aux_residual(1, l3=bumped) != 0


@pytest.mark.parametrize("k", [0, 1, 3])
def test_perturbed_l2_breaks_linearizations_and_j(k):
    # The linB and J catalogs read every L2/I2 row they use from the table
    # passed in, the seed row L2(0) included.
    t2 = l2_table(6)
    L, I = list(t2.L), list(t2.I)
    L[k] += 1
    I[k] = -L[k] / 2
    bumped = dataclasses.replace(t2, L=L, I=I)
    tan_sq = closed_form_L2(14) ** 2
    assert any(deg2_linA(g, l2=bumped) != deg2_linB(g, l2=bumped) for g in range(k, 7))
    assert any(
        j2_from_loci(g, l2=bumped) != egf_value(tan_sq, 2 * g + 2) / 2
        for g in range(k, 7)
    )


def test_locus_kind_coverage():
    kinds = {t.kind for t in enumerate_loci(2, 3, "linA")}
    kinds |= {t.kind for t in enumerate_loci(2, 3, "linB")}
    kinds |= {t.kind for t in enumerate_loci(3, 3, "aux")}
    kinds |= {t.kind for t in enumerate_loci(2, 3, "J")}
    assert kinds == set(LocusKind)


def test_signs_at_unit_split():
    # Each split-type locus with genera (1, 1) has a pinned sign and value.
    def split_coeff(degree, family, kind):
        matches = [
            t
            for t in enumerate_loci(degree, 2, family)
            if t.kind is kind and t.genera == (1, 1)
        ]
        assert len(matches) == 1
        return matches[0].coefficient

    assert split_coeff(2, "linB", LocusKind.DEG2_B_SPLIT) == F(5, 4)
    assert split_coeff(3, "aux", LocusKind.AUX_SPLIT) == 630
    assert split_coeff(3, "aux", LocusKind.AUX_SPLIT_NODE) == -210
    assert split_coeff(2, "J", LocusKind.J_SPLIT) == F(5, 8)


def test_j_end_terms_fold_the_seed():
    # Both single-sided J loci reduce to (1/4)(2g+2) L2(g).
    t2 = l2_table(3)
    for g in (1, 2, 3):
        terms = enumerate_loci(2, g, "J", l2=t2)
        ends = [
            t.coefficient
            for t in terms
            if t.kind in (LocusKind.J_LEFT, LocusKind.J_RIGHT)
        ]
        assert ends == [F(2 * g + 2, 4) * t2.L[g]] * 2


def test_j_at_genus_zero_single_locus():
    terms = enumerate_loci(2, 0, "J")
    assert len(terms) == 1
    assert terms[0].coefficient == F(1, 4)


def test_j2_values():
    assert [j2_from_loci(g) for g in range(3)] == [F(1, 4), F(1, 2), F(17, 8)]


def test_j2_matches_tangent_square():
    t2 = l2_table(8)
    tan_sq = closed_form_L2(18) ** 2
    for g in range(9):
        assert j2_from_loci(g, l2=t2) == egf_value(tan_sq, 2 * g + 2) / 2


def test_family_validation():
    with pytest.raises(ValueError):
        enumerate_loci(2, 1, "aux")
    with pytest.raises(ValueError):
        enumerate_loci(3, 1, "linA")
    with pytest.raises(ValueError):
        enumerate_loci(4, 1, "aux")
    with pytest.raises(ValueError):
        enumerate_loci(2, -1, "J")
