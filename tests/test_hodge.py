from fractions import Fraction

import pytest

from admcalc.hodge import (
    closed_form_L2,
    closed_form_L3,
    conjecture_series,
    i_series,
    j_relation_check,
    j_series,
    l2_table,
    l3_table,
    l_series,
    ode_residual_deg2,
    ode_residual_deg3,
    p2_closed,
    p3_full_closed,
    p3_full_series,
    p3_trans_closed,
    p3_trans_series,
)
from admcalc.series import TruncatedSeries, egf_value

F = Fraction


# -- tables ----------------------------------------------------------------


def test_l2_spot_values():
    t = l2_table(3)
    assert [t.L[g] for g in range(4)] == [F(1, 2), F(1, 4), F(1, 2), F(17, 8)]
    assert t.degree == 2 and t.gmax == 3
    assert t.P_full is None and t.P_trans is None


def test_l3_spot_values():
    t = l3_table(3)
    assert [t.L[g] for g in range(3)] == [1, 3, 21]
    assert t.L[3] == F(809, 3)
    assert t.P_full == [9**g for g in range(4)]
    assert t.P_trans == [F(9 ** (g + 1) - 1, 2) for g in range(4)]


def test_table_invariants():
    t2, t3 = l2_table(8), l3_table(8)
    assert t2.L[0] == F(1, 2)
    for g in range(9):
        assert t2.I[g] == -t2.L[g] / 2
        assert t3.I[g] == F(2, 9) * t3.L[g]
    assert t2.J[0] == F(1, 4) and t2.J[1] == F(1, 2)
    assert t3.I[0] == F(2, 9) and t3.J[0] == F(8, 9)


def test_table_validation():
    with pytest.raises(ValueError):
        l2_table(-1)
    with pytest.raises(ValueError):
        l3_table(-3)


# -- closed forms ----------------------------------------------------------


def test_closed_form_L2_is_tan_half():
    s = closed_form_L2(9)
    assert [s.coeff(k) for k in (1, 3, 5, 7)] == [
        F(1, 2),
        F(1, 24),
        F(1, 240),
        F(17, 40320),
    ]
    assert s.constant_term == 0


def test_closed_form_L3_leading_terms():
    s = closed_form_L3(8)
    assert [s.coeff(k) for k in (2, 4, 6)] == [F(1, 2), F(1, 8), F(7, 240)]
    assert s.constant_term == 0
    assert all(s.coeff(k) == 0 for k in range(1, 9, 2))


@pytest.mark.parametrize("gmax", [0, 1, 5, 12])
def test_recursion_matches_closed_form(gmax):
    t2, t3 = l2_table(gmax), l3_table(gmax)
    cf2 = closed_form_L2(2 * gmax + 1)
    cf3 = closed_form_L3(2 * gmax + 2)
    for g in range(gmax + 1):
        assert t2.L[g] == egf_value(cf2, 2 * g + 1)
        assert t3.L[g] == egf_value(cf3, 2 * g + 2)


def test_l_series_roundtrips_table():
    t = l3_table(4)
    s = l_series(t, 10)
    for g in range(5):
        assert egf_value(s, 2 * g + 2) == t.L[g]
    assert egf_value(l_series(t, 21), 21) == 0


# -- one- and two-point series ---------------------------------------------


def test_i_series_values():
    i2 = i_series(2, 7)
    assert i2.coeff(1) == F(-1, 4)
    assert i2.coeff(3) == F(-1, 48)
    i3 = i_series(3, 6)
    assert i3.coeff(2) == F(1, 9)
    assert i3.coeff(4) == F(1, 36)
    assert egf_value(i3, 2) == F(2, 9)


def test_i_series_parity():
    i2, i3 = i_series(2, 15), i_series(3, 15)
    assert all(i2.coeff(k) == 0 for k in range(0, 16, 2))
    assert all(i3.coeff(k) == 0 for k in range(1, 16, 2))


def test_i_series_rejects_other_degrees():
    for d in (1, 4, 5):
        with pytest.raises(ValueError):
            i_series(d, 10)
        with pytest.raises(ValueError):
            j_series(d, 10)


def test_j_series_values_and_parity():
    j2, j3 = j_series(2, 12), j_series(3, 12)
    assert j2.coeff(2) == F(1, 8)
    assert j3.coeff(4) == F(1, 27)
    assert egf_value(j2, 2) == F(1, 4)
    assert all(j2.coeff(k) == 0 for k in range(1, 13, 2))
    assert all(j3.coeff(k) == 0 for k in range(1, 13, 2))
    assert j3.coeff(0) == 0 and j3.coeff(2) == 0


def test_j_square_identity_by_construction():
    for d in (2, 3):
        base = i_series(d, 14)
        assert j_series(d, 14) == d * base * base


@pytest.mark.parametrize("g", [0, 1, 2, 5])
def test_j_relation_check(g):
    assert j_relation_check(g)


# -- conjecture ------------------------------------------------------------


def test_conjecture_degree_one_is_constant():
    assert conjecture_series(1, 12) == TruncatedSeries.one(12)


@pytest.mark.parametrize("d", [2, 3])
def test_conjecture_matches_tables(d):
    assert conjecture_series(d, 25) == i_series(d, 25)


def test_conjecture_degree_four_emits_data():
    s = conjecture_series(4, 9)
    assert s.valuation() == 3
    # leading term of -(1/4)(2 sin(x/2))^4 / (2 sin 2x) is -x^3/16
    assert s.coeff(3) == F(-1, 16)


def test_conjecture_validation():
    with pytest.raises(ValueError):
        conjecture_series(0, 5)
    with pytest.raises(ValueError):
        conjecture_series(4, 2)


# -- ODE residuals ---------------------------------------------------------


def test_ode_residuals_vanish():
    assert ode_residual_deg2(20).is_zero()
    assert ode_residual_deg3(20).is_zero()


def test_ode_residual_orders():
    assert ode_residual_deg2(15).order == 15
    assert ode_residual_deg3(16).order == 16
    with pytest.raises(ValueError):
        ode_residual_deg2(1)
    with pytest.raises(ValueError):
        ode_residual_deg3(0)


def perturbed_l_series(table, order, bump_at, delta):
    values = list(table.L)
    values[bump_at] += delta
    exponent = lambda g: 2 * g + table.degree - 1
    return TruncatedSeries.from_egf(
        ((exponent(g), v) for g, v in enumerate(values) if exponent(g) <= order),
        order,
    )


def test_perturbed_l2_detected():
    s = perturbed_l_series(l2_table(11), 21, bump_at=1, delta=1)
    assert not ode_residual_deg2(20, l2_series=s).is_zero()


def test_perturbed_l3_detected():
    s = perturbed_l_series(l3_table(10), 21, bump_at=2, delta=F(1, 7))
    assert not ode_residual_deg3(20, l3_series=s).is_zero()


# -- cover-count closed forms and their series -----------------------------


def test_p_closed_forms():
    assert [p2_closed(g) for g in range(4)] == [F(1, 2)] * 4
    assert [p3_full_closed(g) for g in range(3)] == [1, 9, 81]
    assert [p3_trans_closed(g) for g in range(3)] == [4, 40, 364]
    with pytest.raises(ValueError):
        p3_full_closed(-1)


def test_p_series_identities():
    n = 19
    full = TruncatedSeries.from_egf(
        (
            (2 * g + 2, (-1) ** g * p3_full_closed(g))
            for g in range(9)
            if 2 * g + 2 <= n
        ),
        n,
    )
    assert full == p3_full_series(n)
    trans = TruncatedSeries.from_egf(
        (
            (2 * g + 3, (-1) ** g * p3_trans_closed(g))
            for g in range(9)
            if 2 * g + 3 <= n
        ),
        n,
    )
    assert trans == p3_trans_series(n)
