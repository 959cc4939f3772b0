import re
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from admcalc.hodge import (
    HodgeTable,
    TableSource,
    _every_other,
    _j_terms,
    _l2_terms,
    _l3_weights,
    _sine_power,
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
from admcalc.series import TruncatedSeries, cos_scaled, div, egf_value, sin_scaled

F = Fraction


# -- tables ----------------------------------------------------------------


def test_l2_spot_values():
    t = l2_table(3)
    assert [t.L[g] for g in range(4)] == [F(1, 2), F(1, 4), F(1, 2), F(17, 8)]
    assert t.degree == 2 and t.gmax == 3
    assert list(vars(t)) == ["degree", "L"]


def test_l3_spot_values():
    t = l3_table(l2_table(3))
    assert [t.L[g] for g in range(3)] == [1, 3, 21]
    assert t.L[3] == F(809, 3)
    assert list(vars(t)) == ["degree", "L"]


def test_tables_are_read_only_values():
    L = [F(1, 2), F(1, 4)]
    t = HodgeTable(2, L)
    assert t == HodgeTable(degree=2, L=list(L)) == l2_table(1)
    assert t != HodgeTable(3, L) and t != HodgeTable(2, L[:1]) and t != (2, L)
    assert repr(t) == "HodgeTable(degree=2, L=(Fraction(1, 2), Fraction(1, 4)))"
    with pytest.raises(TypeError):
        hash(t)
    assert t.I == (F(-1, 4), F(-1, 8))
    for name in ("degree", "L", "I"):
        before = getattr(t, name)
        with pytest.raises(AttributeError):
            setattr(t, name, before)
        with pytest.raises(AttributeError):
            delattr(t, name)
        assert getattr(t, name) is before
    assert list(vars(t)) == ["degree", "L", "I"]


@pytest.mark.parametrize("value", [0.25, "1/4", None, 1j])
def test_table_values_must_be_exact(value):
    # A float would make the I row float arithmetic, and the integer rows
    # that J and L3 read would then fail on its missing denominator.
    with pytest.raises(TypeError):
        HodgeTable(2, [F(1, 2), value])


@pytest.mark.parametrize("degree", [0, 1, 4, 5, 2.0, "2"])
def test_table_degree_must_be_two_or_three(degree):
    # Only the integers 2 and 3 have an I row to read; any other degree once
    # failed with a KeyError on first use of ``I``, and 2.0 broke the J row.
    with pytest.raises(ValueError, match="degree 2 or 3"):
        HodgeTable(degree, [F(1, 2)])


def test_table_rows_cannot_be_edited_in_place():
    # A row edited in place would leave the rows cached from it stale: with
    # lists, ``t.I[1] += 1`` made ``t.J[1]`` read -7/2.
    t = l2_table(3)
    for row in (t.L, t.I, t.J, t.L_int[0], t.I_int[0]):
        with pytest.raises(TypeError):
            row[1] += 1
    assert (t.L[1], t.I[1], t.J[1]) == (F(1, 4), F(-1, 8), F(1, 2))


def test_table_invariants():
    t2 = l2_table(8)
    t3 = l3_table(t2)
    assert t2.L[0] == F(1, 2)
    for g in range(9):
        assert t2.I[g] == -t2.L[g] / 2
        assert t3.I[g] == F(2, 9) * t3.L[g]
    assert t2.J[0] == F(1, 4) and t2.J[1] == F(1, 2)
    assert t3.I[0] == F(2, 9) and t3.J[0] == F(8, 9)


def three_product_l3_weights(g):
    """The degree-3 weights as the relation writes them: three products each,
    with the counts P3_full(k) = 9^k and P3_trans(k) = (9^(k+1)-1)/2."""
    return [
        (
            Fraction(2, 3) * comb(2 * g + 3, 2 * i + 1)
            * (-1) ** (g - i + 1) * 9 ** (g - i),
            comb(2 * g + 3, 2 * i) * (-1) ** (g - i) * Fraction(9 ** (g - i + 1) - 1, 2),
        )
        for i in range(g + 1)
    ]


def comb_l2_terms(g, L2):
    """The L2 recursion's summands as it writes them, one ``comb`` each."""
    return [(-1) ** (g - i + 1) * comb(2 * g + 1, 2 * i) * L2[i] for i in range(g)]


def comb_j_terms(d, g, I):
    """The J convolution's summands as it writes them, one ``comb`` each."""
    return [
        d * comb(2 * g + 2 * d - 2, 2 * i + d - 1) * I[i] * I[g - i]
        for i in range(g + 1)
    ]


def test_l3_weights_match_the_three_products():
    # The weights are those of 3 times the relation, in integers.
    for g in range(81):
        weights = _l3_weights(g)
        assert weights == [(3 * a, 3 * b) for a, b in three_product_l3_weights(g)]
        assert all(type(w) is int for pair in weights for w in pair)


# The tables sum their relations in integers over a common denominator;
# these oracles solve and convolve one Fraction at a time, on rows with one
# entry bumped by a drawn delta or set to zero, so the rows carry
# denominators, signs and zeros that no true row has.
T2 = l2_table(12)
T3 = l3_table(T2)
DIFFERENTIAL = settings(max_examples=40, deadline=None, derandomize=True, database=None)
BUMP = st.tuples(
    st.integers(0, 12),
    st.fractions(min_value=-100, max_value=100, max_denominator=50),
    st.booleans(),
)


def bumped(table, bump):
    k, delta, zero = bump
    values = list(table.L)
    values[k] = F(0) if zero else values[k] + delta
    return HodgeTable(table.degree, values)


def schoolbook_l3(l2_row):
    L3 = []
    for g in range(len(l2_row)):
        weights = three_product_l3_weights(g)
        known = sum((a * L3[i] for i, (a, _) in enumerate(weights[:g])), F(0))
        known += sum(b * l2_row[i] for i, (_, b) in enumerate(weights))
        L3.append(-known / weights[g][0])
    return L3


def fraction_convolution(d, I):
    return [sum(comb_j_terms(d, g, I)) for g in range(len(I))]


@DIFFERENTIAL
@given(BUMP)
def test_l3_table_matches_the_schoolbook_solve(bump):
    l2 = bumped(T2, bump)
    assert l3_table(l2).L == tuple(schoolbook_l3(l2.L))


@DIFFERENTIAL
@given(st.sampled_from([T2, T3]), BUMP)
def test_j_row_matches_the_fraction_convolution(table, bump):
    t = bumped(table, bump)
    assert t.J == tuple(fraction_convolution(t.degree, t.I))


@DIFFERENTIAL
@given(st.integers(0, 200).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n // 2 + 4))))
@example((0, 0))
@example((1, 3))
@example((200, 0))
@example((200, 103))
def test_every_other_walks_the_binomial_row(case):
    # From every start, to count 0 and past the row's end, where C(n, k) = 0.
    n, count = case
    for k in range(n + 4):
        assert _every_other(n, k, count) == [comb(n, k + 2 * j) for j in range(count)]


# Term faults hand the term functions rows with zeros and denominators that
# no true row has; the tables and catalogs hand them integer numerators.
TERM_ROW = st.one_of(
    st.just(F(0)),
    st.integers(-10**6, 10**6),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4),
)


@DIFFERENTIAL
@given(st.integers(0, 80).flatmap(
    lambda g: st.tuples(st.just(g), st.lists(TERM_ROW, min_size=g, max_size=g))))
@example((80, [F(1, 2)] * 80))
def test_l2_terms_match_the_comb_spelling(case):
    g, row = case
    assert _l2_terms(g, row) == comb_l2_terms(g, row)


@DIFFERENTIAL
@given(st.integers(1, 9), st.integers(0, 80).flatmap(
    lambda g: st.tuples(st.just(g), st.lists(TERM_ROW, min_size=g + 1, max_size=g + 1))))
@example(9, (80, [F(-1, 4)] * 81))
@example(1, (0, [0]))
def test_j_terms_match_the_comb_spelling(d, case):
    g, row = case
    assert _j_terms(d, g, row) == comb_j_terms(d, g, row)


@pytest.mark.parametrize("degree", [2, 3], ids=["l2_table", "l3_table"])
def test_derived_rows_follow_a_replaced_l(degree):
    t = l2_table(5) if degree == 2 else l3_table(l2_table(5))
    bumped = HodgeTable(t.degree, [t.L[0], t.L[1] + 1, *t.L[2:]])
    d, order = t.degree, 2 * t.gmax + 2 * t.degree - 2
    scale = F(-1, 2) if d == 2 else F(2, 9)
    assert bumped.I == tuple(scale * value for value in bumped.L)
    i_row = TruncatedSeries.from_egf(
        ((2 * g + d - 1, value) for g, value in enumerate(bumped.I)), order
    )
    square = d * i_row * i_row
    j_row = (egf_value(square, 2 * g + 2 * d - 2) for g in range(t.gmax + 1))
    assert bumped.J == tuple(j_row)
    assert bumped.J != t.J


def test_table_validation():
    with pytest.raises(ValueError):
        l2_table(-1)
    with pytest.raises(ValueError):
        l3_table(l2_table(-3))


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


# Orders 2..40, and 150: perfbench's verify-all reaches order 149.
@pytest.mark.parametrize("N", [*range(2, 41), 150])
def test_proven_spellings_match_the_closed_form(N):
    # The trigonometric forms the paper proves for degrees 2 and 3, spelled
    # out independently of conjecture_series, which the package derives
    # every L and J closed form from.
    half = F(1, 2)
    tan_half = div(sin_scaled(half, N), cos_scaled(half, N))
    assert tan_half == closed_form_L2(N)
    inverse = div(TruncatedSeries.one(N), 2 * cos_scaled(1, N) + 1)
    assert F(9, 2) * (inverse - F(1, 3)) == closed_form_L3(N)
    j3 = div(F(16, 3) * sin_scaled(half, N + 2) ** 6, sin_scaled(F(3, 2), N + 2) ** 2)
    assert j3 == TableSource(0).closed_form("J", 3, N)
    assert tan_half**2 / 2 == TableSource(0).closed_form("J", 2, N)


@pytest.mark.parametrize("gmax", [0, 1, 5, 12])
def test_recursion_matches_closed_form(gmax):
    t2 = l2_table(gmax)
    t3 = l3_table(t2)
    cf2 = closed_form_L2(2 * gmax + 1)
    cf3 = closed_form_L3(2 * gmax + 2)
    for g in range(gmax + 1):
        assert t2.L[g] == egf_value(cf2, 2 * g + 1)
        assert t3.L[g] == egf_value(cf3, 2 * g + 2)


def test_l_series_roundtrips_table():
    t = l3_table(l2_table(4))
    s = l_series(t, 10)
    for g in range(5):
        assert egf_value(s, 2 * g + 2) == t.L[g]
    assert egf_value(l_series(t, 11), 11) == 0


# -- one- and two-point series ---------------------------------------------


def test_i_series_values():
    i2 = i_series(l2_table(3), 7)
    assert i2.coeff(1) == F(-1, 4)
    assert i2.coeff(3) == F(-1, 48)
    i3 = i_series(l3_table(l2_table(2)), 6)
    assert i3.coeff(2) == F(1, 9)
    assert i3.coeff(4) == F(1, 36)
    assert egf_value(i3, 2) == F(2, 9)


def test_i_series_parity():
    i2, i3 = i_series(l2_table(7), 15), i_series(l3_table(l2_table(6)), 15)
    assert all(i2.coeff(k) == 0 for k in range(0, 16, 2))
    assert all(i3.coeff(k) == 0 for k in range(1, 16, 2))


@pytest.mark.parametrize(
    "row_series, orders",
    [(l_series, (7, 8)), (i_series, (7, 8)), (j_series, (8, 10))],
    ids=["l_series", "i_series", "j_series"],
)
def test_row_series_reject_a_short_table(row_series, orders):
    # L and I row g sit at exponent 2g+d-1: order 7 needs L2 to genus 3 and
    # order 8 needs L3 to genus 3.  J row g sits at 2g+2d-2: order 8 needs J2
    # to genus 3 and order 10 needs J3 to genus 3.
    tables = (l2_table(3), l3_table(l2_table(3)))
    for table, order in zip(tables, orders):
        row_series(table, order)
        short = HodgeTable(table.degree, table.L[:3])
        with pytest.raises(ValueError, match="reach genus 3"):
            row_series(short, order)


def test_j_series_reads_only_the_rows_it_needs():
    # At order 7 the J2 row reaches x^6, genus 2, one row short of what
    # i_series needs at the same order.
    assert j_series(l2_table(2), 7) == j_series(l2_table(3), 7)
    with pytest.raises(ValueError, match="reach genus 3"):
        i_series(l2_table(2), 7)


def test_j_series_values_and_parity():
    j2, j3 = j_series(l2_table(5), 12), j_series(l3_table(l2_table(5)), 12)
    assert j2.coeff(2) == F(1, 8)
    assert j3.coeff(4) == F(1, 27)
    assert egf_value(j2, 2) == F(1, 4)
    assert all(j2.coeff(k) == 0 for k in range(1, 13, 2))
    assert all(j3.coeff(k) == 0 for k in range(1, 13, 2))
    assert j3.coeff(0) == 0 and j3.coeff(2) == 0


def test_j_square_identity_by_construction():
    for table in (l2_table(6), l3_table(l2_table(6))):
        base = i_series(table, 14)
        assert j_series(table, 14) == table.degree * base * base


@pytest.mark.parametrize("g", [0, 1, 2, 5])
def test_j_relation_check(g):
    assert j_relation_check(g)


def test_closed_form_readers_keep_their_domains():
    # closed_form_L2 needs N >= 1 and closed_form_L3 N >= 2, the general
    # form's bound; j_relation_check refuses a negative genus itself.
    with pytest.raises(ValueError, match="order must be >= d - 1"):
        closed_form_L2(0)
    with pytest.raises(ValueError, match="order must be >= d - 1"):
        closed_form_L3(1)
    with pytest.raises(ValueError, match="genus must be >= 0"):
        j_relation_check(-1)


@pytest.mark.parametrize(
    "read", [p2_closed, p3_full_closed, p3_trans_closed, j_relation_check]
)
def test_genus_readers_refuse_a_genus_that_is_not_an_int(read):
    # p3_full_closed(1.0) used to return the float 9.0.
    for bad in (1.0, F(3, 2), "2"):
        message = f"^genus must be an int, not {re.escape(repr(bad))}$"
        with pytest.raises(TypeError, match=message):
            read(bad)
    with pytest.raises(ValueError, match="^genus must be >= 0$"):
        read(-1)


# -- conjecture ------------------------------------------------------------


def test_conjecture_degree_one_is_constant():
    assert conjecture_series(1, 12) == TruncatedSeries.one(12)


@pytest.mark.parametrize("d", [2, 3])
def test_conjecture_matches_tables(d):
    table = l2_table(12) if d == 2 else l3_table(l2_table(11))
    assert conjecture_series(d, 25) == i_series(table, 25)


def test_conjecture_degree_four_emits_data():
    s = conjecture_series(4, 9)
    assert s.valuation() == 3
    # leading term of -(1/4)(2 sin(x/2))^4 / (2 sin 2x) is -x^3/16
    assert s.coeff(3) == F(-1, 16)


@pytest.mark.parametrize("d", range(1, 8))
def test_conjecture_series_is_prefix_stable(d):
    # What lets one build at the largest order serve every lower one.
    built = {N: conjecture_series(d, N) for N in range(d - 1, 61)}
    for N, series in built.items():
        for n in range(d - 1, N + 1):
            assert series.truncate(n) == built[n]


def product_conjecture_series(d, N):
    # The numerator as d - 1 series products: the reference for the finite
    # sum that conjecture_series builds.
    work = N + 1
    numerator = (2 * sin_scaled(F(1, 2), work)) ** d
    denominator = 2 * sin_scaled(F(d, 2), work)
    return div(numerator, denominator) * F((-1) ** (d - 1), d)


UNSHRUNK = settings(
    max_examples=60, deadline=None, derandomize=True, database=None,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)


@UNSHRUNK
@given(st.integers(1, 9), st.integers(0, 60))
@example(9, 8)
@example(9, 60)
def test_sine_power_is_the_series_power(d, N):
    # Below order d the power is the zero series.
    assert _sine_power(d, N) == (2 * sin_scaled(F(1, 2), N)) ** d


@UNSHRUNK
@given(st.integers(4, 9).flatmap(
    lambda d: st.tuples(st.just(d), st.integers(d - 1, 60))))
@example((9, 60))
def test_conjecture_series_matches_the_product_spelling(case):
    d, N = case
    assert conjecture_series(d, N) == product_conjecture_series(d, N)


def tangent_numbers(n):
    # T_1, T_3, ..., T_(2n-1), the EGF coefficients of tan x, by the integer
    # recurrence of Knuth and Buckholtz (Math. Comp. 21, 1967).
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


def half_angle_coeffs(N):
    # F(t) = (t/2)/sin(t/2) = 1 + sum_(g>=1) t^(2g) int psi^(2g-2) lambda_g
    # (Faber-Pandharipande, Invent. Math. 139, 2000) through t^N.  Its
    # coefficient of t^(2g) is (2^(2g-1) - 1) |B_2g| / (2^(2g-1) (2g)!), and
    # |B_2g| = 2g T_(2g-1) / (4^g (4^g - 1)) from the tangent numbers.
    tangents = tangent_numbers(N // 2 + 1)
    coeffs = [F(1)] + [F(0)] * N
    for g in range(1, N // 2 + 1):
        bernoulli = F(2 * g * tangents[g - 1], 4**g * (4**g - 1))
        half = 2 ** (2 * g - 1)
        coeffs[2 * g] = (half - 1) * bernoulli / (half * factorial(2 * g))
    return coeffs


def lambda_g_series(d, N):
    # The closed form as a product, with no series division:
    #     I_d(x) = (-1)^(d-1)/d^2 * [(2 sin(x/2))^d / x] * F(dx).
    power = (2 * sin_scaled(F(1, 2), N + 1)) ** d
    over_x = TruncatedSeries(power.coeffs[1:])
    f_dx = TruncatedSeries([c * d**k for k, c in enumerate(half_angle_coeffs(N))])
    return over_x * f_dx * F((-1) ** (d - 1), d * d)


def test_half_angle_series_holds_the_lambda_g_integrals():
    # int psi^0 lambda_1 = 1/24 and int psi^2 lambda_2 = 7/5760; through
    # t^40, F equals (t/2) / sin(t/2) divided out by the series kernel.
    assert tangent_numbers(5) == [1, 2, 16, 272, 7936]
    assert half_angle_coeffs(4) == [1, 0, F(1, 24), 0, F(7, 5760)]
    half_t = TruncatedSeries([0, F(1, 2)] + [0] * 40)
    assert div(half_t, sin_scaled(F(1, 2), 41)) == TruncatedSeries(half_angle_coeffs(40))


@UNSHRUNK
@given(st.integers(1, 9).flatmap(
    lambda d: st.tuples(st.just(d), st.integers(d - 1, 60))))
@example((1, 0))
@example((9, 60))
def test_conjecture_series_matches_the_lambda_g_spelling(case):
    # The division route against the product of the lambda_g spelling: the
    # arithmetic of the d >= 4 output, not the conjecture itself.
    d, N = case
    assert conjecture_series(d, N) == lambda_g_series(d, N)


def test_table_source_closed_forms_are_truncations():
    source = TableSource(0)
    for d in (2, 3):
        source.closed_form("I", d, 20)
    assert source.closed_form("I", 2, 9) == conjecture_series(2, 9)
    assert source.closed_form("L", 2, 9) == closed_form_L2(9)
    assert source.closed_form("L", 3, 12) == closed_form_L3(12)
    assert source.closed_form("J", 3, 20) == TableSource(0).closed_form("J", 3, 20)
    # A request past the order built builds the degree again.
    assert source.closed_form("J", 2, 31) == TableSource(0).closed_form("J", 2, 31)


def test_table_source_refuses_other_degrees():
    for degree in (1, 4):
        with pytest.raises(ValueError, match=f"not {degree}$"):
            TableSource(10)(degree)


def test_closed_form_refuses_unknown_rows():
    for row in ("X", "P", "l"):
        with pytest.raises(ValueError, match=f"row {row!r}"):
            TableSource(0).closed_form(row, 2, 5)


@pytest.mark.parametrize("degree", [1, 4])
def test_closed_form_refuses_l_rows_outside_two_and_three(degree):
    with pytest.raises(ValueError, match=f"row 'L' at degree {degree}"):
        TableSource(0).closed_form("L", degree, 5)
    # The I and J rows exist at every degree the closed form does.
    assert TableSource(0).closed_form("J", degree, 9) == (
        degree * conjecture_series(degree, 9) ** 2
    )


def test_conjecture_validation():
    with pytest.raises(ValueError):
        conjecture_series(0, 5)
    with pytest.raises(ValueError):
        conjecture_series(4, 2)


# -- ODE residuals ---------------------------------------------------------


def test_ode_residuals_vanish():
    t2 = l2_table(10)
    t3 = l3_table(t2)
    assert ode_residual_deg2(t2, 20).is_zero()
    assert ode_residual_deg3(t2, t3, 20).is_zero()


def test_ode_residual_orders():
    t2 = l2_table(8)
    t3 = l3_table(t2)
    assert ode_residual_deg2(t2, 15).order == 15
    assert ode_residual_deg3(t2, t3, 16).order == 16
    with pytest.raises(ValueError):
        ode_residual_deg2(t2, 1)
    with pytest.raises(ValueError):
        ode_residual_deg3(t2, t3, 0)


def perturbed(table, bump_at, delta):
    values = list(table.L)
    values[bump_at] += delta
    return HodgeTable(table.degree, values)


def test_perturbed_l2_detected():
    bumped = perturbed(l2_table(11), bump_at=1, delta=1)
    assert not ode_residual_deg2(bumped, 20).is_zero()


def test_perturbed_l3_detected():
    bumped = perturbed(l3_table(l2_table(10)), bump_at=2, delta=F(1, 7))
    assert not ode_residual_deg3(l2_table(10), bumped, 20).is_zero()


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
