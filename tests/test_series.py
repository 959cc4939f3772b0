import random
from fractions import Fraction
from math import comb, factorial, perm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from admcalc.hodge import HodgeTable
from admcalc.hurwitz import BranchProfile, CycleType
from admcalc.series import (
    OrderMismatchError,
    SeriesDivisionError,
    TruncatedSeries,
    _append_over_lcm,
    _over_lcm,
    _trig_sum,
    cos_scaled,
    div,
    egf_value,
    sin_scaled,
)


def tan_coeffs(order):
    """Tangent coefficients from t' = 1 + t^2, independent of division."""
    t = [Fraction(0)] * (order + 1)
    for n in range(order):
        square = sum(t[i] * t[n - i] for i in range(n + 1))
        if n == 0:
            square += 1
        t[n + 1] = Fraction(square, n + 1)
    return t


def random_series(rng, order, max_num=9, max_den=7):
    coeffs = [
        Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
        for _ in range(order + 1)
    ]
    return TruncatedSeries(coeffs)


# -- construction ----------------------------------------------------------


def test_empty_needs_order():
    with pytest.raises(ValueError):
        TruncatedSeries([])
    assert TruncatedSeries([0] * 4).is_zero()


def test_floats_rejected():
    with pytest.raises(TypeError):
        TruncatedSeries([0, 0.5, 0])
    with pytest.raises(TypeError):
        sin_scaled(0.5, 4)


def test_named_constructors():
    assert TruncatedSeries.one(2).coeffs == (1, 0, 0)
    with pytest.raises(ValueError):
        TruncatedSeries.one(-1)


def test_from_egf_offsets_and_accumulation():
    s = TruncatedSeries.from_egf([(3, 6), (3, 6), (1, 1)], 4)
    assert s.coeff(3) == Fraction(12, 6)
    assert s.coeff(1) == 1
    with pytest.raises(ValueError):
        TruncatedSeries.from_egf([(5, 1)], 4)
    with pytest.raises(ValueError):
        TruncatedSeries.from_egf([], -1)


# -- ring operations -------------------------------------------------------


def test_add_sub_scalar():
    f = TruncatedSeries([1, 2, 3])
    g = TruncatedSeries([0, 1, 1])
    assert (f + g).coeffs == (1, 3, 4)
    assert (f - g).coeffs == (1, 1, 2)
    assert (f + 1).coeffs == (2, 2, 3)
    assert (1 - f).coeffs == (0, -2, -3)
    assert (-f).coeffs == (-1, -2, -3)


def test_order_mismatch_strict_and_permissive():
    f = TruncatedSeries([1, 1, 1])
    g = TruncatedSeries([1, 1])
    with pytest.raises(OrderMismatchError):
        _ = f + g
    with pytest.raises(OrderMismatchError):
        _ = f * g
    with pytest.raises(OrderMismatchError):
        div(f, g)


def test_mul_small_case():
    f = TruncatedSeries([1, 1, 0, 0])  # 1 + x
    g = TruncatedSeries([1, -1, 0, 0])  # 1 - x
    assert (f * g).coeffs == (1, 0, -1, 0)
    assert (2 * f).coeffs == (2, 2, 0, 0)
    assert (f * Fraction(1, 2)).coeffs == (Fraction(1, 2), Fraction(1, 2), 0, 0)


def test_pow():
    f = TruncatedSeries([1, 1, 0, 0, 0])
    assert (f**4).coeffs == (1, 4, 6, 4, 1)
    assert (f**0) == TruncatedSeries.one(4)
    with pytest.raises(ValueError):
        f ** (-1)


def test_pow_multiplies_k_minus_one_times(monkeypatch):
    f = TruncatedSeries([Fraction(1, 2), -1, 3, 0, 0, 0])
    expected = [TruncatedSeries.one(5), f, f * f, f * f * f]
    calls = []
    mul = TruncatedSeries.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counted)
    for k, power in enumerate(expected):
        calls.clear()
        assert f**k == power
        assert len(calls) == max(k - 1, 0)


def test_derivative_antiderivative():
    f = TruncatedSeries([5, 1, 3, 2])
    assert f.derivative().coeffs == (1, 6, 6)
    with pytest.raises(ValueError):
        TruncatedSeries([1]).derivative()


# -- division --------------------------------------------------------------


def test_div_matches_tangent_recurrence():
    n = 17
    quotient = div(sin_scaled(1, n), cos_scaled(1, n))
    assert quotient.coeffs == tuple(tan_coeffs(n))


def test_div_by_unit_round_trip():
    rng = random.Random(7)
    for _ in range(25):
        order = rng.randint(2, 9)
        g = random_series(rng, order)
        if not g.constant_term:
            g = g + 1 if g.constant_term != -1 else g + 2
        f = random_series(rng, order)
        assert div(f * g, g) == f


def test_div_common_valuation():
    # (x^2 + x^3) / (x + x^2) = x exactly, with one order lost.
    f = TruncatedSeries([0, 0, 1, 1])
    g = TruncatedSeries([0, 1, 1, 0])
    q = div(f, g)
    assert q.order == 2
    assert q.coeffs == (0, 1, 0)


def test_div_valuation_round_trip():
    rng = random.Random(11)
    for _ in range(25):
        order = rng.randint(3, 9)
        v = rng.randint(1, 2)
        g_low = random_series(rng, order - v)
        if not g_low.constant_term:
            g_low = g_low + 1
        g = TruncatedSeries([0] * v + list(g_low.coeffs))
        f = random_series(rng, order)
        product = f * g
        assert div(product, g) == f.truncate(order - v)


def test_div_errors():
    f = TruncatedSeries([0, 1, 0])
    with pytest.raises(SeriesDivisionError):
        div(f, TruncatedSeries([0, 0, 0]))
    with pytest.raises(SeriesDivisionError):
        # numerator valuation 1 < denominator valuation 2
        div(f, TruncatedSeries([0, 0, 1]))
    with pytest.raises(ZeroDivisionError):
        f / 0
    with pytest.raises(TypeError):
        # a quotient of two series is div; / divides by scalars only
        f / TruncatedSeries([1, 0, 0])


def test_zero_numerator_divides_anything():
    z = TruncatedSeries([0] * 6)
    g = TruncatedSeries([0, 2, 1, 0, 0, 0])
    assert div(z, g) == TruncatedSeries([0] * 5)


# -- trigonometric expansions ---------------------------------------------


def test_sin_cos_leading_terms():
    s = sin_scaled(1, 7)
    assert [s.coeff(k) for k in (1, 3, 5, 7)] == [
        1,
        Fraction(-1, 6),
        Fraction(1, 120),
        Fraction(-1, 5040),
    ]
    c = cos_scaled(1, 6)
    assert [c.coeff(k) for k in (0, 2, 4, 6)] == [
        1,
        Fraction(-1, 2),
        Fraction(1, 24),
        Fraction(-1, 720),
    ]
    half = sin_scaled(Fraction(1, 2), 3)
    assert half.coeff(1) == Fraction(1, 2)
    assert half.coeff(3) == Fraction(-1, 48)


@pytest.mark.parametrize("a", [Fraction(1, 2), 1, Fraction(3, 2), 3])
def test_pythagorean_identity(a):
    n = 14
    s, c = sin_scaled(a, n), cos_scaled(a, n)
    assert s * s + c * c == TruncatedSeries.one(n)


@pytest.mark.parametrize("a", [Fraction(1, 2), 1, 3])
def test_sin_derivative_is_scaled_cos(a):
    n = 12
    assert sin_scaled(a, n).derivative() == a * cos_scaled(a, n - 1)
    assert cos_scaled(a, n).derivative() == -a * sin_scaled(a, n - 1)


def test_parity_of_trig_series():
    s, c = sin_scaled(3, 11), cos_scaled(3, 11)
    assert all(s.coeff(k) == 0 for k in range(0, 12, 2))
    assert all(c.coeff(k) == 0 for k in range(1, 12, 2))


def test_sin_plus_cos_order_four():
    total = sin_scaled(1, 4) + cos_scaled(1, 4)
    assert total.coeffs == (
        1,
        1,
        Fraction(-1, 2),
        Fraction(-1, 6),
        Fraction(1, 24),
    )


def test_cos_scaled_three():
    c = cos_scaled(3, 4)
    assert c.coeffs == (1, 0, Fraction(-9, 2), 0, Fraction(27, 8))
    assert sin_scaled(0, 5).is_zero()


def test_tan_times_cos_is_sin():
    n = 12
    half = Fraction(1, 2)
    tan_half = div(sin_scaled(half, n), cos_scaled(half, n))
    assert tan_half * cos_scaled(half, n) == sin_scaled(half, n)


def test_two_sin_half_squared_over_two_sin():
    # valuation-2 numerator over valuation-1 denominator: one order lost
    n = 13
    half = Fraction(1, 2)
    numerator = (2 * sin_scaled(half, n)) ** 2
    denominator = 2 * sin_scaled(1, n)
    expected = div(sin_scaled(half, n - 1), cos_scaled(half, n - 1))
    assert div(numerator, denominator) == expected


def test_tan_half_derivative_closed_form():
    n = 14
    half = Fraction(1, 2)
    tan_half = div(sin_scaled(half, n), cos_scaled(half, n))
    inverse_sq = div(
        TruncatedSeries.one(n - 1), 2 * cos_scaled(half, n - 1) ** 2
    )
    assert tan_half.derivative() == inverse_sq


# -- EGF helpers -----------------------------------------------------------


def test_egf_coeff_and_value():
    f = TruncatedSeries.from_egf([(3, Fraction(5, 2))], 4)
    assert f.coeff(3) == Fraction(5, 12)
    assert egf_value(f, 3) == Fraction(5, 2)
    assert egf_value(f, 4) == 0
    with pytest.raises(IndexError):
        f.coeff(5)
    with pytest.raises(IndexError):
        egf_value(f, 9)


# -- algebra properties over random inputs ---------------------------------


def test_leibniz_rule():
    rng = random.Random(3)
    for _ in range(30):
        order = rng.randint(2, 8)
        f, g = random_series(rng, order), random_series(rng, order)
        lhs = (f * g).derivative()
        rhs = f.derivative() * g.truncate(order - 1) + f.truncate(order - 1) * g.derivative()
        assert lhs == rhs


def test_ring_axioms_small():
    rng = random.Random(5)
    for _ in range(20):
        order = rng.randint(1, 6)
        f = random_series(rng, order)
        g = random_series(rng, order)
        h = random_series(rng, order)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + (-f) == TruncatedSeries([0] * (order + 1))


def test_truncation_commutes_with_mul():
    rng = random.Random(9)
    for _ in range(20):
        order = rng.randint(2, 8)
        cut = rng.randint(1, order - 1)
        f, g = random_series(rng, order), random_series(rng, order)
        assert (f * g).truncate(cut) == f.truncate(cut) * g.truncate(cut)


def test_valuation_and_display():
    f = TruncatedSeries([0, 0, Fraction(1, 2), 0])
    assert f.valuation() == 2
    assert TruncatedSeries([0] * 5).valuation() is None
    assert "Fraction(1, 2)" in repr(f)


def test_equality():
    f = TruncatedSeries.from_egf([(0, 1), (1, 2)], 3)
    g = TruncatedSeries([1, 2, 0, 0])
    assert f == g
    assert f != g.truncate(2)


@pytest.mark.parametrize(
    "value, names",
    [
        (TruncatedSeries([1, Fraction(1, 2), 0]), ("coeffs",)),
        (HodgeTable(2, [Fraction(1, 2), Fraction(1, 4)]), ("degree", "L")),
        (CycleType((1, 2)), ("parts",)),
        (BranchProfile(3, (CycleType((3,)), CycleType((2, 1)))), ("degree", "profiles")),
    ],
    ids=["TruncatedSeries", "HodgeTable", "CycleType", "BranchProfile"],
)
def test_value_types_share_one_idiom(value, names):
    # Read-only fields, equality within the exact class, a hash only for the
    # hurwitz values, and a repr that makes an equal value.
    cls = type(value)
    fields = {name: getattr(value, name) for name in names}
    for name, before in fields.items():
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, before)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
        assert getattr(value, name) is before
    same, sub = cls(**fields), type("Sub", (cls,), {})(**fields)
    assert value == same and value != sub and sub != value
    assert value != tuple(fields.values())
    if cls in (CycleType, BranchProfile):
        assert hash(value) == hash(same)
    else:
        with pytest.raises(TypeError):
            hash(value)
    scope = {"Fraction": Fraction, "CycleType": CycleType, cls.__name__: cls}
    assert eval(repr(value), scope) == value


# -- integer kernel against a schoolbook Fraction oracle ---------------------


def schoolbook_mul(a, b):
    n = len(a) - 1
    out = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a[i] * b[j]
    return out


def schoolbook_div(f, g):
    v = next(k for k, c in enumerate(g) if c)
    f, g = f[v:], g[v:]
    out = []
    for k in range(len(f)):
        acc = f[k] - sum(g[i] * out[k - i] for i in range(1, k + 1))
        out.append(acc / g[0])
    return out


# Zero, integer-only, small and large-denominator coefficients, either sign.
COEFF_KINDS = [
    st.integers(-30, 30).map(Fraction),
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
    st.builds(
        Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40)
    ),
]
NONZERO_SCALARS = st.sampled_from(COEFF_KINDS).flatmap(lambda kind: kind.filter(bool))


@st.composite
def coefficients(draw, length):
    kind = draw(st.sampled_from(COEFF_KINDS))
    return draw(
        st.lists(
            st.one_of(st.just(Fraction(0)), kind), min_size=length, max_size=length
        )
    )


@st.composite
def series_pair(draw):
    order = draw(st.integers(0, 14))
    return draw(coefficients(order + 1)), draw(coefficients(order + 1))


def assert_fraction_series(result, expected):
    assert result == TruncatedSeries(expected)
    # Fraction coefficients keep str() printing p/q or p.
    assert all(type(c) is Fraction for c in result.coeffs)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(series_pair())
def test_mul_matches_schoolbook_oracle(pair):
    a, b = pair
    assert_fraction_series(TruncatedSeries(a) * TruncatedSeries(b), schoolbook_mul(a, b))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(series_pair(), st.integers(0, 4), st.data())
def test_div_matches_schoolbook_oracle(pair, v, data):
    f, g = pair
    order = len(f) - 1
    v = min(v, order)
    # g has valuation exactly v; f is divisible by x^v, as division requires.
    lead = data.draw(NONZERO_SCALARS)
    g = [Fraction(0)] * v + [lead] + g[v + 1:]
    f = [Fraction(0)] * v + f[v:]
    quotient = div(TruncatedSeries(f), TruncatedSeries(g))
    assert quotient.order == order - v
    assert_fraction_series(quotient, schoolbook_div(f, g))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 14).flatmap(coefficients), st.integers(-12, 12).filter(bool))
def test_running_lcm_appends_end_as_the_over_lcm_of_the_row(values, q):
    # The running form ``div`` and ``l3_table`` keep equals, after every
    # append, the batch form the tables' integer rows take.  Values are
    # appended as p/q with p and q ints, p a Fraction as a patched relation
    # makes it, or both Fractions.
    nums, den = [], 1
    for k, value in enumerate(values):
        p, q_k = [
            (value.numerator, value.denominator), (value * q, q), (value / q, Fraction(1, q))
        ][k % 3]
        den = _append_over_lcm(nums, den, p, q_k)
        assert (nums, den) == _over_lcm(values[: k + 1])


# -- the EGF kernel against Fraction oracles on EGF values -------------------
#
# The series stores m! c_m.  These oracles work on those values alone, one
# Fraction at a time, and read the result back through ``egf_value``; the
# coefficients must still be ``Fraction``s.


def egf_values(series):
    return [egf_value(series, m) for m in range(series.order + 1)]


def assert_egf_series(result, values):
    assert egf_values(result) == values
    assert_fraction_series(result, [v / factorial(m) for m, v in enumerate(values)])


def binomial_convolution(a, b):
    return [sum(comb(m, i) * a[i] * b[m - i] for i in range(m + 1)) for m in range(len(a))]


def egf_quotient(f, g):
    # Divide both by x^v, which divides value m + v by (m+v)!/m!, then solve
    # f = h g by the binomial convolution, one value at a time.
    v = next(k for k, c in enumerate(g) if c)
    f = [c / perm(m + v, v) for m, c in enumerate(f[v:])]
    g = [c / perm(m + v, v) for m, c in enumerate(g[v:])]
    h = []
    for m in range(len(f)):
        known = sum(comb(m, i) * h[i] * g[m - i] for i in range(m))
        h.append((f[m] - known) / g[0])
    return h


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(series_pair())
def test_mul_matches_the_binomial_convolution_oracle(pair):
    a, b = pair
    order = len(a) - 1
    product = TruncatedSeries.from_egf(enumerate(a), order) * TruncatedSeries.from_egf(
        enumerate(b), order
    )
    assert_egf_series(product, binomial_convolution(a, b))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(series_pair(), st.integers(0, 4), st.data())
def test_div_matches_the_egf_recurrence_oracle(pair, v, data):
    f, g = pair
    order = len(f) - 1
    v = min(v, order)
    # Values, not coefficients: g has valuation exactly v, f is divisible by
    # x^v, and the quotient has order N - v.
    lead = data.draw(NONZERO_SCALARS)
    g = [Fraction(0)] * v + [lead] + g[v + 1:]
    f = [Fraction(0)] * v + f[v:]
    quotient = div(
        TruncatedSeries.from_egf(enumerate(f), order),
        TruncatedSeries.from_egf(enumerate(g), order),
    )
    assert quotient.order == order - v
    assert_egf_series(quotient, egf_quotient(f, g))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 14).flatmap(lambda n: coefficients(n + 1)))
def test_derivative_multiplies_each_coefficient_by_its_exponent(coeffs):
    derivative = TruncatedSeries(coeffs).derivative()
    assert_fraction_series(derivative, [k * c for k, c in enumerate(coeffs)][1:])
    assert egf_values(derivative) == egf_values(TruncatedSeries(coeffs))[1:]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(COEFF_KINDS).flatmap(lambda kind: kind), st.integers(0, 14))
def test_sin_and_cos_coefficients_are_signed_powers_over_factorials(a, order):
    # sin(ax) has (-1)^((k-1)/2) a^k / k! at odd k, cos(ax) (-1)^(k/2) a^k / k!
    # at even k, and each is zero at the other parity.
    for series, first in ((sin_scaled(a, order), 1), (cos_scaled(a, order), 0)):
        expected = [
            Fraction((-1) ** ((k - first) // 2) * a**k, factorial(k))
            if k % 2 == first else Fraction(0)
            for k in range(order + 1)
        ]
        assert_fraction_series(series, expected)


# Rational c and a of either sign, a = 0 among them.
TRIG_RATIONALS = st.one_of(
    st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=9)
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 1),
    st.lists(st.tuples(TRIG_RATIONALS, TRIG_RATIONALS), max_size=4),
    st.integers(0, 40),
)
@example(0, [(Fraction(1, 9), 0), (Fraction(-1, 9), 3)], 40)
@example(1, [(Fraction(1, 2), 1), (-1, Fraction(-7, 3)), (3, 0)], 40)
def test_trig_sum_matches_the_coefficient_oracle(parity, terms, order):
    # sum c sin(ax) or sum c cos(ax) has sum c (-1)^(m//2) a^m / m! at every
    # m of the parity and zero at the other, one Fraction at a time.
    expected = [
        (-1) ** (m // 2) * sum((c * Fraction(a) ** m for c, a in terms), Fraction(0))
        / factorial(m)
        if m % 2 == parity else Fraction(0)
        for m in range(order + 1)
    ]
    assert_fraction_series(_trig_sum(parity, terms, order), expected)


def test_trig_sum_refuses_float_terms():
    for terms in ([(1, 0.5)], [(0.5, 1)], [(1, 1), (Fraction(1, 2), 2.0)]):
        with pytest.raises(TypeError):
            _trig_sum(1, terms, 4)


# -- one stored form, whatever the route -------------------------------------
#
# A series stores its EGF values as one integer row over one denominator in
# lowest terms, and equality compares the rows: a route that left its row
# unreduced, or over a negative denominator, would make equal series unequal.


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(series_pair(), st.data())
def test_every_route_to_a_series_compares_equal(pair, data):
    a, b = pair
    order = len(a) - 1
    split = data.draw(coefficients(order + 1))
    tail = data.draw(coefficients(data.draw(st.integers(1, 4))))
    c = data.draw(NONZERO_SCALARS)
    lead = data.draw(NONZERO_SCALARS)
    s, t = TruncatedSeries(a), TruncatedSeries(b)
    unit = TruncatedSeries([lead, *b[1:]])
    # Each EGF value m! a_m comes in two parts at the same exponent.
    halves = [
        term
        for m, (x, w) in enumerate(zip(a, split))
        for term in ((m, x * factorial(m) - w), (m, w))
    ]
    routes = {
        "constructor": s,
        "from_egf": TruncatedSeries.from_egf(halves, order),
        "scalar round trip": (s * c) / c,
        "over a negative scalar": (s / -abs(c)) * -abs(c),
        "negated twice": -(-s),
        "difference and sum": (s - t) + t,
        "product and quotient": div(s * unit, unit),
        "truncate": TruncatedSeries(a + tail).truncate(order),
    }
    for route, series in routes.items():
        assert series == s, route
        assert series.coeffs == tuple(a), route
        assert all(type(x) is Fraction for x in series.coeffs), route
        assert egf_values(series) == [x * factorial(m) for m, x in enumerate(a)], route
