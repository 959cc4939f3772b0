import math
import random
from fractions import Fraction
from itertools import islice, product
from itertools import permutations as orderings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admcalc.hurwitz import (
    BranchProfile,
    CycleType,
    EnumerationBoundError,
    hurwitz_count,
    p2,
    p3_full,
    p3_trans,
    permutations_with_type,
)
from admcalc.hurwitz import _class_images

PARTITIONS = {
    1: [(1,)],
    2: [(2,), (1, 1)],
    3: [(3,), (2, 1), (1, 1, 1)],
    4: [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)],
}


def profile(d, *types):
    return BranchProfile(d, tuple(CycleType(t) for t in types))


# -- the oracle's permutations: 0-based image tuples ------------------------


def compose(p, q):
    """p after q."""
    return tuple(p[j] for j in q)


def cycle_type(images):
    seen, parts = set(), []
    for start in range(len(images)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i = images[i]
            length += 1
        if length:
            parts.append(length)
    return tuple(sorted(parts, reverse=True))


def transitive(perms, d):
    reached, frontier = {0}, [0]
    while frontier:
        i = frontier.pop()
        for p in perms:
            if p[i] not in reached:
                reached.add(p[i])
                frontier.append(p[i])
    return len(reached) == d


def test_oracle_helpers():
    assert compose((1, 2, 0), (1, 0, 2)) == (2, 1, 0)
    assert cycle_type((1, 0, 2)) == (2, 1)
    assert cycle_type((1, 2, 0)) == (3,)
    assert not transitive([(1, 0, 2)], 3)
    assert transitive([(1, 0, 2), (0, 2, 1)], 3)
    assert transitive([], 1) and not transitive([], 2)


def test_cycle_type_normalises_and_validates():
    assert CycleType((1, 3, 2)).parts == (3, 2, 1)
    with pytest.raises(ValueError):
        CycleType((0, 2))


def test_branch_profile_validation():
    with pytest.raises(ValueError):
        BranchProfile(0, ())
    with pytest.raises(ValueError):
        profile(3, (2, 2))


def class_size(d, parts):
    centraliser = 1
    for length in set(parts):
        m = parts.count(length)
        centraliser *= length**m * math.factorial(m)
    return math.factorial(d) // centraliser


def scanned_classes(d):
    """Every conjugacy class of S_d, found by filtering all d! permutations."""
    classes = {}
    for images in orderings(range(d)):
        classes.setdefault(cycle_type(images), set()).add(images)
    return classes


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_permutations_with_type_is_the_conjugacy_class(d):
    for parts in scanned_classes(d):
        members = permutations_with_type(d, CycleType(parts))
        assert len(members) == class_size(d, parts)
        assert all(cycle_type(m) == parts for m in members)


@pytest.mark.parametrize("d", range(1, 8))
def test_class_images_match_the_scan(d):
    for parts, members in scanned_classes(d).items():
        built = list(_class_images(d, parts))
        assert len(built) == len(set(built)) == class_size(d, parts)
        assert set(built) == members


def test_class_images_skip_fixed_points():
    # The moved points are chosen first: the 1198 fixed points open no frame
    # each, so the first member comes from one cycle on the least two points.
    parts = (1,) * 1198 + (2,)
    (first,) = islice(_class_images(1200, parts), 1)
    assert first == (1, 0) + tuple(range(2, 1200))


def test_class_too_deep_to_build_is_refused():
    # (2^1000) in S_2000 needs one recursion level per transposition, past the
    # interpreter's stack; building it ends in the bound error at the first
    # member instead of building any of its ~10^2866 elements.  A count
    # refuses it earlier, by the size of its class list.
    parts = (2,) * 1000
    with pytest.raises(EnumerationBoundError, match="1000 non-trivial cycles"):
        next(_class_images(2000, parts))
    deep = profile(2000, parts, parts)
    with pytest.raises(EnumerationBoundError, match="class lists"):
        hurwitz_count(deep, max_tuples=10**4000)


# -- counting: frozen examples ---------------------------------------------


def test_known_counts():
    assert hurwitz_count(profile(3, (3,), (2, 1), (2, 1))) == 1
    assert hurwitz_count(profile(3, (2, 1), (2, 1), (2, 1), (2, 1))) == 4
    assert hurwitz_count(profile(2, (2,), (2,))) == Fraction(1, 2)
    # same tuple space, without the transitivity requirement
    assert (
        hurwitz_count(profile(3, (2, 1), (2, 1), (2, 1), (2, 1)), connected=False)
        == Fraction(9, 2)
    )


def test_empty_profile():
    assert hurwitz_count(BranchProfile(1, ())) == 1
    assert hurwitz_count(BranchProfile(2, ())) == 0
    assert hurwitz_count(BranchProfile(2, ()), connected=False) == Fraction(1, 2)


def test_single_point_profile():
    assert hurwitz_count(profile(1, (1,))) == 1
    assert hurwitz_count(profile(3, (1, 1, 1)), connected=False) == Fraction(1, 6)
    assert hurwitz_count(profile(3, (3,))) == 0  # a lone 3-cycle is not the identity


def test_deg2_parity_rule():
    for k in range(8):
        got = hurwitz_count(profile(2, *([(2,)] * k)))
        if k % 2 == 1:
            assert got == 0
        elif k > 0:
            assert got == Fraction(1, 2)
        else:
            assert got == 0


def test_profile_permutation_symmetry_exhaustive():
    # All degree <= 3 profiles with at most 5 branch points, every ordering.
    from itertools import combinations_with_replacement

    for d in (2, 3):
        for n in range(2, 6):
            for multiset in combinations_with_replacement(PARTITIONS[d], n):
                for connected in (True, False):
                    counts = {
                        hurwitz_count(profile(d, *arrangement), connected)
                        for arrangement in set(orderings(multiset))
                    }
                    assert len(counts) == 1


def test_disconnected_dominates_connected_and_integrality():
    rng = random.Random(17)
    for _ in range(40):
        d = rng.choice([2, 3])
        n = rng.randint(2, 5)
        types = [rng.choice(PARTITIONS[d]) for _ in range(n)]
        conn = hurwitz_count(profile(d, *types))
        disc = hurwitz_count(profile(d, *types), connected=False)
        assert disc >= conn >= 0
        assert (conn * math.factorial(d)).denominator == 1
        assert (disc * math.factorial(d)).denominator == 1


def oracle_count(d, types, connected):
    """Weighted tuple count from all n slots, independent of the fold."""
    classes = scanned_classes(d)
    identity = tuple(range(d))
    hits = 0
    for perms in product(*(classes[parts] for parts in types)):
        total = identity
        for p in perms:
            total = compose(p, total)
        if total == identity and (not connected or transitive(perms, d)):
            hits += 1
    return Fraction(hits, math.factorial(d))


@st.composite
def small_profiles(draw):
    d = draw(st.integers(1, 4))
    types = draw(st.lists(st.sampled_from(PARTITIONS[d]), max_size=4))
    return d, types


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(small_profiles(), st.booleans())
def test_fold_matches_product_oracle(drawn, connected):
    d, types = drawn
    assert hurwitz_count(profile(d, *types), connected) == oracle_count(
        d, types, connected
    )


# -- guardrail -------------------------------------------------------------


def test_enumeration_bound():
    big = profile(3, *([(2, 1)] * 4))
    with pytest.raises(EnumerationBoundError):
        hurwitz_count(big, max_tuples=26)
    assert hurwitz_count(big, max_tuples=27) == 4
    with pytest.raises(ValueError, match="max_tuples must be >= 0"):
        hurwitz_count(big, max_tuples=-1)


def test_refusal_forms_one_factorial_of_the_degree(monkeypatch):
    # Three equal classes: one class size is formed, and no 1/d! weight.
    formed = []
    factorial = math.factorial

    def spy(n):
        formed.append(n)
        return factorial(n)

    monkeypatch.setattr(math, "factorial", spy)
    with pytest.raises(EnumerationBoundError, match="exceeds the bound 10$"):
        hurwitz_count(profile(50, (50,), (50,), (50,)), max_tuples=10)
    assert formed.count(50) == 1


# -- closed forms beyond degree 3 ------------------------------------------


def sinhc_power_coeff(k, power):
    """[t^(2k)] (sinh(t/2)/(t/2))^power, by plain Fraction polynomial products."""
    base = [Fraction(1, 4**j * math.factorial(2 * j + 1)) for j in range(k + 1)]
    out = [Fraction(1)] + [Fraction(0)] * k
    for _ in range(power):
        out = [sum(out[i] * base[j - i] for i in range(j + 1)) for j in range(k + 1)]
    return out[k]


def one_part_hurwitz(d, g):
    """One d-cycle and r = 2g+d-1 simple points (Shapiro-Shapiro-Vainshtein;
    Goulden-Jackson-Vakil)."""
    r = 2 * g + d - 1
    scale = Fraction(math.factorial(r) * d ** (r - 1), math.factorial(d))
    return scale * sinhc_power_coeff(g, d - 1)


def test_one_part_closed_form_pins():
    assert [one_part_hurwitz(2, g) for g in range(3)] == [Fraction(1, 2)] * 3
    assert [one_part_hurwitz(3, g) for g in range(3)] == [1, 9, 81]
    assert [one_part_hurwitz(4, g) for g in range(3)] == [4, 160, 5824]
    assert [one_part_hurwitz(5, g) for g in range(3)] == [25, 3125, 328125]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("g", [0, 1, 2])
def test_one_part_counts_match_closed_form(d, g):
    simple = (2,) + (1,) * (d - 2)
    types = [(d,)] + [simple] * (2 * g + d - 1)
    got = hurwitz_count(profile(d, *types), max_tuples=10**20)
    assert got == one_part_hurwitz(d, g)


@pytest.mark.parametrize(
    "d, expected", [(2, Fraction(1, 2)), (3, 4), (4, 120), (5, 8400)]
)
def test_genus_zero_simple_counts_match_hurwitz_formula(d, expected):
    # Hurwitz: (2d-2)! d^(d-3) / d! covers with 2d-2 simple branch points.
    closed = Fraction(math.factorial(2 * d - 2)) * Fraction(d) ** (d - 3)
    assert closed / math.factorial(d) == expected
    simple = (2,) + (1,) * (d - 2)
    assert hurwitz_count(profile(d, *([simple] * (2 * d - 2)))) == expected


# -- the three cover families ----------------------------------------------


def test_p2_constant_half():
    assert [p2(g) for g in range(5)] == [Fraction(1, 2)] * 5
    with pytest.raises(ValueError):
        p2(-1)


def test_p3_families_match_closed_forms():
    assert [p3_full(g) for g in range(3)] == [1, 9, 81]
    assert [p3_trans(g) for g in range(3)] == [4, 40, 364]
    with pytest.raises(ValueError):
        p3_full(-2)
    with pytest.raises(ValueError):
        p3_trans(-1)
