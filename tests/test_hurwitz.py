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
    Permutation,
    hurwitz_count,
    is_transitive,
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


# -- basic group plumbing --------------------------------------------------


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation((0, 1))


def test_compose_and_inverse():
    p = Permutation((2, 3, 1))
    q = Permutation((2, 1, 3))
    p_inverse = Permutation((3, 1, 2))
    assert (p * q).images == (3, 2, 1)  # p after q
    assert p * p_inverse == Permutation.identity(3)
    assert p_inverse * p == Permutation.identity(3)
    assert p(1) == 2


def test_cycle_type_values():
    assert Permutation((2, 1, 3)).cycle_type().parts == (2, 1)
    assert Permutation((2, 3, 1)).cycle_type().parts == (3,)
    assert Permutation.identity(4).cycle_type().parts == (1, 1, 1, 1)


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


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_permutations_with_type_is_the_conjugacy_class(d):
    for parts in {tuple(sorted(t.cycle_type().parts, reverse=True))
                  for t in map(Permutation, orderings(range(1, d + 1)))}:
        members = permutations_with_type(d, CycleType(parts))
        assert len(members) == class_size(d, parts)
        assert all(m.cycle_type().parts == parts for m in members)


def scanned_classes(d):
    """Every conjugacy class of S_d, found by filtering all d! permutations."""
    classes = {}
    for images in orderings(range(d)):
        p = Permutation(tuple(j + 1 for j in images))
        classes.setdefault(p.cycle_type().parts, set()).add(images)
    return classes


@pytest.mark.parametrize("d", range(1, 8))
def test_class_images_match_the_scan(d):
    for parts, members in scanned_classes(d).items():
        built = list(_class_images(d, parts))
        assert len(built) == len(set(built)) == class_size(d, parts)
        assert set(built) == members


def test_class_images_keep_their_own_stack():
    # Fixed points tried first put one open cycle per point on the stack;
    # 1199 of them would overflow the interpreter's recursion limit.
    parts = (1,) * 1198 + (2,)
    (first,) = islice(_class_images(1200, parts), 1)
    assert first == tuple(range(1198)) + (1199, 1198)


def test_is_transitive():
    tau = Permutation((2, 1, 3))
    rho = Permutation((1, 3, 2))
    assert not is_transitive([tau], 3)
    assert is_transitive([tau, rho], 3)
    assert is_transitive([Permutation((2, 3, 1))], 3)
    assert is_transitive([], 1)
    assert not is_transitive([], 2)


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
    members = [
        [Permutation(tuple(j + 1 for j in images)) for images in classes[parts]]
        for parts in types
    ]
    identity = Permutation.identity(d)
    hits = 0
    for perms in product(*members):
        total = identity
        for p in perms:
            total = p * total
        if total == identity and (not connected or is_transitive(perms, d)):
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


def test_p3_trans_respects_bound():
    with pytest.raises(EnumerationBoundError):
        p3_trans(3, max_tuples=100)
