import functools
import math
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import islice, product
from itertools import permutations as orderings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admcalc import hodge, hurwitz
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
from admcalc.hurwitz import (
    _class_images,
    _connected_covers,
    _covers_by_genus,
    _merge,
)
from admcalc.series import egf_value

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
    assert CycleType(parts=[2, 3, 1]).parts == (3, 2, 1)
    assert CycleType((1, 3, 2)).degree == 6
    for bad in [(0, 2), [2, -1], (1.0, 2)]:
        message = f"cycle lengths must be positive integers: {bad}"
        with pytest.raises(ValueError) as info:
            CycleType(bad)
        assert str(info.value) == message


def test_branch_profile_validation():
    with pytest.raises(ValueError, match="^degree must be >= 1$"):
        BranchProfile(0, ())
    # A float degree would compare equal to the int one and fail deep in
    # the count.
    for bad in (2.0, Fraction(2), "2", None):
        message = f"^degree must be an int, not {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            BranchProfile(bad, ())
    with pytest.raises(ValueError, match=r"^cycle type \(2, 2\) does not partition 3$"):
        profile(3, (2, 2))
    with pytest.raises(ValueError, match=r"^cycle type \(2, 1\) does not partition 4$"):
        BranchProfile(degree=4, profiles=[CycleType((4,)), CycleType((1, 2))])
    p = BranchProfile(degree=3, profiles=[CycleType((3,)), CycleType((1, 2))])
    assert p.profiles == (CycleType((3,)), CycleType((2, 1)))


def test_cycle_types_and_profiles_are_read_only_values():
    t = CycleType((1, 2))
    p = BranchProfile(3, (CycleType((3,)), t))
    assert t == CycleType(parts=(2, 1)) and hash(t) == hash(CycleType((2, 1)))
    assert t != CycleType((3,)) and t != (2, 1)
    assert p == profile(3, (3,), (1, 2)) and hash(p) == hash(profile(3, (3,), (2, 1)))
    assert p != profile(3, (3,), (3,)) and p != BranchProfile(3, (t, CycleType((3,))))
    assert len({t, CycleType((2, 1)), CycleType((3,))}) == 2
    assert repr(t) == "CycleType(parts=(2, 1))"
    assert repr(p) == (
        "BranchProfile(degree=3, profiles=(CycleType(parts=(3,)), CycleType(parts=(2, 1))))"
    )
    for value, name in [(t, "parts"), (p, "degree"), (p, "profiles")]:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before


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
    # (2^1000) in S_2000 would need one recursion level per transposition,
    # past the interpreter's stack; both the class and a count are refused
    # by the size of the class list, before any of its ~10^2866 elements is
    # built.
    parts = (2,) * 1000
    with pytest.raises(EnumerationBoundError, match="class lists"):
        permutations_with_type(2000, CycleType(parts))
    # (8, 2, 1) in S_11 has 2,494,800 members, 11 entries each.
    with pytest.raises(EnumerationBoundError, match="class lists"):
        permutations_with_type(11, CycleType((8, 2, 1)))
    deep = profile(2000, parts, parts)
    with pytest.raises(EnumerationBoundError, match="class lists"):
        hurwitz_count(deep, max_tuples=10**4000)
    # The count would build one 11-cycle, but the bound counts the whole
    # class of the first point: 11 * 10! entries.
    with pytest.raises(EnumerationBoundError, match="class lists"):
        hurwitz_count(profile(11, (11,), (11,)))


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
    # Cheap since one class is fixed to one member (the fold over every
    # member took 20-40 s).  Three odd permutations cannot multiply to 1.
    assert hurwitz_count(profile(8, (8,), (8,), (8,))) == 0
    assert hurwitz_count(profile(9, (3, 3, 3), (3, 3, 3), (3, 3, 3))) == Fraction(4, 9)


def test_empty_profile():
    assert hurwitz_count(BranchProfile(1, ())) == 1
    assert hurwitz_count(BranchProfile(2, ())) == 0
    assert hurwitz_count(BranchProfile(2, ()), connected=False) == Fraction(1, 2)
    assert hurwitz_count(BranchProfile(3, ()), connected=False) == Fraction(1, 6)
    # One unbranched point: the bound is the empty product 1, as for one point.
    for empty in (BranchProfile(2, ()), profile(2, (1, 1))):
        with pytest.raises(EnumerationBoundError):
            hurwitz_count(empty, max_tuples=0)
        assert hurwitz_count(empty, max_tuples=1) == 0
        assert hurwitz_count(empty, connected=False, max_tuples=1) == Fraction(1, 2)


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


PARTITIONS_5 = [(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1,) * 5]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.sampled_from(PARTITIONS_5), min_size=2, max_size=3), st.booleans()
)
def test_fixed_class_matches_product_oracle_at_degree_5(types, connected):
    # The drawn test above stops at degree 4, where a fixed class has at
    # most 8 members; at degree 5 it has up to 30.
    assert hurwitz_count(profile(5, *types), connected) == oracle_count(
        5, types, connected
    )


def spy_class_images(monkeypatch):
    """Patch ``_class_images`` to record how many members each class yields."""
    built = Counter()

    def spy(d, parts):
        for images in _class_images(d, parts):
            built[parts] += 1
            yield images

    monkeypatch.setattr(hurwitz, "_class_images", spy)
    return built


def test_one_class_is_fixed_to_one_member(monkeypatch):
    built = spy_class_images(monkeypatch)
    assert hurwitz_count(profile(9, (9,), (9,))) == Fraction(1, 9)
    assert built == {(9,): 1}

    # The 7-cycles, the largest class, give one member; the other class is
    # listed whole, once.
    built = spy_class_images(monkeypatch)
    assert hurwitz_count(profile(7, (7,), (2, 1, 1, 1, 1, 1), (6, 1))) == 1
    assert built == {(7,): 1, (2, 1, 1, 1, 1, 1): 21}


# -- the merge: orbits of the sheets -----------------------------------------


def orbit_closure(part, images):
    """Each sheet's least sheet reachable through same-block pairs and the
    pairs (i, images[i]), computed to a fixpoint."""
    d = len(part)
    pairs = [(i, j) for i in range(d) for j in range(d) if part[i] == part[j]]
    pairs += list(enumerate(images))
    least = list(range(d))
    changed = True
    while changed:
        changed = False
        for i, j in pairs:
            low = min(least[i], least[j])
            if least[i] != low or least[j] != low:
                least[i] = least[j] = low
                changed = True
    return tuple(least)


@st.composite
def partitions_and_permutations(draw):
    d = draw(st.integers(1, 9))
    images = tuple(draw(st.permutations(range(d))))
    labels = draw(st.lists(st.integers(0, d - 1), min_size=d, max_size=d))
    part = tuple(labels.index(label) for label in labels)
    return part, images


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(partitions_and_permutations())
def test_merge_matches_the_orbit_closure(drawn):
    part, images = drawn
    assert _merge(part, images) == orbit_closure(part, images)


def spy_merge(monkeypatch):
    """Patch ``_merge`` to record the (part, images) pairs it is called on."""
    calls = []

    def spy(part, images):
        calls.append((part, images))
        return _merge(part, images)

    monkeypatch.setattr(hurwitz, "_merge", spy)
    return calls


def test_fold_merges_each_pair_once(monkeypatch):
    # The fold's merge is cached for the fold, and the single block, which
    # no merge changes, never reaches it.
    calls = spy_merge(monkeypatch)
    assert hurwitz_count(profile(5, (3, 1, 1), (2, 2, 1), (4, 1), (4, 1))) == 33
    assert calls and len(set(calls)) == len(calls)
    assert all(any(part) for part, _ in calls)

    # A disconnected count starts from the single block, so it merges nothing.
    calls = spy_merge(monkeypatch)
    types = (4, 1), (3, 1, 1), (3, 1, 1), (4, 1)
    assert hurwitz_count(profile(5, *types), connected=False) == 52
    assert calls == []


# -- guardrail -------------------------------------------------------------


def test_enumeration_bound():
    big = profile(3, *([(2, 1)] * 4))
    with pytest.raises(EnumerationBoundError):
        hurwitz_count(big, max_tuples=26)
    assert hurwitz_count(big, max_tuples=27) == 4
    # Still the product of the first n-1 class sizes, the fixed class's too.
    eights = profile(8, (8,), (8,), (8,))
    with pytest.raises(EnumerationBoundError, match="exceeds the bound"):
        hurwitz_count(eights, max_tuples=5040**2 - 1)
    assert hurwitz_count(eights, max_tuples=5040**2) == 0
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


@pytest.mark.parametrize(
    "family, special, simple",
    [(p2, [], lambda g: [(2,)] * (2 * g + 2)),
     (p3_full, [(3,)], lambda g: [(2, 1)] * (2 * g + 2)),
     (p3_trans, [], lambda g: [(2, 1)] * (2 * g + 4))],
    ids=["p2", "p3_full", "p3_trans"],
)
def test_families_keep_their_profiles(monkeypatch, family, special, simple):
    # Riemann-Hurwitz sets the number of simple points; the special ones come
    # first, since the order of the points sets the fold's work.
    calls = []

    def record(profile, connected):
        calls.append(([t.parts for t in profile.profiles], connected))
        return Fraction(0)

    monkeypatch.setattr(hurwitz, "hurwitz_count", record)
    for g in range(5):
        family(g)
    assert calls == [(special + simple(g), True) for g in range(5)]
    with pytest.raises(ValueError, match="genus must be >= 0"):
        family(-1)
    assert len(calls) == 5


# -- the per-genus fold ----------------------------------------------------


@st.composite
def families(draw):
    """A degree, special cycle types that leave a simple point at genus 0,
    and a gmax."""
    d = draw(st.sampled_from([2, 3]))
    special = draw(
        st.lists(st.sampled_from(PARTITIONS[d]), max_size=3).filter(
            lambda special: sum(d - len(parts) for parts in special) < 2 * d - 2
        )
    )
    return d, special, draw(st.integers(0, 8))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(families())
def test_fold_by_genus_matches_the_public_count(drawn):
    # Each genus the bound admits, against hurwitz_count on the same profile.
    d, special, gmax = drawn
    folded = list(_covers_by_genus(d, gmax, *special))
    assert [g for g, _ in folded] == list(range(gmax + 1))
    for g, value in folded:
        try:
            expected = _connected_covers(d, g, *special)
        except EnumerationBoundError:
            break
        assert value == expected


def test_fold_by_genus_matches_the_closed_forms():
    for (d, *special), closed in [
        ((3, (3,)), hodge.p3_full_closed),
        ((3,), hodge.p3_trans_closed),
        ((2,), hodge.p2_closed),
    ]:
        assert all(
            value == closed(g) for g, value in _covers_by_genus(d, 200, *special)
        )


ONE_PART_GMAX = {2: 8, 3: 8, 4: 6, 5: 5, 6: 5, 7: 2}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_one_part_fold_matches_the_sine_power(data):
    # One d-cycle and 2g+d-1 simple points (Shapiro-Shapiro-Vainshtein):
    # (-1)^g d^(2g+d-2) v / d!, with v the EGF value at x^(2g+d-1) of
    # (2 sin(x/2))^(d-1), the closed forms' numerator, which no verify
    # suite reads above degree 3.
    d = data.draw(st.integers(2, 7), label="d")
    gmax = data.draw(st.integers(0, ONE_PART_GMAX[d]), label="gmax")
    numerator = hodge._sine_power(d - 1, 2 * gmax + d - 1)
    for g, value in _covers_by_genus(d, gmax, (d,)):
        v = egf_value(numerator, 2 * g + d - 1)
        assert value == (-1) ** g * d ** (2 * g + d - 2) * v / math.factorial(d)


def shapes(d, largest=None):
    """The partitions of d, as Young diagram row lengths."""
    if d == 0:
        yield ()
        return
    for first in range(min(d, largest or d), 0, -1):
        for rest in shapes(d - first, first):
            yield (first,) + rest


def dimension(shape):
    """dim of the irreducible representation, by the hook-length formula."""
    columns = [sum(row > j for row in shape) for j in range(max(shape, default=0))]
    hooks = math.prod(
        (row - j) + (columns[j] - i) - 1 for i, row in enumerate(shape) for j in range(row)
    )
    return math.factorial(sum(shape)) // hooks


@functools.cache
def simple_covers(d, r):
    """Tuples of r transpositions in S_d with product 1, weighted by 1/d!
    (Frobenius): the sum over shapes of (dim / d!)^2 times the content sum,
    the transposition's central character, to the r."""
    return sum(
        Fraction(dimension(shape), math.factorial(d)) ** 2
        * sum(j - i for i, row in enumerate(shape) for j in range(row)) ** r
        for shape in shapes(d)
    )


@functools.cache
def connected_simple_covers(d, r):
    """The transitive ones, by the exponential formula on the component of
    sheet 1 (Goulden-Jackson): it has k sheets and r1 of the points."""
    total = simple_covers(d, r)
    for k in range(1, d):
        for r1 in range(r + 1):
            total -= (
                math.comb(d - 1, k - 1) * math.comb(r, r1)
                * connected_simple_covers(k, r1) * simple_covers(d - k, r - r1)
                * Fraction(math.factorial(k) * math.factorial(d - k), math.factorial(d))
            )
    return total


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 5), st.integers(0, 6))
def test_content_sums_match_the_fold(d, gmax):
    # All-simple covers, 2g+2d-2 points at genus g: no enumeration here.
    for g, value in _covers_by_genus(d, gmax):
        assert value == connected_simple_covers(d, 2 * g + 2 * d - 2)


def test_content_sums_match_the_p3_trans_closed_form():
    for g in range(30):
        assert connected_simple_covers(3, 2 * g + 4) == hodge.p3_trans_closed(g)


def test_fold_by_genus_needs_a_simple_point_at_genus_0():
    with pytest.raises(ValueError, match="no simple point"):
        next(_covers_by_genus(2, 3, (2,), (2,)))
    with pytest.raises(ValueError, match="no simple point"):
        next(_covers_by_genus(1, 3))
