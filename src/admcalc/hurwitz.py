"""Branched-cover counts by direct monodromy enumeration.

A degree-d cover of the sphere with n marked branch points is the same data
as an n-tuple of permutations in S_d with prescribed cycle types whose
ordered product is the identity; the cover is connected exactly when the
tuple acts transitively on the d sheets.  Counts are normalised by 1/d!
(equivalently: tuples are weighted by the reciprocal of the order of S_d),
so they are rationals, not integers.  ``_connected_covers`` alone counts the
simple branch points of ``p2``, ``p3_full`` and ``p3_trans``, by Riemann-Hurwitz.

Enumeration folds the first n-1 slots from left to right.  The state after
a slot is the running product and, for connected counts, the partition of
the sheets into the orbits of the permutations so far; tuples that reach
the same state are kept once, with their multiplicity.  Simultaneous
conjugation keeps the classes, the product and transitivity, so every
member of a class has as many completions: the largest class among the
first n-1 is fixed to one member, which starts the fold, and its tuples
are counted |C| times.
The last permutation is forced (it inverts the product), so closing the
fold checks its cycle type and, for connected counts, that it joins the
orbits into one.  Each conjugacy class is built from its cycle structure,
never by scanning S_d: its moved points are chosen first, then its cycles
are placed among them, one recursion level per non-trivial cycle.

A hard bound on the raw search space, the product of the first n-1
conjugacy class sizes, guards against accidental explosions.  It counts the
tuples the fold stands for, so it overstates the fold's work by the size of
the fixed class.  A second, fixed bound caps the memory of the class lists:
their entries, the sum of |C| * d over the distinct classes of the first
n-1 points (the fixed one included), may not pass MAX_CLASS_ENTRIES;
``permutations_with_type`` holds one class to the same bound.  Under it a
class has at most 7 non-trivial cycles (the least with 8, eight
transpositions in S_16, has 2,027,025 members of 16 entries), so the
recursion that builds a class stays shallow.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator
from fractions import Fraction
from itertools import combinations, permutations
from operator import itemgetter

__all__ = [
    "DEFAULT_MAX_TUPLES",
    "MAX_CLASS_ENTRIES",
    "EnumerationBoundError",
    "CycleType",
    "BranchProfile",
    "permutations_with_type",
    "hurwitz_count",
    "p2",
    "p3_full",
    "p3_trans",
]

DEFAULT_MAX_TUPLES = 10**9
# Image-tuple entries all class lists of one count may hold, about 80 MB of
# references.  It is fixed: ``max_tuples`` does not move it.
MAX_CLASS_ENTRIES = 10**7


class EnumerationBoundError(RuntimeError):
    """Raw tuple space exceeds the configured enumeration bound, or the
    class lists would pass MAX_CLASS_ENTRIES."""


def _type_of_images(images: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle lengths of a 0-based permutation tuple, sorted descending."""
    d = len(images)
    seen = [False] * d
    parts = []
    for start in range(d):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = images[i]
            length += 1
        parts.append(length)
    parts.sort(reverse=True)
    return tuple(parts)


class _ReadOnly:
    """Attributes that cannot be rebound or deleted once ``__init__`` has
    written them into ``__dict__``."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class CycleType(_ReadOnly):
    """Partition recording the cycle lengths of a permutation, longest first."""

    def __init__(self, parts: tuple[int, ...]):
        ordered = tuple(sorted(parts, reverse=True))
        if any(not isinstance(p, int) or p < 1 for p in ordered):
            raise ValueError(f"cycle lengths must be positive integers: {parts}")
        self.__dict__["parts"] = ordered

    @property
    def degree(self) -> int:
        return sum(self.parts)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"CycleType(parts={self.parts!r})"


class BranchProfile(_ReadOnly):
    """Degree plus one cycle type per branch point."""

    def __init__(self, degree: int, profiles: tuple[CycleType, ...]):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        profiles = tuple(profiles)
        for t in profiles:
            if t.degree != degree:
                raise ValueError(f"cycle type {t.parts} does not partition {degree}")
        self.__dict__.update(degree=degree, profiles=profiles)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.degree, self.profiles) == (other.degree, other.profiles)

    def __hash__(self) -> int:
        return hash((self.degree, self.profiles))

    def __repr__(self) -> str:
        return f"BranchProfile(degree={self.degree!r}, profiles={self.profiles!r})"


def _class_images(d: int, parts: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Yield each permutation of S_d with cycle type ``parts`` exactly once,
    as a 0-based image tuple.

    The set of moved points is chosen first, so no fixed point is visited.
    Inside it, the least point not yet placed opens a cycle of each length
    still left, and an ordered choice of the cycle's other points follows:
    every permutation is built from its cycles written from their least
    point.  The recursion is one level deep per non-trivial cycle; callers
    bound the class by MAX_CLASS_ENTRIES first, which keeps it shallow.
    """
    cycles = [length for length in parts if length > 1]
    left = Counter(cycles)
    images = list(range(d))

    def cycles_from(free: list[int]) -> Iterator[tuple[int, ...]]:
        start, others = free[0], free[1:]
        for length in [k for k in left if left[k]]:
            left[length] -= 1
            for tail in permutations(others, length - 1):
                for i, j in zip((start, *tail), (*tail, start)):
                    images[i] = j
                rest = [i for i in others if i not in tail]
                if rest:
                    yield from cycles_from(rest)
                else:
                    yield tuple(images)
            left[length] += 1

    if not cycles:
        yield tuple(images)
        return
    for points in combinations(range(d), sum(cycles)):
        yield from cycles_from(list(points))
        for i in points:
            images[i] = i


def permutations_with_type(d: int, t: CycleType) -> list[tuple[int, ...]]:
    """All elements of S_d with the given cycle type (the conjugacy class),
    as 0-based image tuples: entry i is the image of sheet i.

    Raises EnumerationBoundError, before building anything, if the list
    would hold more than MAX_CLASS_ENTRIES image entries.
    """
    if t.degree != d:
        raise ValueError(f"cycle type {t.parts} does not partition {d}")
    if d * _class_size(d, t.parts) > MAX_CLASS_ENTRIES:
        raise EnumerationBoundError(
            f"the class lists would hold more than {MAX_CLASS_ENTRIES} entries"
        )
    return list(_class_images(d, t.parts))


def _class_size(d: int, parts: tuple[int, ...]) -> int:
    """Number of permutations in S_d with the given cycle type."""
    centraliser = 1
    for length in set(parts):
        m = parts.count(length)
        centraliser *= length**m * math.factorial(m)
    return math.factorial(d) // centraliser


def _merge(part: tuple[int, ...], images: tuple[int, ...]) -> tuple[int, ...]:
    """Coarsen a set partition of {0..d-1} by the cycles of a permutation.

    Partitions are canonical tuples: index i maps to the least element of
    its block, so the single-block partition is all zeros.
    """
    # Union-find over the block minima; linking the larger root under the
    # smaller keeps every root the least element of its merged block.
    root = list(range(len(part)))
    for a, b in zip(part, images):
        b = part[b]
        while root[a] != a:
            a = root[a]
        while root[b] != b:
            b = root[b]
        if a < b:
            root[b] = a
        elif b < a:
            root[a] = b
    merged = []
    for a in part:
        while root[a] != a:
            a = root[a]
        merged.append(a)
    return tuple(merged)


def hurwitz_count(
    profile: BranchProfile,
    connected: bool = True,
    max_tuples: int = DEFAULT_MAX_TUPLES,
) -> Fraction:
    """Count monodromy tuples for the profile, weighted by 1/d!.

    With ``connected=True`` only transitive tuples are counted.  Raises
    EnumerationBoundError if the product of the first n-1 conjugacy class
    sizes exceeds ``max_tuples``, or if their distinct classes would hold
    more than MAX_CLASS_ENTRIES image entries, and ValueError if
    ``max_tuples`` is negative.
    """
    if max_tuples < 0:
        raise ValueError("max_tuples must be >= 0")
    d = profile.degree
    types = [t.parts for t in profile.profiles]
    n = len(types)

    if n == 0:
        # The empty tuple generates the trivial group: connected only for d=1.
        if connected and d > 1:
            return Fraction(0)
        return Fraction(1, math.factorial(d))

    # Each distinct class size is formed once, and 1/d! only past the bound:
    # at large degrees every factorial(d) takes seconds.
    sizes = {parts: _class_size(d, parts) for parts in set(types[:-1])}
    raw = math.prod(sizes[parts] for parts in types[:-1])
    if raw > max_tuples:
        # The product is not shown: at large degrees it has millions of
        # decimal digits, and writing them out takes seconds.
        raise EnumerationBoundError(f"search space exceeds the bound {max_tuples}")
    if d * sum(sizes.values()) > MAX_CLASS_ENTRIES:
        raise EnumerationBoundError(
            f"the class lists would hold more than {MAX_CLASS_ENTRIES} entries"
        )
    weight = Fraction(1, math.factorial(d))
    if d == 1:
        # S_1 is trivial: one tuple of identities, transitive on one sheet.
        # (The fold needs d >= 2: itemgetter of one index is no tuple.)
        return weight

    last_type = types[-1]
    single_block = (0,) * d
    merge_cache: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[int, ...]] = {}

    def merged(part: tuple[int, ...], images: tuple[int, ...]) -> tuple[int, ...]:
        if part == single_block:
            return part
        key = (part, images)
        got = merge_cache.get(key)
        if got is None:
            got = _merge(part, images)
            merge_cache[key] = got
        return got

    identity = tuple(range(d))
    start = (identity, identity if connected else single_block)
    folded_types = types[:-1]
    if sizes:
        # The fixed class: one member starts the fold, counted |C| times.
        fixed = max(sizes, key=sizes.get)
        folded_types.remove(fixed)
        rho = next(_class_images(d, fixed))
        start = (rho, merged(start[1], rho))
        weight *= sizes[fixed]
    classes = {parts: list(_class_images(d, parts)) for parts in set(folded_types)}
    states = {start: 1}
    for parts in folded_types:
        folded: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        for (product, part), multiplicity in states.items():
            compose = itemgetter(*product)  # images -> images o product
            for images in classes[parts]:
                key = (compose(images), merged(part, images))
                folded[key] = folded.get(key, 0) + multiplicity
        states = folded

    # The last permutation is forced: product * last = identity.  It is the
    # inverse of the product, so it has the product's cycles.
    total = 0
    for (product, part), multiplicity in states.items():
        if _type_of_images(product) != last_type:
            continue
        if connected and merged(part, product) != single_block:
            continue
        total += multiplicity
    return weight * total


def _connected_covers(d: int, g: int, *special: tuple[int, ...]) -> Fraction:
    """Connected genus-g degree-d covers of the line: the ``special`` cycle types
    first, then the 2g + 2d - 2 - sum(d - len(parts)) simple points they leave."""
    if g < 0:
        raise ValueError("genus must be >= 0")
    simple = 2 * g + 2 * d - 2 - sum(d - len(parts) for parts in special)
    types = [*map(CycleType, special)] + [CycleType((2,) + (1,) * (d - 2))] * simple
    return hurwitz_count(BranchProfile(d, tuple(types)), connected=True)


def p2(g: int) -> Fraction:
    """Count of genus-g double covers of the line: 2g+2 simple branch points."""
    return _connected_covers(2, g)


def p3_full(g: int) -> Fraction:
    """Connected degree-3 covers of the line with one point of full
    ramification and 2g+2 simple branch points."""
    return _connected_covers(3, g, (3,))


def p3_trans(g: int) -> Fraction:
    """Connected degree-3 covers of the line with 2g+4 simple branch points."""
    return _connected_covers(3, g)
