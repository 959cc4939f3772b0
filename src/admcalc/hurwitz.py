"""Branched-cover counts by direct monodromy enumeration.

A degree-d cover of the sphere with n marked branch points is the same data
as an n-tuple of permutations in S_d with prescribed cycle types whose
ordered product is the identity; the cover is connected exactly when the
tuple acts transitively on the d sheets.  Counts are normalised by 1/d!
(equivalently: tuples are weighted by the reciprocal of the order of S_d),
so they are rationals, not integers.

Enumeration folds the first n-1 slots from left to right.  The state after
a slot is the running product and, for connected counts, the partition of
the sheets into the orbits of the permutations so far; tuples that reach
the same state are kept once, with their multiplicity.  The last
permutation is forced (it inverts the product), so closing the fold checks
its cycle type and, for connected counts, that it joins the orbits into
one.  Each conjugacy class is built directly from its cycle structure,
never by scanning S_d.

A hard bound on the raw search space, the product of the first n-1
conjugacy class sizes, guards against accidental explosions.  It counts the
tuples the fold stands for; no slot of the fold holds more states than that.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from operator import itemgetter
from typing import Iterator, Sequence

__all__ = [
    "DEFAULT_MAX_TUPLES",
    "EnumerationBoundError",
    "Permutation",
    "CycleType",
    "BranchProfile",
    "permutations_with_type",
    "is_transitive",
    "hurwitz_count",
    "p2",
    "p3_full",
    "p3_trans",
]

DEFAULT_MAX_TUPLES = 10**9


class EnumerationBoundError(RuntimeError):
    """Raw tuple space exceeds the configured enumeration bound."""


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


@dataclass(frozen=True)
class Permutation:
    """Bijection of {1, ..., d}; images[i-1] is the image of i."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.images)}: {self.images}")

    @classmethod
    def identity(cls, d: int) -> "Permutation":
        return cls(tuple(range(1, d + 1)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition (self * other)(i) = self(other(i))."""
        if self.degree != other.degree:
            raise ValueError("degrees differ")
        return Permutation(tuple(self.images[j - 1] for j in other.images))

    def cycle_type(self) -> "CycleType":
        zero_based = tuple(j - 1 for j in self.images)
        return CycleType(_type_of_images(zero_based))


@dataclass(frozen=True)
class CycleType:
    """Partition recording the cycle lengths of a permutation."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(sorted(self.parts, reverse=True))
        if any(not isinstance(p, int) or p < 1 for p in parts):
            raise ValueError(f"cycle lengths must be positive integers: {self.parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def degree(self) -> int:
        return sum(self.parts)


@dataclass(frozen=True)
class BranchProfile:
    """Degree plus one cycle type per branch point."""

    degree: int
    profiles: tuple[CycleType, ...]

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        object.__setattr__(self, "profiles", tuple(self.profiles))
        for t in self.profiles:
            if t.degree != self.degree:
                raise ValueError(
                    f"cycle type {t.parts} does not partition {self.degree}"
                )


def _class_images(d: int, parts: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Yield each permutation of S_d with cycle type ``parts`` exactly once,
    as a 0-based image tuple.

    The least point not yet placed opens a cycle of each length still
    available, and an ordered choice of the cycle's other points follows, so
    every permutation is built from its cycles written from their least
    point.  The walk keeps its own stack: a class with many fixed points
    would otherwise nest one call per point.
    """
    left = Counter(parts)
    images = list(range(d))
    free = [True] * d

    def complete() -> bool:
        # Only fixed points remain, and free points already map to themselves.
        return not any(left[length] for length in left if length > 1)

    def cycles_from(start: int) -> Iterator[bool]:
        # Each choice is undone before the next, so the state seen when this
        # frame advances is the state it was created in.
        free[start] = False
        others = [i for i in range(start + 1, d) if free[i]]
        for length in [k for k in left if left[k]]:
            left[length] -= 1
            for tail in permutations(others, length - 1):
                cycle = (start, *tail)
                for i, j in zip(cycle, (*tail, start)):
                    images[i] = j
                for i in tail:
                    free[i] = False
                yield True
                for i in cycle:
                    images[i] = i
                for i in tail:
                    free[i] = True
            left[length] += 1
        free[start] = True

    if complete():
        yield tuple(images)
        return
    stack = [cycles_from(0)]
    while stack:
        if not next(stack[-1], False):
            stack.pop()
        elif complete():
            yield tuple(images)
        else:
            stack.append(cycles_from(free.index(True)))


def permutations_with_type(d: int, t: CycleType) -> list[Permutation]:
    """All elements of S_d with the given cycle type (the conjugacy class)."""
    if t.degree != d:
        raise ValueError(f"cycle type {t.parts} does not partition {d}")
    return [
        Permutation(tuple(j + 1 for j in images))
        for images in _class_images(d, t.parts)
    ]


def is_transitive(perms: Sequence[Permutation], d: int) -> bool:
    """Whether the group generated by perms acts transitively on {1..d}."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    reached = {1}
    frontier = [1]
    while frontier:
        i = frontier.pop()
        for p in perms:
            j = p(i)
            if j not in reached:
                reached.add(j)
                frontier.append(j)
    return len(reached) == d


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
    sizes exceeds ``max_tuples``.
    """
    d = profile.degree
    types = [t.parts for t in profile.profiles]
    n = len(types)
    weight = Fraction(1, math.factorial(d))

    if n == 0:
        # The empty tuple generates the trivial group: connected only for d=1.
        if connected and d > 1:
            return Fraction(0)
        return weight

    raw = 1
    for parts in types[:-1]:
        raw *= _class_size(d, parts)
    if raw > max_tuples:
        raise EnumerationBoundError(
            f"search space {raw} exceeds the bound {max_tuples}"
        )
    if d == 1:
        # S_1 is trivial: one tuple of identities, transitive on one sheet.
        # (The fold needs d >= 2: itemgetter of one index is no tuple.)
        return weight

    classes = {parts: list(_class_images(d, parts)) for parts in set(types[:-1])}
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
    states = {(identity, identity if connected else single_block): 1}
    for parts in types[:-1]:
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


def _uniform_profile(d: int, parts: tuple[int, ...], n: int) -> BranchProfile:
    return BranchProfile(d, tuple(CycleType(parts) for _ in range(n)))


def p2(g: int, max_tuples: int = DEFAULT_MAX_TUPLES) -> Fraction:
    """Count of genus-g double covers of the line: 2g+2 simple branch points."""
    if g < 0:
        raise ValueError("genus must be >= 0")
    profile = _uniform_profile(2, (2,), 2 * g + 2)
    return hurwitz_count(profile, connected=True, max_tuples=max_tuples)


def p3_full(g: int, max_tuples: int = DEFAULT_MAX_TUPLES) -> Fraction:
    """Connected degree-3 covers of the line with one point of full
    ramification and 2g+2 simple branch points."""
    if g < 0:
        raise ValueError("genus must be >= 0")
    types = [CycleType((3,))] + [CycleType((2, 1))] * (2 * g + 2)
    profile = BranchProfile(3, tuple(types))
    return hurwitz_count(profile, connected=True, max_tuples=max_tuples)


def p3_trans(g: int, max_tuples: int = DEFAULT_MAX_TUPLES) -> Fraction:
    """Connected degree-3 covers of the line with 2g+4 simple branch points."""
    if g < 0:
        raise ValueError("genus must be >= 0")
    profile = _uniform_profile(3, (2, 1), 2 * g + 4)
    return hurwitz_count(profile, connected=True, max_tuples=max_tuples)
