"""Branched-cover counts by direct monodromy enumeration.

A degree-d cover of the sphere with n marked branch points is the same data
as an n-tuple of permutations in S_d with prescribed cycle types whose
ordered product is the identity; the cover is connected exactly when the
tuple acts transitively on the d sheets.  Counts are normalised by 1/d!
(equivalently: tuples are weighted by the reciprocal of the order of S_d),
so they are rationals, not integers.  ``_simple_points`` alone counts the
simple branch points of ``p2``, ``p3_full`` and ``p3_trans``, by Riemann-Hurwitz;
``_connected_covers`` and ``_covers_by_genus`` read it.

Enumeration folds the first n-1 slots from left to right, from the identity
start state.  The state after a slot is the running product and the
partition of the sheets into the orbits of the permutations so far; tuples
that reach the same state are kept once, with their multiplicity.
Simultaneous conjugation keeps the classes, the product and transitivity, so
every member of a class has as many completions: the largest class among the
first n-1 is fixed to one member, folded first as a slot of its own, and its
tuples are counted |C| times.
The last permutation is forced (it inverts the product), so closing the
fold checks its cycle type and that it joins the orbits into one.  The start
state is the one reader of ``connected``: a connected count starts with each
sheet its own orbit, any other count from one block, which no merge changes
and so always passes the close.  A merge relabels: each sheet whose image
lies in another block joins the two under the smaller label.  ``_start``
gives the start state and ``_merge`` cached by ``functools.cache`` for one
fold, with the single block left out of the cache.  An empty profile folds
as one unbranched point: nothing is folded, and the close asks for the
identity.  Each conjugacy class is built from its cycle structure, never by
scanning S_d: its moved points are chosen first, then its cycles are placed
among them, one recursion level per non-trivial cycle.  ``hurwitz_count``
and ``_covers_by_genus`` share the start (``_start``), the slot step and the
close.

``_covers_by_genus`` counts one cover family at every genus 0..gmax from a
single fold.  A genus adds two simple points, so it folds two more slots into
the states of the genus before and closes them once.  It fixes no class and
checks no bound: at most d! Bell(d) states are held per slot (30 at degree
3), so the work is two slots a genus, linear in gmax, which the CLI caps at
5000.

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

import functools
import math
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from itertools import combinations, permutations
from operator import itemgetter

from .series import _Value

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


class CycleType(_Value):
    """Partition recording the cycle lengths of a permutation, longest first."""

    _fields = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        ordered = tuple(sorted(parts, reverse=True))
        if any(not isinstance(p, int) or p < 1 for p in ordered):
            raise ValueError(f"cycle lengths must be positive integers: {parts}")
        self.__dict__["parts"] = ordered

    @property
    def degree(self) -> int:
        return sum(self.parts)


class BranchProfile(_Value):
    """Degree plus one cycle type per branch point."""

    _fields = ("degree", "profiles")

    def __init__(self, degree: int, profiles: tuple[CycleType, ...]):
        if not isinstance(degree, int):
            raise ValueError(f"degree must be an int, not {degree!r}")
        if degree < 1:
            raise ValueError("degree must be >= 1")
        profiles = tuple(profiles)
        for t in profiles:
            if t.degree != degree:
                raise ValueError(f"cycle type {t.parts} does not partition {degree}")
        self.__dict__.update(degree=degree, profiles=profiles)


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
    _check_class_entries(d, [_class_size(d, t.parts)])
    return list(_class_images(d, t.parts))


def _check_class_entries(d: int, sizes: Iterable[int]) -> None:
    """Refuse class lists of S_d with these sizes if, together, they would
    hold more than MAX_CLASS_ENTRIES image entries."""
    if d * sum(sizes) > MAX_CLASS_ENTRIES:
        raise EnumerationBoundError(
            f"the class lists would hold more than {MAX_CLASS_ENTRIES} entries"
        )


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
    its block, so the single-block partition is all zeros.  A sheet and its
    image in two blocks relabel the one with the larger label by the
    smaller, so every label stays the least element of its block.
    """
    label = list(part)
    for i, j in enumerate(images):
        a, b = label[i], label[j]
        if a != b:
            low, high = min(a, b), max(a, b)
            label = [low if x == high else x for x in label]
    return tuple(label)


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
    ``max_tuples`` is negative.  An empty profile is one unbranched point,
    so its bound is the empty product 1.
    """
    if max_tuples < 0:
        raise ValueError("max_tuples must be >= 0")
    d = profile.degree
    *folded_types, last = [t.parts for t in profile.profiles] or [(1,) * d]

    # Each distinct class size is formed once, and 1/d! only past the bound:
    # at large degrees every factorial(d) takes seconds.
    sizes = {parts: _class_size(d, parts) for parts in set(folded_types)}
    raw = math.prod(sizes[parts] for parts in folded_types)
    if raw > max_tuples:
        # The product is not shown: at large degrees it has millions of
        # decimal digits, and writing them out takes seconds.
        raise EnumerationBoundError(f"search space exceeds the bound {max_tuples}")
    _check_class_entries(d, sizes.values())
    weight = Fraction(1, math.factorial(d))
    if d == 1:
        # S_1 is trivial: one tuple of identities, transitive on one sheet.
        # (The fold needs d >= 2: itemgetter of one index is no tuple.)
        return weight

    states, merged = _start(d, connected)
    if sizes:
        # The fixed class: one member is the first slot, counted |C| times.
        fixed = max(sizes, key=sizes.get)
        folded_types.remove(fixed)
        states = _fold_slot(states, [next(_class_images(d, fixed))], merged)
        weight *= sizes[fixed]
    classes = {parts: list(_class_images(d, parts)) for parts in set(folded_types)}
    for parts in folded_types:
        states = _fold_slot(states, classes[parts], merged)
    return weight * _close(states, last, merged)


# A fold's states: (running product, orbit partition) -> multiplicity.
_States = dict[tuple[tuple[int, ...], tuple[int, ...]], int]
_Merger = Callable[[tuple[int, ...], tuple[int, ...]], tuple[int, ...]]


def _start(d: int, connected: bool) -> tuple[_States, _Merger]:
    """The states before the first slot, and the fold's merge.

    The states are the identity, with each sheet its own orbit, or, for a
    count that does not ask for transitivity, one block that no merge
    changes.  The merge is ``_merge`` cached for this fold alone; the single
    block is returned as it is and kept out of the cache.
    """
    identity = tuple(range(d))
    single_block = (0,) * d
    cached = functools.cache(_merge)

    def merged(part: tuple[int, ...], images: tuple[int, ...]) -> tuple[int, ...]:
        return part if part == single_block else cached(part, images)

    return {(identity, identity if connected else single_block): 1}, merged


def _fold_slot(
    states: _States, members: list[tuple[int, ...]], merged: _Merger
) -> _States:
    """The states after one more slot, whose permutation runs over ``members``."""
    folded: _States = {}
    for (product, part), multiplicity in states.items():
        compose = itemgetter(*product)  # images -> images o product
        for images in members:
            key = (compose(images), merged(part, images))
            folded[key] = folded.get(key, 0) + multiplicity
    return folded


def _close(states: _States, last_type: tuple[int, ...], merged: _Merger) -> int:
    """The tuples the states complete with a last permutation of cycle type
    ``last_type`` that joins their orbits into one block."""
    # The last permutation is forced: product * last = identity.  It is the
    # inverse of the product, so it has the product's cycles.
    single_block = (0,) * sum(last_type)
    total = 0
    for (product, part), multiplicity in states.items():
        if _type_of_images(product) != last_type:
            continue
        if merged(part, product) != single_block:
            continue
        total += multiplicity
    return total


def _simple_points(d: int, g: int, special: tuple[tuple[int, ...], ...]) -> int:
    """Riemann-Hurwitz: the simple branch points of a connected genus-g
    degree-d cover of the line besides the ``special`` cycle types."""
    if g < 0:
        raise ValueError("genus must be >= 0")
    return 2 * g + 2 * d - 2 - sum(d - len(parts) for parts in special)


def _connected_covers(d: int, g: int, *special: tuple[int, ...]) -> Fraction:
    """Connected genus-g degree-d covers of the line: the ``special`` cycle types
    first, then the simple points they leave."""
    simple = _simple_points(d, g, special)
    types = [*map(CycleType, special)] + [CycleType((2,) + (1,) * (d - 2))] * simple
    return hurwitz_count(BranchProfile(d, tuple(types)), connected=True)


def _covers_by_genus(
    d: int, gmax: int, *special: tuple[int, ...]
) -> Iterator[tuple[int, Fraction]]:
    """Yield (g, ``_connected_covers(d, g, *special)``) for g = 0..gmax from one
    fold (see the module docstring).  The special points must leave a simple
    point at genus 0, the one the close forces."""
    first = _simple_points(d, 0, special)
    if first < 1:
        raise ValueError("the special points leave no simple point at genus 0")
    simple = (2,) + (1,) * (d - 2)
    states, merged = _start(d, True)
    for parts in special:
        states = _fold_slot(states, list(_class_images(d, parts)), merged)
    transpositions = list(_class_images(d, simple))
    for _ in range(first - 1):
        states = _fold_slot(states, transpositions, merged)
    weight = Fraction(1, math.factorial(d))
    for g in range(gmax + 1):
        if g:
            states = _fold_slot(states, transpositions, merged)
            states = _fold_slot(states, transpositions, merged)
        yield g, weight * _close(states, simple, merged)


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
