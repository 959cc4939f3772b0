"""Which ``verify`` suites catch which fault: a fixed detection matrix.

Each row plants one fault and runs every suite at gmax 6, order 13; the
set of suites that fail must equal the declared one.  Two hypothesis tests
also draw a nonzero delta (row faults) or a multiplier (term faults), apply
it to every kind at every index 0-4, and expect each kind's declared set.  A row fault serves perturbed tables, and the true closed
forms, through the source the suites read.  A term fault scales one summand
of a relation where both ``hodge`` and ``localization`` read it, and the
suites read fresh tables from a ``hodge.TableSource``.
``hurwitz`` reads no table, so no fault here reaches it.
"""

import dataclasses
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admcalc import cli, hodge, localization

GMAX, ORDER = 6, 13
ALL_BUT_HURWITZ = set(cli._SUITES) - {"hurwitz"}


def _failing(tables):
    return {
        name for name, suite in cli._SUITES.items()
        if not suite(GMAX, ORDER, tables)
    }


def _bumped(row, index, delta):
    return [value + delta * (k == index) for k, value in enumerate(row)]


def _served(t2, t3):
    # A source that serves the given tables and the true closed forms.
    class Served(hodge.TableSource):
        def __call__(self, degree, gmax=0):
            return {2: t2, 3: t3}[degree]

    return Served(ORDER + 1)


def _true_tables():
    t2 = hodge.l2_table(GMAX)
    return t2, hodge.l3_table(t2)


def _no_fault():
    return _served(*_true_tables())


def _l2_row_true_l3(index, delta):
    t2, t3 = _true_tables()
    return _served(dataclasses.replace(t2, L=_bumped(t2.L, index, delta)), t3)


def _l2_row_solved_l3(index, delta):
    t2, _ = _true_tables()
    bad = dataclasses.replace(t2, L=_bumped(t2.L, index, delta))
    return _served(bad, hodge.l3_table(bad))


def _l3_row(index, delta):
    t2, t3 = _true_tables()
    return _served(t2, dataclasses.replace(t3, L=_bumped(t3.L, index, delta)))


def _p_full_row(index, delta):
    t2, t3 = _true_tables()
    bad = dataclasses.replace(t3, P_full=_bumped(t3.P_full, index, delta))
    return _served(t2, bad)


def _p_trans_row(index, delta):
    t2, t3 = _true_tables()
    bad = dataclasses.replace(t3, P_trans=_bumped(t3.P_trans, index, delta))
    return _served(t2, bad)


# Each kind of row fault, with the suites it fails at any index 0-4 and any
# nonzero delta.
ROW_KINDS = {
    "L2, true L3": (_l2_row_true_l3, ALL_BUT_HURWITZ),
    "L2, L3 solved from it": (_l2_row_solved_l3, ALL_BUT_HURWITZ - {"ode3"}),
    "L3": (_l3_row, {"lab", "ode3", "conjecture", "aspinwall"}),
    "P_full": (_p_full_row, {"lab"}),
    "P_trans": (_p_trans_row, {"lab"}),
}


def _row(name, kind, index, expected=None):
    make, declared = ROW_KINDS[kind]
    return name, partial(make, index, 1), declared if expected is None else expected


ROW_FAULTS = [
    ("none", _no_fault, set()),
    _row("L2 row 3, true L3", "L2, true L3", 3),
    _row("L2 row 3, L3 solved from it", "L2, L3 solved from it", 3),
    _row("L3 row 3", "L3", 3),
    _row("P_full row 2", "P_full", 2),
    _row("P_trans row 2", "P_trans", 2),
    # Each suite covers its own index range, so fewer suites reach the top
    # rows: ode3 stops below L2 row 6, aspinwall below L3 row 5, and only lab
    # reads L3 row 6.
    _row("L2 row 6, true L3", "L2, true L3", 6, ALL_BUT_HURWITZ - {"ode3"}),
    _row("L3 row 5", "L3", 5, {"conjecture", "lab", "ode3"}),
    _row("L3 row 6", "L3", 6, {"lab"}),
]


@pytest.mark.parametrize(
    "make_tables, expected",
    [row[1:] for row in ROW_FAULTS],
    ids=[row[0] for row in ROW_FAULTS],
)
def test_row_fault_detection(make_tables, expected):
    assert _failing(make_tables()) == expected


# Each drawn delta goes to every kind and index 0-4: 30 derandomized draws of
# kind and index left two of the five kinds undrawn.
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=100).filter(bool))
def test_drawn_row_fault_detection(delta):
    for make, declared in ROW_KINDS.values():
        for index in range(5):
            assert _failing(make(index, delta)) == declared


def _scaled(index, m):
    # The relation's summand ``index`` times m.
    return lambda terms: [m * t if i == index else t for i, t in enumerate(terms)]


def _scaled_weight(slot):
    # The degree-3 weight a_index (slot 0) or b_index (slot 1) times m.
    def scaled(index, m):
        return lambda weights: [
            tuple(m * w if (i, j) == (index, slot) else w for j, w in enumerate(pair))
            for i, pair in enumerate(weights)
        ]

    return scaled


L3_SUITES = {"lab", "ode3", "conjecture", "aspinwall"}

# Each kind of term fault: the relation it patches, how it scales one
# summand, and the suites it fails at any index 0-4 and any multiplier other
# than 1 (but 0 on a_i: see test_zero_pivot_weight_is_unsolvable).
TERM_KINDS = {
    "_l2_terms": ("_l2_terms", _scaled, {"rel2", "lab", "ode2", "conjecture", "aspinwall"}),
    "_l3_weights a": ("_l3_weights", _scaled_weight(0), L3_SUITES),
    "_l3_weights b": ("_l3_weights", _scaled_weight(1), L3_SUITES),
    "_j_terms": ("_j_terms", _scaled, {"aspinwall"}),
}


def _term_failing(kind, index, m):
    name, scale, _ = TERM_KINDS[kind]
    true_terms = getattr(hodge, name)
    fault = scale(index, m)

    def faulty(*args):
        return fault(true_terms(*args))

    with pytest.MonkeyPatch.context() as patch:
        for module in (hodge, localization):
            patch.setattr(module, name, faulty)
        return _failing(hodge.TableSource(ORDER + 1))


def _term(name, kind, index, m, expected=None):
    return name, kind, index, m, TERM_KINDS[kind][2] if expected is None else expected


TERM_FAULTS = [
    _term("_l2_terms", "_l2_terms", 1, 2),
    _term("_l3_weights", "_l3_weights b", 1, 2),
    _term("_j_terms", "_j_terms", 1, 2),
    # As for row faults, fewer suites reach the top weights: aspinwall stops
    # below index 5, and only lab reads index 6.
    _term("_l3_weights a_5", "_l3_weights a", 5, -1, {"conjecture", "lab", "ode3"}),
    _term("_l3_weights b_5", "_l3_weights b", 5, -1, {"conjecture", "lab", "ode3"}),
    _term("_l3_weights a_6", "_l3_weights a", 6, F(1, 2), {"lab"}),
    _term("_l3_weights b_6", "_l3_weights b", 6, F(1, 2), {"lab"}),
]


@pytest.mark.parametrize(
    "kind, index, m, expected",
    [row[1:] for row in TERM_FAULTS],
    ids=[row[0] for row in TERM_FAULTS],
)
def test_term_fault_detection(kind, index, m, expected):
    assert _term_failing(kind, index, m) == expected


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=100).filter(
        lambda m: m != 1
    )
)
def test_drawn_term_fault_detection(m):
    # Each drawn multiplier goes to every relation and summand index 0-4.
    for kind, (_, _, declared) in TERM_KINDS.items():
        if m or kind != "_l3_weights a":
            for index in range(5):
                assert _term_failing(kind, index, m) == declared


def test_zero_pivot_weight_is_unsolvable():
    # a_i is the weight L3(i) is solved by, so with a_i = 0 there is no L3
    # table to check.
    with pytest.raises(ZeroDivisionError):
        _term_failing("_l3_weights a", 2, 0)
