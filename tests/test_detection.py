"""Which ``verify`` suites catch which fault: a fixed detection matrix.

Each row plants one fault and runs every suite at gmax 6, order 13; the
set of suites that fail must equal the declared one.  A hypothesis test also
draws a row fault's kind, index and nonzero delta and expects the kind's
declared set.  A row fault serves perturbed tables, and the true closed
forms, through the source the suites read.  A term fault patches one
relation's summand function where both ``hodge`` and ``localization`` read
it, and the suites read fresh tables from a ``hodge.TableSource``.
``hurwitz`` reads no table, so no fault here reaches it.
"""

import dataclasses
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


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(sorted(ROW_KINDS)),
    st.integers(0, 4),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=100).filter(bool),
)
def test_drawn_row_fault_detection(kind, index, delta):
    make, declared = ROW_KINDS[kind]
    assert _failing(make(index, delta)) == declared


def _double_l2_term(terms):
    return [2 * t if i == 1 else t for i, t in enumerate(terms)]


def _double_l3_b(weights):
    return [(a, 2 * b) if i == 1 else (a, b) for i, (a, b) in enumerate(weights)]


TERM_FAULTS = [
    ("_l2_terms", _double_l2_term,
     {"rel2", "lab", "ode2", "conjecture", "aspinwall"}),
    ("_l3_weights", _double_l3_b, {"lab", "ode3", "conjecture", "aspinwall"}),
    ("_j_terms", _double_l2_term, {"aspinwall"}),
]


@pytest.mark.parametrize(
    "name, fault, expected", TERM_FAULTS, ids=[row[0] for row in TERM_FAULTS]
)
def test_term_fault_detection(monkeypatch, name, fault, expected):
    true_terms = getattr(hodge, name)

    def faulty(*args):
        return fault(true_terms(*args))

    for module in (hodge, localization):
        monkeypatch.setattr(module, name, faulty)
    assert _failing(hodge.TableSource(ORDER + 1)) == expected
