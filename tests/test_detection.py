"""Which ``verify`` suites catch which fault: a fixed detection matrix.

Each row plants one fault and runs every suite at gmax 6, order 13; the
set of suites that fail must equal the declared one.  Two hypothesis tests
also draw a nonzero delta (row and count faults) or a multiplier (term
faults), apply it to every kind at every index 0-4, and expect each kind's
declared set.  They run without the shrink phase: a wrong declared set is
reported on the first example that shows it, in seconds, not after minutes
of shrinking.

A row fault serves perturbed tables, and the true closed forms, through the
source the suites read.  A count fault adds the delta to one genus of a
cover-count closed form in ``hodge`` (``p3_full_closed``,
``p3_trans_closed`` or ``p2_closed``); a term fault scales one summand of a
relation there.  Both patch ``hodge`` alone, and the suites read fresh
tables from a ``hodge.TableSource`` under the patch, so the fault reaches
the tables, the locus catalogs and the ``hurwitz`` suite alike.  Only a
count fault reaches ``hurwitz``, which compares the counts with the
enumeration.
"""

from fractions import Fraction as F

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from admcalc import cli, hodge

GMAX, ORDER = 6, 13
ALL_BUT_HURWITZ = set(cli._SUITES) - {"hurwitz"}
L3_SUITES = {"lab", "ode3", "conjecture", "aspinwall"}
DRAWN = settings(
    max_examples=6, deadline=None, derandomize=True, database=None,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)


def _failing(make, index, x):
    # The suites that fail on the fault ``make`` plants at ``index`` with x;
    # a patch it makes holds while the suites run.
    with pytest.MonkeyPatch.context() as patch:
        tables = make(patch, index, x)
        return {
            name for name, suite in cli._SUITES.items()
            if not cli._passes(suite(GMAX, ORDER, tables))
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


def _no_fault(patch, index, delta):
    return _served(*_true_tables())


def _l2_row_true_l3(patch, index, delta):
    t2, t3 = _true_tables()
    return _served(hodge.HodgeTable(2, _bumped(t2.L, index, delta)), t3)


def _l2_row_solved_l3(patch, index, delta):
    t2, _ = _true_tables()
    bad = hodge.HodgeTable(2, _bumped(t2.L, index, delta))
    return _served(bad, hodge.l3_table(bad))


def _l3_row(patch, index, delta):
    t2, t3 = _true_tables()
    return _served(t2, hodge.HodgeTable(3, _bumped(t3.L, index, delta)))


def _count(name):
    # The closed form ``hodge.<name>`` plus delta at genus ``index``.
    def make(patch, index, delta):
        true = getattr(hodge, name)
        patch.setattr(hodge, name, lambda g: true(g) + delta * (g == index))
        return hodge.TableSource(ORDER + 1)

    return make


# Each kind of row and count fault, with the suites it fails at any index 0-4
# (1-4 for P2) and any nonzero delta.  A P3 count is solved into L3, so it
# fails what a wrong L3 row fails, and hurwitz; the aux catalog reads the
# same count, so lab fails through its closed-form half only.
ROW_KINDS = {
    "L2, true L3": (_l2_row_true_l3, ALL_BUT_HURWITZ),
    "L2, L3 solved from it": (_l2_row_solved_l3, ALL_BUT_HURWITZ - {"ode3"}),
    "L3": (_l3_row, L3_SUITES),
    "P_full": (_count("p3_full_closed"), L3_SUITES | {"hurwitz"}),
    "P_trans": (_count("p3_trans_closed"), L3_SUITES | {"hurwitz"}),
    # linB reads P2 from genus 1 up, so a P2 fault at genus 0 reaches
    # hurwitz alone (the row "P2 row 0" below).
    "P2": (_count("p2_closed"), {"hurwitz", "linearizations"}),
}


def _row(name, kind, index, expected=None, delta=1):
    make, declared = ROW_KINDS[kind]
    return name, make, index, delta, declared if expected is None else expected


ROW_FAULTS = [
    ("none", _no_fault, 0, 0, set()),
    _row("L2 row 3, true L3", "L2, true L3", 3),
    _row("L2 row 3, L3 solved from it", "L2, L3 solved from it", 3),
    _row("L3 row 3", "L3", 3),
    _row("P_full row 2", "P_full", 2),
    _row("P_trans row 2", "P_trans", 2),
    _row("P2 row 3", "P2", 3),
    _row("P2 row 0", "P2", 0, {"hurwitz"}),
    # Each suite covers its own index range, so fewer suites reach the top
    # rows: ode3 stops below L2 row 6, aspinwall below L3 row 5, and only lab
    # reads L3 row 6.  Likewise only hurwitz and lab read a P3 count at genus 6.
    _row("L2 row 6, true L3", "L2, true L3", 6, ALL_BUT_HURWITZ - {"ode3"}),
    _row("L3 row 5", "L3", 5, {"conjecture", "lab", "ode3"}),
    _row("L3 row 6", "L3", 6, {"lab"}),
    _row("P_full row 5", "P_full", 5, {"hurwitz", "conjecture", "lab", "ode3"}, F(-7, 3)),
    _row("P_trans row 5", "P_trans", 5, {"hurwitz", "conjecture", "lab", "ode3"}, F(-7, 3)),
    _row("P_full row 6", "P_full", 6, {"hurwitz", "lab"}, F(-7, 3)),
    _row("P_trans row 6", "P_trans", 6, {"hurwitz", "lab"}, F(-7, 3)),
    _row("P2 row 6", "P2", 6, delta=F(-7, 3)),
]


@pytest.mark.parametrize(
    "make, index, delta, expected",
    [row[1:] for row in ROW_FAULTS],
    ids=[row[0] for row in ROW_FAULTS],
)
def test_row_fault_detection(make, index, delta, expected):
    assert _failing(make, index, delta) == expected


# Each drawn delta goes to every kind and index 0-4: 30 derandomized draws of
# kind and index left kinds undrawn.
@DRAWN
@given(st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=100).filter(bool))
def test_drawn_row_fault_detection(delta):
    for kind, (make, declared) in ROW_KINDS.items():
        for index in range(1 if kind == "P2" else 0, 5):
            assert _failing(make, index, delta) == declared


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


def _term_fault(name, scale):
    # The relation ``hodge.<name>`` with one summand scaled by m.
    def make(patch, index, m):
        true_terms = getattr(hodge, name)
        fault = scale(index, m)
        patch.setattr(hodge, name, lambda *args: fault(true_terms(*args)))
        return hodge.TableSource(ORDER + 1)

    return make


# Each kind of term fault: the relation it patches, how it scales one
# summand, and the suites it fails at any index 0-4 and any multiplier other
# than 1 (but 0 on a_i: see test_zero_pivot_weight_is_unsolvable).
TERM_KINDS = {
    "_l2_terms": (
        _term_fault("_l2_terms", _scaled),
        {"rel2", "lab", "ode2", "conjecture", "aspinwall"},
    ),
    "_l3_weights a": (_term_fault("_l3_weights", _scaled_weight(0)), L3_SUITES),
    "_l3_weights b": (_term_fault("_l3_weights", _scaled_weight(1)), L3_SUITES),
    "_j_terms": (_term_fault("_j_terms", _scaled), {"aspinwall"}),
}


def _term_failing(kind, index, m):
    return _failing(TERM_KINDS[kind][0], index, m)


def _term(name, kind, index, m, expected=None):
    return name, kind, index, m, TERM_KINDS[kind][1] if expected is None else expected


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


@DRAWN
@given(
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=100).filter(
        lambda m: m != 1
    )
)
def test_drawn_term_fault_detection(m):
    # Each drawn multiplier goes to every relation and summand index 0-4.
    for kind, (_, declared) in TERM_KINDS.items():
        if m or kind != "_l3_weights a":
            for index in range(5):
                assert _term_failing(kind, index, m) == declared


def test_zero_pivot_weight_is_unsolvable():
    # a_i is the weight L3(i) is solved by, so with a_i = 0 there is no L3
    # table to check.
    with pytest.raises(ZeroDivisionError):
        _term_failing("_l3_weights a", 2, 0)
