"""Exact intersection numbers on spaces of low-degree branched covers.

The package computes the rational numbers I_d(g) and J_d(g) attached to
degree-2 and degree-3 covers of the projective line by four independent
routes (genus recursions, brute-force monodromy counts, fixed-locus sums,
and trigonometric closed forms) and checks that all of them agree.  All
arithmetic is exact; nothing is ever rounded.
"""

from .hodge import (
    HodgeTable,
    closed_form_L2,
    closed_form_L3,
    conjecture_series,
    i_series,
    j_series,
    l2_table,
    l3_table,
    ode_residual_deg2,
    ode_residual_deg3,
)
from .hurwitz import (
    BranchProfile,
    CycleType,
    EnumerationBoundError,
    hurwitz_count,
)
from .localization import (
    deg2_linA,
    deg2_linB,
    deg3_aux_residual,
    enumerate_loci,
    j2_from_loci,
)
from .series import TruncatedSeries

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "TruncatedSeries",
    "HodgeTable",
    "l2_table",
    "l3_table",
    "closed_form_L2",
    "closed_form_L3",
    "conjecture_series",
    "i_series",
    "j_series",
    "ode_residual_deg2",
    "ode_residual_deg3",
    "CycleType",
    "BranchProfile",
    "hurwitz_count",
    "EnumerationBoundError",
    "enumerate_loci",
    "deg2_linA",
    "deg2_linB",
    "deg3_aux_residual",
    "j2_from_loci",
]
