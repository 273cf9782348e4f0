"""Exact-arithmetic convex separation, interpolation, and duality over
extended nonnegative orthants and finite T0 spaces."""

from .certify import (
    combination_point,
    in_corner,
    verify_meets_corner,
    verify_separated,
)
from .convex_sep import (
    MeetsCorner,
    Separated,
    separate,
)
from .extreal import (
    INF,
    ONE,
    ZERO,
    ExtReal,
    ExtVec,
    ext_max,
    ext_min,
    parse_extreal,
)
from .finspace import (
    FinitePoset,
    LscFun,
    all_opens,
    is_lsc,
    posets_up_to_iso,
)
from .functionals import (
    LinFun,
    OpenSetRep,
    SublinFun,
    SuperlinFun,
    dominated_by_max,
    leq_functional,
    member_a,
    member_u,
    minkowski,
    specialization_leq,
)
from .interpolate import (
    ClauseWitness,
    clause_witnesses,
    interpolate,
)
from .valuations import (
    DualFunctional,
    SimpleValuation,
    ValuationOnOpens,
    check_dominated_directed,
    check_sup_representation,
    eval_valuation,
    from_opens,
    random_simple_valuation,
    recover_function,
    to_opens,
)
from . import errors

__version__ = "0.7.0"
