"""Interpolation of a convex combination between a minimum of linear
functionals and a dominating sublinear functional.

Given linear g_1 .. g_n with min_i g_i <= phi on the extended orthant,
there are simplex weights a with min_i g_i <= sum_i a_i g_i <= phi
pointwise.  The checked margin decision ``functionals._decide`` answers
the hypothesis, by its exact screens or else one margin LP: a violating
point, checked by evaluation, or the weights a and a certificate lambda
over phi's branches, with the domination sum_i a_i g_i <= sum_k lambda_k
h_k checked coordinatewise where phi is finite.
Coefficients may be infinite.  This module only validates
clauses and turns that answer into results and errors.
"""

from __future__ import annotations

from ._record import Record
from .errors import (
    DimensionMismatch,
    EmptyList,
    MalformedProblem,
    PreconditionViolated,
)
from .extreal import ExtVec
from .functionals import LinFun, SublinFun, SuperlinFun, _decide

_VIOLATED = "the minimum of the clause exceeds the target functional"


class ClauseWitness(Record):
    """A clause's interpolant fun = sum_i weights_i g_i, with simplex
    weights over the clause and a branch certificate for phi.

    The inequality fun <= sum_k certificate_k h_k holds exactly,
    coordinatewise on the coordinates where every branch h_k is finite;
    phi is infinite at any point with support elsewhere, so this pins fun
    below phi on the whole extended orthant.  A clause member that is
    infinite on those coordinates gets weight 0.
    """

    fun: LinFun
    weights: ExtVec
    certificate: ExtVec


def _clause_branches(clause):
    if isinstance(clause, SuperlinFun):
        return list(clause.branches)
    branches = [b if isinstance(b, LinFun) else LinFun(b) for b in clause]
    if not branches:
        raise EmptyList("a clause needs at least one functional")
    return branches


def interpolate(clause, phi: SublinFun) -> ClauseWitness:
    """Produce weights a and certificate lambda realising the sandwich.

    Screens first, then at most one LP.  A member at most a branch
    coordinatewise gives a = e_i and lambda = e_k, and a coordinate where
    every member exceeds every branch is a violation.  A mix s g_i +
    (1 - s) g_i' of two members at most a branch h_k, with s the least
    point of an exact interval, gives a = (s at i, 1 - s at i') and
    lambda = e_k.  Otherwise one margin LP maximises t >= 0 with h_k . y
    <= u for every branch, u + t <= g_i . y for every member and sum_j y_j
    <= 1, starting feasible at the origin.  A positive optimum makes its
    point a violation of the hypothesis; otherwise its dual on the member
    and branch rows, divided by its sum, is the weights and the
    certificate.
    The left inequality min_i g_i <= sum a_i g_i is automatic for simplex
    weights; the right one follows from the coordinatewise certificate.
    ``leq_functional`` decides the hypothesis alone.
    """
    return _interpolate(clause, phi, None)


def _interpolate(clause, phi, pos):
    """``functionals._decide`` on a validated clause; a checked violation
    raises, with ``pos`` as its clause index."""
    gs = _clause_branches(clause)
    for g in gs:
        if g.dim != phi.dim:
            raise DimensionMismatch(f"{g.dim} versus {phi.dim}")
    y, a, lam, mix = _decide([g.coeffs for g in gs], [h.coeffs for h in phi.branches])
    if y is not None:
        raise PreconditionViolated(_VIOLATED, witness=y, clause_index=pos)
    return ClauseWitness(LinFun(mix), a, lam)


def clause_witnesses(clauses, c_gens, phi: SublinFun):
    """Interpolate every clause of generator indices against phi.

    Each clause yields the convex combination of its generators produced by
    ``interpolate``: the screens, then at most one LP per clause; the
    emitted coefficients are the mix that was checked exactly against the
    branch certificate.
    Output order follows the input clause order.  Every generator's
    dimension is checked before any clause is decided.
    """
    gens = [g if isinstance(g, LinFun) else LinFun(g) for g in c_gens]
    for g in gens:
        if g.dim != phi.dim:
            raise DimensionMismatch(f"{g.dim} versus {phi.dim}")
    out = []
    for pos, clause in enumerate(clauses):
        idxs = list(clause)
        if not idxs:
            raise EmptyList(f"clause {pos} is empty")
        for i in idxs:
            if type(i) is not int:
                raise MalformedProblem(f"clause {pos} has an index of type {type(i).__name__}, not int")
            if not 0 <= i < len(gens):
                raise MalformedProblem(f"clause {pos} indexes outside the generator list")
        out.append(_interpolate([gens[i] for i in idxs], phi, pos))
    return out
