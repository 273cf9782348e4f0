"""Interpolation of a convex combination between a minimum of linear
functionals and a dominating sublinear functional.

Given linear g_1 .. g_n with min_i g_i <= phi on the orthant, there are
simplex weights a with min_i g_i <= sum_i a_i g_i <= phi pointwise.  One
exact margin LP decides the hypothesis: its primal optimum is a violating
point when the hypothesis fails, and otherwise its dual gives the weights
a and a certificate lambda over phi's branches, with the coordinatewise
domination sum_i a_i g_i <= sum_k lambda_k h_k as the checkable artifact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DimensionMismatch,
    EmptyList,
    MalformedProblem,
    PreconditionViolated,
)
from .extreal import ExtVec
from .functionals import LinFun, SublinFun, SuperlinFun, _combine, _covered, _margin


@dataclass(frozen=True)
class InterpolationResult:
    """Simplex weights over the clause and a branch certificate for phi.

    The coordinatewise inequality sum_i weights_i g_i <= sum_k certificate_k h_k
    holds exactly, which pins the interpolant below phi on the whole orthant.
    """

    weights: tuple
    certificate: tuple


def _clause_branches(clause):
    if isinstance(clause, SuperlinFun):
        return list(clause.branches)
    branches = [b if isinstance(b, LinFun) else LinFun(b) for b in clause]
    if not branches:
        raise EmptyList("a clause needs at least one functional")
    return branches


def check_min_below(clause, phi: SublinFun):
    """Decide min_i g_i <= phi everywhere on the orthant.

    Returns (True, None), or (False, y) with a verified violation y; the
    one margin LP behind ``interpolate`` decides it.
    """
    try:
        interpolate(clause, phi)
    except PreconditionViolated as exc:
        return False, exc.witness
    return True, None


def interpolate(clause, phi: SublinFun) -> InterpolationResult:
    """Produce weights a and certificate lambda realising the sandwich.

    One margin LP maximises t with (g_i - h_k) . y >= t over the simplex.
    A positive optimum makes its point a violation of the hypothesis;
    otherwise its dual gives the weights and the certificate.  The left
    inequality min_i g_i <= sum a_i g_i is automatic for simplex weights;
    the right one follows from the coordinatewise certificate, which is
    verified exactly before returning.
    """
    return _interpolate(clause, phi)[0]


def _interpolate(clause, phi):
    """``interpolate`` plus the ``LinFun`` sum_i a_i g_i it checked coordinatewise."""
    gs = _clause_branches(clause)
    dim = gs[0].dim
    if phi.dim != dim:
        raise DimensionMismatch(f"{dim} versus {phi.dim}")
    gvecs = [g._finite() for g in gs]
    hvecs = [h._finite() for h in phi.branches]
    value, y, a, lam = _margin(gvecs, hvecs)
    if value > 0:
        witness = ExtVec(y)
        if not phi.eval(witness) < SuperlinFun(gs).eval(witness):
            raise AssertionError("internal error: violation witness failed verification")
        raise PreconditionViolated(
            "the minimum of the clause exceeds the target functional",
            witness=witness,
        )
    nums, den = _combine(a, gvecs)
    nonzero = sum(1 << j for j, n in enumerate(nums) if n)
    mix = ExtVec._from_ratios(nums, [den] * dim, 0, nonzero)
    if not _covered(mix, lam, hvecs):
        raise AssertionError("internal error: certificate fails coordinatewise")
    return InterpolationResult(a, lam), LinFun(mix)


@dataclass(frozen=True)
class ClauseWitness:
    """A cone element realising one clause: fun = sum_i weights_i gen_i."""

    fun: LinFun
    weights: tuple
    certificate: tuple


def clause_witnesses(clauses, c_gens, phi: SublinFun):
    """Interpolate every clause of generator indices against phi.

    Each clause yields the convex combination of its generators produced by
    ``interpolate``, one LP per clause; the emitted coefficients are the
    mix that ``interpolate`` checked exactly against the branch certificate.
    Output order follows the input clause order.
    """
    gens = [g if isinstance(g, LinFun) else LinFun(g) for g in c_gens]
    out = []
    for pos, clause in enumerate(clauses):
        idxs = list(clause)
        if not idxs:
            raise EmptyList(f"clause {pos} is empty")
        if any(not isinstance(i, int) or i < 0 or i >= len(gens) for i in idxs):
            raise MalformedProblem(f"clause {pos} indexes outside the generator list")
        members = [gens[i] for i in idxs]
        try:
            result, mix = _interpolate(members, phi)
        except PreconditionViolated as exc:
            exc.clause_index = pos
            raise
        out.append(ClauseWitness(mix, result.weights, result.certificate))
    return out
