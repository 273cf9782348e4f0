"""Homogeneous functionals on the extended orthant.

Linear functionals are coefficient vectors; sublinear and superlinear ones
are finite maxima and minima of linear branches.  Open sets of the weak
upper topology are unions of basic blocks, where a block is a finite set of
linear functionals and a point belongs to the block's basic open when every
pairing strictly exceeds one.  The Minkowski functional of such a union has
the closed form max-over-blocks of min-over-block pairings.
"""

from __future__ import annotations

from math import lcm
from operator import mul

from .errors import DimensionMismatch, EmptyList, InfiniteCoefficient
from .extreal import ONE, ZERO, ExtReal, ExtVec, as_extvec, ext_max, ext_min
from .lp import Constraint, EQ, GEQ, LPProblem, _over, solve_lp


class LinFun:
    """Linear functional y -> sum_i c_i y_i with extended arithmetic."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = as_extvec(coeffs)

    @property
    def dim(self) -> int:
        return self.coeffs.dim

    @property
    def is_finite(self) -> bool:
        return not self.coeffs._form[2]

    def _finite(self) -> ExtVec:
        """The coefficient vector; raises when some entry is infinite."""
        if self.coeffs._form[2]:
            raise InfiniteCoefficient(f"{self!r} has an infinite coefficient")
        return self.coeffs

    def fraction_coeffs(self):
        return tuple(e.as_fraction() for e in self._finite())

    def eval(self, y) -> ExtReal:
        """The pairing with y; see ``ExtVec.dot``."""
        if type(y) is not ExtVec:
            y = as_extvec(y)
        return self.coeffs.dot(y)

    def __eq__(self, other):
        if not isinstance(other, LinFun):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("lin", self.coeffs))

    def __repr__(self):
        return f"LinFun{self.coeffs!r}"


class _BranchFun:
    __slots__ = ("branches",)

    def __init__(self, branches):
        branches = tuple(b if isinstance(b, LinFun) else LinFun(b) for b in branches)
        if not branches:
            raise EmptyList("at least one branch is required")
        d = branches[0].dim
        for b in branches[1:]:
            if b.dim != d:
                raise DimensionMismatch("branches disagree on dimension")
        self.branches = branches

    @property
    def dim(self) -> int:
        return self.branches[0].dim

    @property
    def is_finite(self) -> bool:
        return all(b.is_finite for b in self.branches)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.branches == other.branches

    def __hash__(self):
        return hash((type(self).__name__, self.branches))

    def __repr__(self):
        inner = ", ".join(repr(b.coeffs) for b in self.branches)
        return f"{type(self).__name__}{{{inner}}}"


class SublinFun(_BranchFun):
    """Pointwise maximum of finitely many linear functionals."""

    def eval(self, y) -> ExtReal:
        y = as_extvec(y)
        return ext_max(b.eval(y) for b in self.branches)


class SuperlinFun(_BranchFun):
    """Pointwise minimum of finitely many linear functionals."""

    def eval(self, y) -> ExtReal:
        y = as_extvec(y)
        return ext_min(b.eval(y) for b in self.branches)


def member_u(f, y) -> bool:
    """Strict side of the unit level set: f(y) > 1."""
    return ONE < f.eval(y)


def member_a(f, y) -> bool:
    """Complementary side: f(y) <= 1."""
    return f.eval(y) <= ONE


class OpenSetRep:
    """Union of basic opens, one block (finite set of LinFun) per basic open."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        out = []
        dim = None
        for block in blocks:
            funs = tuple(b if isinstance(b, LinFun) else LinFun(b) for b in block)
            if not funs:
                raise EmptyList("blocks must be nonempty")
            for f in funs:
                if dim is None:
                    dim = f.dim
                elif f.dim != dim:
                    raise DimensionMismatch("blocks disagree on dimension")
            out.append(funs)
        self.blocks = tuple(out)

    @property
    def dim(self):
        return self.blocks[0][0].dim if self.blocks else None

    def contains(self, y) -> bool:
        y = as_extvec(y)
        return any(all(ONE < f.eval(y) for f in block) for block in self.blocks)

    def __repr__(self):
        return f"OpenSetRep(blocks={len(self.blocks)})"


def minkowski(rep: OpenSetRep, y) -> ExtReal:
    """Largest scale r with y inside r times the open set; zero if none.

    For a basic block the pairings must all exceed r, so the answer is the
    minimum pairing; a union takes the best block.
    """
    y = as_extvec(y)
    if rep.dim is not None and rep.dim != y.dim:
        raise DimensionMismatch(f"{rep.dim} versus {y.dim}")
    best = ZERO
    for block in rep.blocks:
        v = ext_min(f.eval(y) for f in block)
        if best < v:
            best = v
    return best


def _margin(gvecs, hvecs):
    """One LP deciding min_i g_i <= max_k h_k on the orthant (finite entries).

    By homogeneity the standard simplex suffices: maximise t with
    (g_i - h_k) . y >= t for every pair, a row of ints times L, the lcm of
    the two denominators; the order holds iff t <= 0.  Returns t, y, and
    simplex weights a_i = sum_k mu_ik, lambda_k = sum_i mu_ik from
    mu = -L * dual of the pair rows (the free t puts mu on the simplex), so
    sum_i a_i g_i <= sum_k lambda_k h_k + t coordinatewise.
    """
    gforms = [as_extvec(g)._form for g in gvecs]
    hforms = [as_extvec(h)._form for h in hvecs]
    dim = len(gforms[0][0])
    k = len(hforms)
    # variables: y_0 .. y_{dim-1}, then the split margin t = tp - tm
    constraints = [Constraint._of_ints((1,) * dim + (0, 0), EQ, 1)]
    scales = []
    for gn, gd, _, _ in gforms:
        for hn, hd, _, _ in hforms:
            L = lcm(gd, hd)
            gs, hs = L // gd, L // hd
            row = tuple(g * gs - h * hs for g, h in zip(gn, hn)) + (-L, L)
            constraints.append(Constraint._of_ints(row, GEQ, 0))
            scales.append(L)
    objective = (0,) * dim + (1, -1)
    res = solve_lp(LPProblem(dim + 2, tuple(constraints), objective, "max"))
    mu = [-L * v for L, v in zip(scales, res.dual[1:])]
    a = tuple(sum(mu[i * k:(i + 1) * k]) for i in range(len(gforms)))
    lam = tuple(sum(mu[kk::k]) for kk in range(k))
    return res.value, res.point[:dim], a, lam


def _combine(weights, vecs):
    """sum_k weights_k vecs_k coordinatewise, as ``(nums, den)``: each
    coordinate one integer dot product over the common denominator of the
    weights times that of the vectors' finite forms."""
    wn, wd = _over(weights)
    forms = [v._form for v in vecs]
    big = lcm(*(d for _, d, _, _ in forms))
    cols = zip(*[[n * (big // d) for n in nums] for nums, d, _, _ in forms])
    return [sum(map(mul, wn, col)) for col in cols], wd * big


def _covered(vec, lam, hvecs) -> bool:
    """Exact coordinatewise check vec <= sum_k lambda_k h_k on finite
    vectors, made on integers by cross-multiplying the two denominators."""
    cn, cd, _, _ = vec._form
    sn, sd = _combine(lam, hvecs)
    return all(c * sd <= s * cd for c, s in zip(cn, sn))


def dominated_by_max(f: LinFun, phi: SublinFun):
    """Decide f <= phi on the whole orthant; finite coefficients only.

    A linear functional sits below a maximum of linear ones on the
    nonnegative orthant exactly when it sits below a convex combination of
    them coordinatewise.  The margin LP of the one-member clause [f]
    decides it, and its dual gives the combination weights, which are
    returned as a certificate and rechecked coordinatewise.
    """
    if f.dim != phi.dim:
        raise DimensionMismatch(f"{f.dim} versus {phi.dim}")
    fvec = f._finite()
    hvecs = [h._finite() for h in phi.branches]
    value, _, _, lam = _margin([fvec], hvecs)
    if value > 0:
        return False, None
    if not _covered(fvec, lam, hvecs):
        raise AssertionError("internal error: domination certificate fails coordinatewise")
    return True, lam


def specialization_leq(y, y_prime, c_gens) -> bool:
    """Order induced by pairing against every generator of the dual cone."""
    y = as_extvec(y)
    y_prime = as_extvec(y_prime)
    if y.dim != y_prime.dim:
        raise DimensionMismatch(f"{y.dim} versus {y_prime.dim}")
    for x in c_gens:
        x = x if isinstance(x, LinFun) else LinFun(x)
        if not x.eval(y) <= x.eval(y_prime):
            return False
    return True


def _unit(dim, j):
    return ExtVec(tuple(ONE if i == j else ZERO for i in range(dim)))


def leq_functional(phi, psi):
    """Pointwise order phi <= psi on the extended orthant, decided exactly.

    Returns (True, None) or (False, y) with phi(y) > psi(y) checked by
    evaluation.  A minimum of g_i against a maximum of h_k is one margin LP
    on the coordinates R where every h_k is finite (psi is infinite off R),
    without the g_i that are infinite on R: adding a slice of 1_R to its
    violating point makes those infinite and keeps the violation strict.
    """
    if phi.dim != psi.dim:
        raise DimensionMismatch(f"{phi.dim} versus {psi.dim}")

    if isinstance(phi, SublinFun):
        # a maximum is below psi iff every branch is
        for b in phi.branches:
            ok, wit = leq_functional(b, psi)
            if not ok:
                return False, wit
        return True, None

    if isinstance(psi, SuperlinFun):
        # below a minimum iff below every branch; any branch witness works
        for g in psi.branches:
            ok, wit = leq_functional(phi, g)
            if not ok:
                return False, wit
        return True, None

    dim = phi.dim
    if isinstance(phi, LinFun) and isinstance(psi, LinFun):
        for j in range(dim):
            if not phi.coeffs[j] <= psi.coeffs[j]:
                return False, _unit(dim, j)
        return True, None

    gs = (phi,) if isinstance(phi, LinFun) else phi.branches
    hs = (psi,) if isinstance(psi, LinFun) else psi.branches
    rest = [j for j in range(dim) if all(h.coeffs[j].is_finite for h in hs)]
    if not rest:
        return True, None
    gvecs = [
        ExtVec([g.coeffs[j] for j in rest])
        for g in gs
        if all(g.coeffs[j].is_finite for j in rest)
    ]
    hvecs = [ExtVec([h.coeffs[j] for j in rest]) for h in hs]
    # with no g_i left, every one is infinite at the witness 1_R
    y, eps = [0] * len(rest), 1
    if gvecs:
        value, y, _, _ = _margin(gvecs, hvecs)
        if value <= 0:
            return True, None
        eps = value / (1 + max(sum(h).as_fraction() for h in hvecs))
    full = [ZERO] * dim
    for j, v in zip(rest, y):
        full[j] = ExtReal.from_fraction(v + eps)
    witness = ExtVec(full)
    if not psi.eval(witness) < phi.eval(witness):
        raise AssertionError("internal error: order witness failed verification")
    return False, witness
