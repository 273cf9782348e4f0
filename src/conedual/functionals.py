"""Homogeneous functionals on the extended orthant.

Linear functionals are coefficient vectors; sublinear and superlinear ones
are finite maxima and minima of linear branches.  Open sets of the weak
upper topology are unions of basic blocks, where a block is a finite set of
linear functionals and a point belongs to the block's basic open when every
pairing strictly exceeds one.  The Minkowski functional of such a union has
the closed form max-over-blocks of min-over-block pairings.
"""

from __future__ import annotations

from itertools import combinations, compress, repeat
from math import lcm
from operator import le, mul

from .certify import covered, refutes, require
from .errors import DimensionMismatch, EmptyList
from .extreal import ONE, ExtReal, ExtVec, _over, _reduced, _weighted_sum, as_extvec
from .lp import LPProblem, solve_lp


class LinFun:
    """Linear functional y -> sum_i c_i y_i with extended arithmetic."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = as_extvec(coeffs)

    @property
    def dim(self) -> int:
        return self.coeffs.dim

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
        branches = tuple([b if isinstance(b, LinFun) else LinFun(b) for b in branches])
        if not branches:
            raise EmptyList("at least one branch is required")
        # len, not the form, which an open-set block's vector builds on first read
        if len({len(b.coeffs) for b in branches}) > 1:
            raise DimensionMismatch("branches disagree on dimension")
        self.branches = branches

    @property
    def dim(self) -> int:
        return self.branches[0].dim

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
        """The greatest pairing: the max-min walk over one-member blocks."""
        y = _checked_point(self, y)
        top, over = _max_min(zip(self.branches), y._form, 0, 1)
        return _reduced(top, over * y._form[1])


class SuperlinFun(_BranchFun):
    """Pointwise minimum of finitely many linear functionals."""

    def eval(self, y) -> ExtReal:
        """The least pairing: the max-min walk over the one block of branches."""
        y = _checked_point(self, y)
        top, over = _max_min((self.branches,), y._form, 0, 1)
        return _reduced(top, over * y._form[1])


def member_u(f, y) -> bool:
    """Strict side of the unit level set: f(y) > 1."""
    return ONE < f.eval(y)


def member_a(f, y) -> bool:
    """Complementary side: f(y) <= 1."""
    return f.eval(y) <= ONE


class OpenSetRep:
    """Union of basic opens, one block per basic open: the ``SuperlinFun`` of
    the block's linear functionals, whose basic open is where it exceeds one."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        blocks = tuple([SuperlinFun(block) for block in blocks])
        if len({block.dim for block in blocks}) > 1:
            raise DimensionMismatch("blocks disagree on dimension")
        self.blocks = blocks

    @property
    def dim(self):
        return self.blocks[0].dim if self.blocks else None

    def contains(self, y) -> bool:
        """Some block's least pairing with y exceeds one."""
        y = _checked_point(self, y)
        # one is yd / 1 on the walk's scale
        top, over = _max_min([block.branches for block in self.blocks], y._form,
                             y._form[1], 1, first=True)
        return top > y._form[1] * over

    def __repr__(self):
        return f"OpenSetRep(blocks={len(self.blocks)})"


def _checked_point(fun, y):
    """y as an ``ExtVec`` of ``fun``'s dimension; an empty union has none to check."""
    y = as_extvec(y)
    dim = fun.dim
    if dim is not None and dim != y.dim:
        raise DimensionMismatch(f"{dim} versus {y.dim}")
    return y


def _max_min(blocks, y_form, top, over, first=False):
    """The greatest least pairing of y with a block that exceeds ``top / over``,
    else ``top / over``, with ``first`` the first such one; every value is
    ``(num, den)`` times y's denominator, inf as ``(1, 0)``.

    The package's one least or greatest pairing over a family: a block is
    an iterable of ``LinFun``, so a ``SuperlinFun`` is one block and a
    ``SublinFun`` is blocks of one member each.  ``ExtVec.dot`` without a
    reduction or an ``ExtReal`` per pairing: the masks decide the infinite
    pairings, and the finite ones, ``sum xn * yn`` over ``xd``, are compared
    by cross-multiplication.  A block is left at its first finite pairing
    at or below the best so far, so the vectors after it never build their
    forms; a block whose pairings are all infinite answers inf at once.
    The blocks' and y's dimensions are the caller's to check.
    """
    yn, _, y_inf, y_nonzero = y_form
    for block in blocks:
        low = None
        for b in block:
            xn, xd, x_inf, x_nonzero = b.coeffs._form
            if x_inf & y_nonzero or y_inf & x_nonzero:
                continue
            s = sum(map(mul, xn, yn))
            if s * over <= top * xd:
                break
            if low is None or s * low_over < low * xd:
                low, low_over = s, xd
        else:
            if low is None:
                return 1, 0
            top, over = low, low_over
            if first:
                break
    return top, over


def minkowski(rep: OpenSetRep, y) -> ExtReal:
    """Largest scale r with y inside r times the open set; zero if none.

    For a basic block the pairings must all exceed r, so the answer is the
    minimum pairing; a union takes the best block.  ``_max_min`` walks the
    blocks and leaves each at its first pairing that cannot beat the best.
    """
    y = _checked_point(rep, y)
    top, over = _max_min([block.branches for block in rep.blocks], y._form, 0, 1)
    return _reduced(top, over * y._form[1])


def _margin(gvecs, hvecs):
    """One LP deciding min_i g_i <= max_k h_k on the orthant (finite entries).

    The epigraph form of a max-min LP (Bertsimas & Tsitsiklis 1997, 1.3):
    over y, a level u = u+ - u- and t, maximise t >= 0 with sum_j y_j <= 1,
    one row h_k . y <= u per branch and one row u + t <= g_i . y per
    member, each in ints over its vector's denominator.  The origin is
    feasible, so every row starts with its slack basic and the solver runs
    no phase 1.  As the rows are homogeneous, the optimum is max(0, t*) for
    the largest margin t* = min_i g_i . y - max_k h_k . y over the simplex:
    it is positive, at a point with sum_j y_j = 1, exactly when the order
    fails.  The dual is the certificate: alpha_i = gd * the dual of member
    row i and lambda_k = hd * that of branch row k.  The columns of u+ and
    u- force sum lambda = sum alpha and that of t sum alpha >= 1, so both
    divided by sum alpha are simplex weights a and lambda.  On a zero value
    the dual of the sum row is zero, so the column of y_j reads
    sum_i a_i g_i <= sum_k lambda_k h_k coordinatewise.
    """
    gforms = [as_extvec(g)._form for g in gvecs]
    hforms = [as_extvec(h)._form for h in hvecs]
    dim = len(gforms[0][0])
    # variables: y_0 .. y_{dim-1}, u+, u-, then the margin t
    constraints = [(1,) * dim + (0, 0, 0, 1)]
    constraints += [(*hn, -hd, hd, 0, 0) for hn, hd, _, _ in hforms]
    constraints += [(*[-v for v in gn], gd, -gd, gd, 0) for gn, gd, _, _ in gforms]
    res = solve_lp(LPProblem(dim + 3, constraints, (0,) * (dim + 2) + (1,)))
    # lambda and alpha over the dual's denominator, which the division by sum alpha cancels
    lam = [v * hd for v, (_, hd, _, _) in zip(res.yn[1:], hforms)]
    alpha = [v * gd for v, (_, gd, _, _) in zip(res.yn[1 + len(hforms):], gforms)]
    total = sum(alpha)
    return (_reduced(res.vn, res.d), _over(res.xn[:dim], res.d),
            _over(alpha, total), _over(lam, total))


def _unit(i, n):
    """The simplex vertex e_i of length n, an ``ExtVec`` as ``_margin`` returns them."""
    return _over((1,), 1, (i,), n)


def _screen(gvecs, hvecs):
    """``_margin``'s answer where the finite forms hold it without an LP, else None.

    A member at most a branch coordinatewise, g_i <= h_k, is covered with
    a = e_i and lambda = e_k.  A coordinate j where every g_i[j] exceeds
    every h_k[j] is refuted by y = e_j, with margin min_i g_i[j] - max_k
    h_k[j] > 0.  These are the dominated rows and columns of LP presolve
    (Andersen & Andersen 1995, "Presolving in linear programming"); each
    compare is on integers and stops at the first failing coordinate.  Last,
    ``_segment`` looks for a mix of two members at most one branch.  ``_decide``
    checks every answer as it checks the LP's.
    """
    gforms = [g._form for g in gvecs]
    hforms = [h._form for h in hvecs]
    for i, (gn, gd, _, _) in enumerate(gforms):
        for k, (hn, hd, _, _) in enumerate(hforms):
            # g_i <= h_k as gn * hd <= hn * gd, entry by entry
            if all(map(le, map(mul, gn, repeat(hd)), map(mul, hn, repeat(gd)))):
                return 0, None, _unit(i, len(gforms)), _unit(k, len(hforms))
    dim = len(gforms[0][0])
    for j in range(dim):
        # the largest h_k[j] is top / over
        top, over = 0, 1
        for hn, hd, _, _ in hforms:
            if hn[j] * over > top * hd:
                top, over = hn[j], hd
        if all(gn[j] * over > top * gd for gn, gd, _, _ in gforms):
            low = min(ExtReal(gn[j], gd) for gn, gd, _, _ in gforms)
            y = [0] * dim
            y[j] = 1
            return low - ExtReal(top, over), y, None, None
    return _segment(gforms, hforms) if len(gforms) > 1 else None


def _segment(gforms, hforms):
    """A cover by a mix of two members, t g_i + (1 - t) g_i' <= h_k, as
    ``_screen`` returns it with a = (t at i, 1 - t at i') and lambda = e_k,
    else None.  Branches are tried in order, and pairs i < i' in
    lexicographic order.

    Over the lcm of the denominators every form is integers.  The mix can
    sit below h_k only where one of the two members does, so a branch is
    tried only when the least member is below it at every coordinate, and
    then only the pairs whose masks {j : g_i[j] <= h_k[j]} cover every
    coordinate.  Where both are below, every t in [0, 1] holds; where only
    g_i is, t >= (g_i'[j] - h_k[j]) / (g_i'[j] - g_i[j]), and where only
    g_i' is, t <= (h_k[j] - g_i'[j]) / (g_i[j] - g_i'[j]).  The interval
    [lo, hi] is kept as integer ratios, compared by cross-multiplying, and
    the pair is left once lo > hi; otherwise t = lo.
    """
    big = lcm(*[d for _, d, _, _ in gforms], *[d for _, d, _, _ in hforms])
    gs = [gn if gd == big else [v * (big // gd) for v in gn] for gn, gd, _, _ in gforms]
    least = list(map(min, *gs))
    bits = [1 << j for j in range(len(least))]
    full = (1 << len(bits)) - 1
    for k, (hn, hd, _, _) in enumerate(hforms):
        h = hn if hd == big else [v * (big // hd) for v in hn]
        if not all(map(le, least, h)):
            continue
        masks = [sum(compress(bits, map(le, g, h))) for g in gs]
        for i, i2 in combinations(range(len(gs)), 2):
            below, below2 = masks[i], masks[i2]
            if below | below2 != full:
                continue
            g, g2 = gs[i], gs[i2]
            only, only2 = below & ~below2, below2 & ~below
            # t in [lo_n / lo_d, hi_n / hi_d]
            lo_n, lo_d, hi_n, hi_d = 0, 1, 1, 1
            for j, bit in enumerate(bits):
                if only & bit:
                    p, q = g2[j] - h[j], g2[j] - g[j]
                    if p * lo_d > lo_n * q:
                        lo_n, lo_d = p, q
                elif only2 & bit:
                    p, q = h[j] - g2[j], g[j] - g2[j]
                    if p * hi_d < hi_n * q:
                        hi_n, hi_d = p, q
                else:
                    continue
                if lo_n * hi_d > hi_n * lo_d:
                    break
            else:
                a = _over((lo_n, lo_d - lo_n), lo_d, (i, i2), len(gs))
                return 0, None, a, _unit(k, len(hforms))
    return None


def _decide(gvecs, hvecs):
    """Decide min_i g_i <= max_k h_k on the extended orthant, checking the answer.

    max_k h_k is infinite off R, the coordinates where every h_k is finite,
    and a g_i infinite on R exceeds it at any point positive on R, so the
    other g_i are decided on R: by the screens of ``_screen`` (a member
    below a branch, a coordinate that refutes, a mix of two members below
    a branch), then at most one LP, ``_margin``, when they find nothing.
    Returns (y, None, None, None) with an ``ExtVec`` y where max_k h_k . y
    < min_i g_i . y: the answer's point, 0 off R and lifted by a slice of
    1_R when a g_i was dropped, or 1_R when none is left.  Otherwise (None, a, lambda, mix)
    with a_i = 0 for each dropped g_i and mix = sum_i a_i g_i <= sum_k
    lambda_k h_k on R; weight 1 on the first member and branch when R is
    empty.  A failed check is an internal error.
    """
    dim = hvecs[0].dim
    off = 0
    for h in hvecs:
        off |= h._form[2]
    rest = [j for j in range(dim) if not off >> j & 1]
    kept = [i for i, g in enumerate(gvecs) if not g._form[2] & ~off]
    # with no h_k infinite the vectors are screened and go to _margin as they are
    cut = (lambda v: ExtVec([v[j] for j in rest])) if off else (lambda v: v)
    if not rest:
        value, a, lam = 0, _unit(0, 1), _unit(0, len(hvecs))
    else:
        gr, hr = [cut(gvecs[i]) for i in kept], [cut(h) for h in hvecs]
        if gr:
            value, y, a, lam = _screen(gr, hr) or _margin(gr, hr)
        else:
            value, y = 1, (0,) * len(rest)
    if value > 0:
        if len(kept) < len(gvecs):
            # h_k . (y + eps 1_R) = h_k . y + eps sum(h_k) stays below min_i g_i . y
            eps = value / (1 + max(sum(h) for h in hr)) if gr else 1
            y = [v + eps for v in y]
        full = [0] * dim
        for j, v in zip(rest, y):
            full[j] = v
        y = ExtVec(full)
        require(refutes(y, gvecs, hvecs), "violation witness failed verification")
        return y, None, None, None
    a = _over(a._form[0], a._form[1], kept, len(gvecs))
    mix = _weighted_sum(a, gvecs, dim)
    require(covered(mix, lam, hvecs), "certificate fails coordinatewise")
    return None, a, lam, mix


def dominated_by_max(f: LinFun, phi: SublinFun):
    """Decide f <= phi on the whole extended orthant.

    A linear functional sits below a maximum of linear ones on the
    orthant exactly when it sits below a convex combination of them
    coordinatewise on R, the coordinates where every branch of phi is
    finite (phi is infinite off R).  The checked margin decision of the
    one-member clause [f] decides it: (True, lambda) with its branch weights,
    f <= sum_k lambda_k h_k on R, or (False, y) with a point where
    phi(y) < f(y).
    """
    if f.dim != phi.dim:
        raise DimensionMismatch(f"{f.dim} versus {phi.dim}")
    y, _, lam, _ = _decide([f.coeffs], [h.coeffs for h in phi.branches])
    return (False, y) if y is not None else (True, lam)


def specialization_leq(y, y_prime, c_gens) -> bool:
    """Order induced by pairing against every generator of the dual cone.

    ``x . y <= x . y'`` reads ``xn . z <= 0`` on the integer forms, with
    ``z = yn * y'd - y'n * yd`` built once; a pairing is infinite where the
    masks say so, and there the finite numerators are not read.  Every
    generator's dimension is checked before any is compared, and a
    generator that refutes the order is checked by evaluation.
    """
    y, y_prime = as_extvec(y), as_extvec(y_prime)
    yn, yd, y_inf, y_nonzero = y._form
    pn, pd, p_inf, p_nonzero = y_prime._form
    if len(yn) != len(pn):
        raise DimensionMismatch(f"{len(yn)} versus {len(pn)}")
    gens = [x.coeffs if isinstance(x, LinFun) else as_extvec(x) for x in c_gens]
    for x in gens:
        if x.dim != len(yn):
            raise DimensionMismatch(f"{x.dim} versus {len(yn)}")
    z = [a * pd - b * yd for a, b in zip(yn, pn)]
    for x in gens:
        xn, _, x_inf, x_nonzero = x._form
        if x_inf & p_nonzero or p_inf & x_nonzero:
            continue
        if x_inf & y_nonzero or y_inf & x_nonzero or sum(map(mul, xn, z)) > 0:
            witness = LinFun(x)
            require(witness.eval(y_prime) < witness.eval(y), "order witness failed verification")
            return False
    return True


def _parts(fun, split):
    """``fun``'s coefficient vectors as one group, or one group per branch when it is a ``split``."""
    if isinstance(fun, LinFun):
        return [(fun.coeffs,)]
    if isinstance(fun, split):
        return [(b.coeffs,) for b in fun.branches]
    return [tuple(b.coeffs for b in fun.branches)]


def leq_functional(phi, psi):
    """Pointwise order phi <= psi on the extended orthant, decided exactly.

    Returns (True, None) or (False, y) with phi(y) > psi(y) checked by
    evaluation.  A maximum is below psi iff every branch is, and phi is
    below a minimum iff below every branch, so phi is read as min-clauses
    and psi as max-sets, and every pair must hold.  A minimum of g_i
    against a maximum of h_k is one checked margin decision, ``_decide``.
    """
    if phi.dim != psi.dim:
        raise DimensionMismatch(f"{phi.dim} versus {psi.dim}")
    for gs in _parts(phi, SublinFun):
        for hs in _parts(psi, SuperlinFun):
            y = _decide(gs, hs)[0]
            if y is not None:
                require(psi.eval(y) < phi.eval(y), "order witness failed verification")
                return False, y
    return True, None
