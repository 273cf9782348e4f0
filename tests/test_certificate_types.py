"""Every certificate the package returns is an ``ExtVec``, and a corner
witness is ``(int, ExtReal)`` pairs, whichever path built it: the weights
e_k, fictitious play or the LP rounds of ``separate``, the infinity cover,
the two screens or the margin LP of an order decision, with or without a
member dropped as infinite."""

import importlib
import random
from fractions import Fraction

from conedual import (
    INF,
    ExtReal,
    ExtVec,
    LinFun,
    MeetsCorner,
    Separated,
    SublinFun,
    dominated_by_max,
    interpolate,
    separate,
)
from conedual.errors import PreconditionViolated

F = Fraction
convex_sep = importlib.import_module("conedual.convex_sep")
functionals = importlib.import_module("conedual.functionals")


def _spy(monkeypatch, module, name):
    """Record each answer ``module.name`` gives."""
    real, seen = getattr(module, name), []

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(module, name, spy)
    return seen


def _rand_vec(rng, dim, inf_rate, top):
    return ExtVec([INF if rng.random() < inf_rate else ExtReal(rng.randint(0, top), rng.randint(1, 3))
                   for _ in range(dim)])


def _hull(rng):
    dim = rng.randint(1, 4)
    kind = rng.randrange(3)
    if kind == 0:
        return [_rand_vec(rng, dim, 0.1, rng.choice((2, 3, 4))) for _ in range(rng.randint(1, 7))], dim
    if kind == 1:
        # one large entry per generator: no e_k, so play or the LP answers
        gens = []
        for j in range(rng.randint(dim, dim + 3)):
            g = [ExtReal(rng.choice((0, 0, 1)), rng.randint(2, 4)) for _ in range(dim)]
            g[j % dim] = ExtReal(rng.randint(2, dim + 1))
            gens.append(g)
    else:
        # a planted mix lam / sum(lam) just above or below one at every
        # coordinate, which play may not reach within its cap
        lam = [rng.randint(1, 5) for _ in range(dim)]
        scale = 1 + F(rng.choice((1, -1)), rng.randint(20, 200))
        gens = [[F(sum(lam), lam[k]) * scale if i == k else 0 for i in range(dim)] for k in range(dim)]
    if rng.randrange(2):
        # and a coordinate that one generator makes infinite, so it is dropped
        for g in gens:
            g.append(rng.randint(0, 2))
        rng.choice(gens)[-1] = INF
        dim += 1
    return [ExtVec(g) for g in gens], dim


def _order(rng):
    dim = rng.randint(1, 4)
    hvecs = [_rand_vec(rng, dim, 0.1, 6) for _ in range(rng.randint(1, 3))]
    if len(hvecs) > 1 and rng.random() < 0.5:
        # the midpoint of two branches, which only a mix covers, or just above it
        mid = hvecs[0].scale(ExtReal(1, 2)) + hvecs[1].scale(ExtReal(1, 2))
        gvecs = [mid + ExtVec([ExtReal(rng.randint(0, 1), 8)] * dim)]
        gvecs += [_rand_vec(rng, dim, 0.3, 9) for _ in range(rng.randrange(2))]
    else:
        gvecs = [_rand_vec(rng, dim, 0.15, 6) for _ in range(rng.randint(1, 3))]
    return gvecs, hvecs


def _is_extvec(v, n):
    return type(v) is ExtVec and len(v) == n


def test_every_certificate_is_an_extvec_on_every_path(monkeypatch):
    rng = random.Random(2503)
    played = _spy(monkeypatch, convex_sep, "_play")
    solved = _spy(monkeypatch, convex_sep, "_separation_lp")
    paths = {}
    for _ in range(400):
        gens, dim = _hull(rng)
        before = len(played), len(solved)
        out = separate(gens, dim)
        if len(solved) > before[1]:
            path = "lp"
        elif len(played) > before[0]:
            path = "play"
        else:
            path = "e_k" if type(out) is Separated else "cover"
        if type(out) is Separated:
            assert _is_extvec(out.weights, dim), out
        else:
            assert type(out.witness) is tuple and out.witness, out
            assert all(type(j) is int and type(c) is ExtReal for j, c in out.witness), out
        inf = any(g._form[2] for g in gens)
        paths[path, type(out), inf] = paths.get((path, type(out), inf), 0) + 1
    for path, kind in (("e_k", Separated), ("play", Separated), ("play", MeetsCorner),
                       ("lp", Separated), ("lp", MeetsCorner)):
        assert min(paths.get((path, kind, False), 0), paths.get((path, kind, True), 0)) >= 5, paths
    assert paths.get(("cover", MeetsCorner, True), 0) >= 5, paths

    screened = _spy(monkeypatch, functionals, "_screen")
    margins = _spy(monkeypatch, functionals, "_margin")
    paths = {}
    for _ in range(400):
        gvecs, hvecs = _order(rng)
        phi = SublinFun(hvecs)
        before = len(screened), len(margins)
        try:
            result = interpolate(gvecs, phi)
        except PreconditionViolated as exc:
            held = False
            assert type(exc.witness) is ExtVec
        else:
            held = True
            assert _is_extvec(result.weights, len(gvecs)), result
            assert _is_extvec(result.certificate, len(hvecs)), result
        if len(margins) > before[1]:
            path = "margin"
        elif len(screened) > before[0]:
            path = "pair" if held else "vertex"
        else:
            path = "none left"
        ok, cert = dominated_by_max(LinFun(gvecs[0]), phi)
        assert _is_extvec(cert, len(hvecs) if ok else phi.dim), (ok, cert)
        off = 0
        for h in hvecs:
            off |= h._form[2]
        dropped = any(g._form[2] & ~off for g in gvecs)
        paths[path, held, dropped] = paths.get((path, held, dropped), 0) + 1
    # "none left": R is empty, or every member is infinite on it
    for key in (("pair", True), ("vertex", False), ("margin", True), ("margin", False)):
        assert min(paths.get((*key, False), 0), paths.get((*key, True), 0)) >= 5, paths
    assert min(paths.get(("none left", True, False), 0), paths.get(("none left", False, True), 0)) >= 5, paths
