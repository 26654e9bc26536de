"""Polynomial metrics in normal coordinates and their exact geometry.

A metric here is a constant diagonal part plus finitely many
higher-degree Taylor parts, each a gauge tensor (so the coordinates are
normal: rays from the origin are geodesics and the radial contraction
of every part vanishes).  All series manipulation is exact: inverses,
Christoffel symbols, curvature, covariant derivatives, and the
backwards parallel transport factor are computed as truncated
polynomial series over the rationals.

This module is the analytic counterpart of :mod:`jetiso.jets`: jets of
actual metrics provide the reference values that the algebraic side
must reproduce, and ``metric_from_symjet`` inverts the direction,
rebuilding the metric from symmetrized curvature data through the
universal polynomials.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .exactla import format_rational
from .freealg import evaluate, q_poly, qtilde_poly
from .jets import CurvatureJet, MultiTensor, SymJet
from .poly import Poly
from .tensor import (
    PolyEnd,
    Space,
    SymPairTensor,
    content_of,
    end_to_pair,
    gauge_basis,
    is_gauge_tensor,
    multiset_count,
    pair_to_end,
)


class GaugeError(ValueError):
    """A metric part failed the normal-coordinate gauge condition."""

    def __init__(self, degree):
        self.degree = degree
        super().__init__(f"part of degree {degree} is not a gauge tensor")


@dataclass
class PolyMetric:
    """Constant diagonal metric plus polynomial corrections.

    ``parts`` maps the polynomial degree to a SymPairTensor of that
    symmetric arity.  The constructor does not check the gauge
    condition; ``make_normal_metric`` and ``from_json_obj`` do.
    """

    space: Space
    parts: dict

    def __post_init__(self):
        for degree, h in self.parts.items():
            if h.k != degree or h.space != self.space:
                raise ValueError(f"part of degree {degree} has arity {h.k}")

    @property
    def order(self):
        return max(self.parts, default=0)

    def part(self, degree) -> SymPairTensor:
        return self.parts.get(degree, SymPairTensor.zero(self.space, degree))

    def __eq__(self, other):
        if not isinstance(other, PolyMetric) or self.space != other.space:
            return False
        degrees = set(self.parts) | set(other.parts)
        return all(self.part(d) == other.part(d) for d in degrees)

    def to_json_obj(self):
        return {
            "n": self.space.n,
            "signature": list(self.space.signature),
            "parts": [
                {"degree": d, "components": self.parts[d].to_json_obj()["components"]}
                for d in sorted(self.parts)
            ],
        }

    @classmethod
    def from_json_obj(cls, obj):
        space = Space(obj["n"], tuple(obj["signature"]))
        return make_normal_metric(space, [
            SymPairTensor.from_json_obj({
                "n": obj["n"], "signature": obj["signature"],
                "k": entry["degree"], "components": entry["components"],
            })
            for entry in obj["parts"]
        ])

    def __repr__(self):
        return f"PolyMetric(n={self.space.n}, degrees={sorted(self.parts)})"


def make_normal_metric(space: Space, parts) -> PolyMetric:
    """Validated construction from a list of gauge-tensor parts."""
    table = {}
    for h in parts:
        if h.space != space:
            raise ValueError("part space does not match")
        if h.k < 1:
            raise ValueError("parts must have degree >= 1")
        if h.k in table:
            raise ValueError(f"duplicate part of degree {h.k}")
        table[h.k] = h
    for degree, h in table.items():
        if not is_gauge_tensor(h):
            raise GaugeError(degree)
    return PolyMetric(space, table)


@dataclass
class PowerSeriesTensor:
    """Componentwise truncated polynomial series.

    ``shape`` gives the index ranges of the component array; ``comps``
    maps index tuples to polynomials in the base coordinates, exact up
    to total degree ``trunc``.
    """

    space: Space
    trunc: int
    shape: tuple
    comps: dict

    def component(self, idx) -> Poly:
        return self.comps.get(tuple(idx), Poly.zero(self.space.n))

    def __eq__(self, other):
        if not isinstance(other, PowerSeriesTensor):
            return False
        if (self.space, self.trunc, self.shape) != (other.space, other.trunc, other.shape):
            return False
        keys = set(self.comps) | set(other.comps)
        return all(self.component(k) == other.component(k) for k in keys)

    def to_json_obj(self):
        entries = []
        for idx in sorted(self.comps):
            p = self.comps[idx]
            if p.is_zero():
                continue
            entries.append({
                "idx": list(idx),
                "terms": [{"mono": list(m), "coeff": format_rational(c)}
                          for m, c in p.sorted_terms()],
            })
        return {
            "n": self.space.n,
            "signature": list(self.space.signature),
            "trunc": self.trunc,
            "shape": list(self.shape),
            "components": entries,
        }


# ---------------------------------------------------------------------------
# series plumbing (dict-of-Poly helpers, internal)


def _metric_series(g: PolyMetric):
    """Dense dict (i, j) -> Poly for the full metric, exact (polynomial)."""
    space = g.space
    n = space.n
    out = {(i, j): Poly.zero(n) for i in range(n) for j in range(n)}
    for i in range(n):
        out[(i, i)] = Poly.const(n, space.eps(i))
    for degree, h in sorted(g.parts.items()):
        for (sym, pair), value in h.comps.items():
            mono = content_of(sym, n)
            weight = multiset_count(sym) * value
            p, q = pair
            out[(p, q)] = out[(p, q)] + Poly(n, {mono: weight})
            if p != q:
                out[(q, p)] = out[(q, p)] + Poly(n, {mono: weight})
    return out


def _matrix_mul(a, b, n, trunc):
    out = {}
    for i in range(n):
        for j in range(n):
            acc = Poly.zero(n)
            for m in range(n):
                pa = a.get((i, m))
                pb = b.get((m, j))
                if pa is None or pb is None or pa.is_zero() or pb.is_zero():
                    continue
                acc = acc + pa.mul(pb, trunc)
            if not acc.is_zero():
                out[(i, j)] = acc
    return out


def _inverse_series_dict(g: PolyMetric, trunc):
    """Neumann series for the inverse metric, truncated."""
    space = g.space
    n = space.n
    gser = _metric_series(g)
    # split g = g0 + h with g0 the constant diagonal; then
    # g^{-1} = sum_m (-g0^{-1} h)^m g0^{-1}
    minus_a = {}
    for (i, j), p in gser.items():
        tail = (p - Poly.const(n, space.eps(i)) if i == j else p).truncated(trunc)
        if not tail.is_zero():
            minus_a[(i, j)] = tail.scaled(-space.eps(i))
    term = {(i, i): Poly.const(n, 1) for i in range(n)}
    total = dict(term)
    for _ in range(trunc):
        term = _matrix_mul(term, minus_a, n, trunc)
        if not term:
            break
        for key, p in term.items():
            total[key] = total.get(key, Poly.zero(n)) + p
    out = {}
    for (i, j), p in total.items():
        q = p.scaled(space.eps(j))
        if not q.is_zero():
            out[(i, j)] = q
    return out


def inverse_series(g: PolyMetric, trunc: int) -> PowerSeriesTensor:
    """Inverse metric components g^{ij} as a truncated series."""
    n = g.space.n
    return PowerSeriesTensor(g.space, trunc, (n, n), _inverse_series_dict(g, trunc))


def _christoffel_dict(g: PolyMetric, trunc):
    """Gamma^i_{jk} truncated to the given total degree."""
    space = g.space
    n = space.n
    gser = _metric_series(g)
    ginv = _inverse_series_dict(g, trunc)
    dg = {}
    for (l, k), p in gser.items():
        for j in range(n):
            d = p.diff(j).truncated(trunc)
            if not d.is_zero():
                dg[(j, l, k)] = d

    def dpart(j, l, k):
        return dg.get((j, l, k))

    out = {}
    half = Fraction(1, 2)
    for i in range(n):
        for j in range(n):
            for k in range(j, n):
                acc = Poly.zero(n)
                for l in range(n):
                    gil = ginv.get((i, l))
                    if gil is None:
                        continue
                    term = Poly.zero(n)
                    for sign, key in ((1, (j, l, k)), (1, (k, j, l)), (-1, (l, j, k))):
                        p = dpart(*key)
                        if p is not None:
                            term = term + (p if sign > 0 else -p)
                    if not term.is_zero():
                        acc = acc + gil.mul(term, trunc)
                if not acc.is_zero():
                    acc = acc.scaled(half)
                    out[(i, j, k)] = acc
                    if j != k:
                        out[(i, k, j)] = acc
    return out


def christoffel_series(g: PolyMetric, trunc: int) -> PowerSeriesTensor:
    """Christoffel symbols Gamma^i_{jk}, symmetric in (j, k)."""
    n = g.space.n
    return PowerSeriesTensor(g.space, trunc, (n, n, n), _christoffel_dict(g, trunc))


def check_normal_gauge(g: PolyMetric) -> bool:
    """True when the radial contraction g_x(x, .) equals <x, .> exactly."""
    space = g.space
    n = space.n
    for degree, h in g.parts.items():
        radial = defaultdict(lambda: Poly.zero(n))
        for (sym, pair), value in h.comps.items():
            mono = content_of(sym, n)
            weight = multiset_count(sym) * value
            p, q = pair
            for a, b in (((p), (q)), ((q), (p))) if p != q else (((p), (q)),):
                bumped = list(mono)
                bumped[a] += 1
                radial[b] = radial[b] + Poly(n, {tuple(bumped): weight})
        if any(not poly.is_zero() for poly in radial.values()):
            return False
    return True


def _lowered_curvature_dict(g: PolyMetric, trunc):
    """Fully lowered curvature R(a, b, c, d) as a series dict."""
    space = g.space
    n = space.n
    gser = _metric_series(g)
    gamma = _christoffel_dict(g, trunc + 1)

    def gm(i, j, k):
        return gamma.get((i, j, k))

    up = {}
    for i in range(n):
        for c in range(n):
            for a in range(n):
                for b in range(a + 1, n):
                    acc = Poly.zero(n)
                    p = gm(i, b, c)
                    if p is not None:
                        acc = acc + p.diff(a)
                    p = gm(i, a, c)
                    if p is not None:
                        acc = acc - p.diff(b)
                    for m in range(n):
                        p1, p2 = gm(i, a, m), gm(m, b, c)
                        if p1 is not None and p2 is not None:
                            acc = acc + p1.mul(p2, trunc)
                        p1, p2 = gm(i, b, m), gm(m, a, c)
                        if p1 is not None and p2 is not None:
                            acc = acc - p1.mul(p2, trunc)
                    acc = acc.truncated(trunc)
                    if not acc.is_zero():
                        up[(i, c, a, b)] = acc

    out = {}
    for (i, c, a, b), p in up.items():
        for d in range(n):
            gid = gser.get((i, d))
            if gid is None or gid.is_zero():
                continue
            prod = gid.mul(p, trunc)
            if prod.is_zero():
                continue
            for key in ((a, b, c, d), (b, a, c, d)):
                sign = 1 if key == (a, b, c, d) else -1
                cur = out.get(key)
                term = prod if sign > 0 else -prod
                out[key] = term if cur is None else cur + term
    return {key: p for key, p in out.items() if not p.is_zero()}


def _covariant_derivative_dict(t, arity, gamma, n, trunc):
    """Prepend one covariant derivative slot to a series tensor dict.

    Gather form: out[(j,) + K] = d_j T[K] - sum_{s,m} Gamma^m_{j K_s} T[K, s -> m].
    Implemented as a scatter over the nonzero components of T, so the
    component T[idx] feeds every output slot value c with weight
    -Gamma^{idx_s}_{j c}.
    """
    out = {}
    for idx, p in t.items():
        for j in range(n):
            d = p.diff(j).truncated(trunc)
            if not d.is_zero():
                key = (j,) + idx
                cur = out.get(key)
                out[key] = d if cur is None else cur + d
    for idx, p in t.items():
        for s in range(arity):
            ms = idx[s]
            for j in range(n):
                for c in range(n):
                    gp = gamma.get((ms, j, c))
                    if gp is None:
                        continue
                    prod = gp.mul(p, trunc)
                    if prod.is_zero():
                        continue
                    key = (j,) + idx[:s] + (c,) + idx[s + 1:]
                    cur = out.get(key)
                    out[key] = -prod if cur is None else cur - prod
    return {key: p for key, p in out.items() if not p.is_zero()}


def curvature_jet_at_origin(g: PolyMetric, order: int) -> CurvatureJet:
    """Jet of the curvature and its covariant derivatives at the origin."""
    space = g.space
    n = space.n
    gamma = _christoffel_dict(g, order + 1)
    cur = _lowered_curvature_dict(g, order)
    levels = []
    level_trunc = order
    for level in range(order + 1):
        t = MultiTensor.zero(space, level + 4)
        for idx, p in cur.items():
            c = p.constant_term()
            if c:
                t.set(idx, c)
        levels.append(t)
        if level < order:
            level_trunc -= 1
            cur = _covariant_derivative_dict(cur, level + 4, gamma, n, level_trunc)
    return CurvatureJet(space, levels)


# ---------------------------------------------------------------------------
# direction metric <- symmetrized jet (the universal polynomials at work)


def metric_from_symjet(s: SymJet) -> PolyMetric:
    """Normal-coordinate metric generated by a symmetrized jet.

    The degree-d Taylor part is the universal metric polynomial of
    degree d evaluated on the curvature operators of the jet, divided
    by d!.
    """
    space = s.space
    operators = {level + 2: pair_to_end(h) for level, h in enumerate(s.levels)}
    parts = []
    for degree in range(2, s.order + 3):
        end = evaluate(
            q_poly(degree), operators,
            unit=PolyEnd.identity(space),
            scale=lambda c, x: x.scaled(c),
        )
        part = end_to_pair(end.scaled(Fraction(1, factorial(degree))))
        parts.append(part)
    return make_normal_metric(space, parts)


def transport_polynomial(s: SymJet, trunc: int) -> PowerSeriesTensor:
    """Backwards parallel transport built from the universal polynomials.

    Sums the degree-m transport coefficients evaluated on the curvature
    operators of s, divided by m!.  Needs trunc <= order + 2.
    """
    space = s.space
    n = space.n
    if trunc > s.order + 2:
        raise ValueError("not enough jet levels for the requested truncation")
    operators = {level + 2: pair_to_end(h) for level, h in enumerate(s.levels)}
    comps = defaultdict(lambda: Poly.zero(n))
    for m in range(trunc + 1):
        end = evaluate(
            qtilde_poly(m), operators,
            unit=PolyEnd.identity(space),
            scale=lambda c, x: x.scaled(c),
        )
        for (i, j), p in end.scaled(Fraction(1, factorial(m))).entries.items():
            comps[(i, j)] = comps[(i, j)] + p
    return PowerSeriesTensor(space, trunc, (n, n), dict(comps))


def parallel_transport_series(g: PolyMetric, trunc: int) -> PowerSeriesTensor:
    """Backwards parallel transport along radial geodesics, as a series.

    Returns N(x) with N(0) = Id solving the transport equation pulled
    back to the ray t -> t x; the degree-m part is built from the
    recursion m N_m = -sum_{e+d=m-1} N_e C_d where C_d is the radial
    contraction of the degree-d Christoffel part.
    """
    space = g.space
    n = space.n
    gamma = _christoffel_dict(g, max(trunc - 1, 0))

    # C_d[i][q] = -(degree-d part of Gamma^i_{jq}) contracted with x^j
    c_parts = defaultdict(lambda: defaultdict(lambda: Poly.zero(n)))
    for (i, j, q), p in gamma.items():
        for mono, coeff in p.coeffs.items():
            d = sum(mono)
            bumped = list(mono)
            bumped[j] += 1
            c_parts[d][(i, q)] = c_parts[d][(i, q)] + Poly(n, {tuple(bumped): -coeff})

    levels = [{(i, i): Poly.const(n, 1) for i in range(n)}]
    for m in range(1, trunc + 1):
        acc = {}
        for d, cmat in c_parts.items():
            e = m - 1 - d
            if e < 0 or e >= len(levels):
                continue
            prod = _matrix_mul(levels[e], {key: p for key, p in cmat.items()}, n, m + 1)
            for key, p in prod.items():
                cur = acc.get(key)
                acc[key] = p if cur is None else cur + p
        level = {key: p.scaled(Fraction(-1, m)) for key, p in acc.items() if not p.is_zero()}
        levels.append(level)

    comps = {}
    for level in levels:
        for key, p in level.items():
            cur = comps.get(key)
            comps[key] = p if cur is None else cur + p
    return PowerSeriesTensor(space, trunc, (n, n), comps)


def metric_form_series(g: PolyMetric, trunc: int):
    """Matrix H with H(x) = g_x as a series dict, for factorization checks."""
    gser = _metric_series(g)
    return {key: p.truncated(trunc) for key, p in gser.items()
            if not p.truncated(trunc).is_zero()}


# ---------------------------------------------------------------------------
# stock examples and random generators


def const_curvature_symjet(space: Space, kappa, order: int) -> SymJet:
    """Symmetrized jet of the constant-curvature model metric.

    Level zero is kappa times the symmetrized metric curvature pattern;
    all higher levels vanish.
    """
    kappa = Fraction(kappa)
    n = space.n

    def ip(a, b):
        return space.eps(a) if a == b else 0

    comps = {}
    half = Fraction(1, 2)
    for sym in itertools.combinations_with_replacement(range(n), 2):
        u, v = sym
        for pair in itertools.combinations_with_replacement(range(n), 2):
            p, q = pair
            val = kappa * (ip(u, v) * ip(p, q)
                           - half * (ip(p, u) * ip(v, q) + ip(p, v) * ip(u, q)))
            if val:
                comps[(sym, pair)] = val
    levels = [SymPairTensor(space, 2, comps)]
    for level in range(1, order + 1):
        levels.append(SymPairTensor.zero(space, level + 2))
    return SymJet(space, levels)


def random_symjet(space: Space, order: int, rng, coeff_bound: int = 3) -> SymJet:
    """Random symmetrized jet with small integer coordinates."""
    levels = []
    for level in range(order + 1):
        basis = gauge_basis(space, level + 2)
        h = SymPairTensor.zero(space, level + 2)
        for b in basis:
            c = rng.randint(-coeff_bound, coeff_bound)
            if c:
                h = h + b.scaled(c)
        levels.append(h)
    return SymJet(space, levels)


def random_normal_metric(space: Space, order: int, rng, coeff_bound: int = 3) -> PolyMetric:
    """Random polynomial normal metric with parts of degree 2..order."""
    parts = []
    for degree in range(2, order + 1):
        basis = gauge_basis(space, degree)
        h = SymPairTensor.zero(space, degree)
        for b in basis:
            c = rng.randint(-coeff_bound, coeff_bound)
            if c:
                h = h + b.scaled(c)
        parts.append(h)
    return make_normal_metric(space, parts)
