"""Polynomial metrics in normal coordinates and their exact geometry.

A metric here is a constant diagonal part plus finitely many
higher-degree Taylor parts, each a gauge tensor (so the coordinates are
normal: rays from the origin are geodesics and the radial contraction
of every part vanishes).  All series manipulation is exact: inverses,
Christoffel symbols, curvature, covariant derivatives, and the
backwards parallel transport factor are computed as truncated
polynomial series over the rationals.

The curvature comes from the Christoffel symbols of the first kind,
Gamma_{l,jk} = L_jk[l] / 2, which need no inverse:
    R(a,b,c,d) = d_a Gamma_{d,bc} - d_b Gamma_{d,ac}
                 + sum_m (Gamma_{m,bd} Gamma^m_{ac} - Gamma_{m,ad} Gamma^m_{bc}),
g_dm times the 2-form d_a Gamma_b - d_b Gamma_a + [Gamma_a, Gamma_b] at
(m, c), as d_a g_dm = Gamma_{d,am} + Gamma_{m,ad}.  Gamma(0) = 0 in normal
coordinates, so for a jet of order k its products, and every covariant
step (truncation <= k - 1), read Gamma^m_{jk} to degree k - 1 and g^{-1}
to degree k - 2.

The metric -> jet route and the jet -> metric synthesis run on ints.
Both sides are weighted-homogeneous under x -> t x: the metric part of
degree d scales by t**d and jet level l by t**(l+2).  So a metric is
dilated by t, twice the least common denominator of its parts, the
series are computed in integer arithmetic, and each jet level is divided
by t**(l+2) once at the end; the 2 in t makes every part of degree d
divisible by 2**d, so the Christoffel symbols L / 2 and g^{-1} L / 2 stay integral.
The synthesis dilates the symmetrized jet the same way, checks the gauge
condition on the integer arrangement sums of each degree-d part, and
divides each sum once, folding t**d into ``tensor.pair_average``'s
division.  Every quotient is an int where it is integral.

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

from .exactla import exact_quotient
from .freealg import evaluate, q_poly, qtilde_poly
from .jets import CurvatureJet, SymJet, symmetrize_jet
from .poly import Poly, _dilate_integral, _graded, _graded_mul_into, _negated
from .tensor import (
    MultiTensor,
    PolyEnd,
    Space,
    SymPairTensor,
    _sign_representative,
    _unfold,
    end_pair_sums,
    gauge_basis,
    int_field,
    is_gauge_tensor,
    json_obj,
    list_field,
    pair_average,
    pair_matrix,
    pair_to_end,
    sums_are_gauge,
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

    def json_frame(self):
        """The document with each part's tensor in place of its components list."""
        return {
            "n": self.space.n,
            "signature": list(self.space.signature),
            "parts": [{"degree": d, "components": self.parts[d]} for d in sorted(self.parts)],
        }

    def to_json_obj(self):
        return json_obj(self.json_frame())

    @classmethod
    def from_json_obj(cls, obj):
        space = Space(obj["n"], tuple(obj["signature"]))
        return make_normal_metric(space, [
            SymPairTensor.from_components(space, int_field(entry, "degree"),
                                          list_field(entry, "components"))
            for entry in list_field(obj, "parts")
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


# ---------------------------------------------------------------------------
# series: every matrix of truncated polynomials is a PolyEnd


def metric_form_series(g: PolyMetric, trunc: int) -> PolyEnd:
    """The metric matrix H with H(x) = g_x, truncated to total degree trunc."""
    space = g.space
    total = PolyEnd.diagonal(space, space.signature)
    for h in g.parts.values():
        total = total + pair_matrix(h)
    return total.truncated(trunc)


def inverse_series(g: PolyMetric, trunc: int) -> PolyEnd:
    """Inverse metric g^{ij} as a truncated Neumann series (``_inverse``)."""
    return _inverse(metric_form_series(g, trunc), trunc)


def _inverse(metric: PolyEnd, trunc: int) -> PolyEnd:
    """The inverse of the metric matrix to degree trunc.

    With g = eps (1 + A), where eps is the constant diagonal part,
    g^{-1} = sum_m (-A)^m eps.
    """
    space = metric.space
    eps = space.signature
    a = metric - PolyEnd.diagonal(space, eps)
    # eps is a diagonal of signs, so eps M scales row i and M eps column j
    minus_a = PolyEnd(space, {(i, j): p.scaled(-eps[i]) for (i, j), p in a.coeffs.items()})
    term = total = PolyEnd.identity(space)
    for _ in range(trunc):
        term = term.mul(minus_a, trunc)
        if term.is_zero():
            break
        total = total + term
    return PolyEnd(space, {(i, j): p.scaled(eps[j]) for (i, j), p in total.coeffs.items()})


def _christoffel(metric: PolyEnd, trunc: int):
    """Christoffel matrices of both kinds, (first[j])[l, k] = Gamma_{l,jk}
    in full and (gamma[j])[i, k] = Gamma^i_{jk} to degree trunc.

    Gamma_{l,jk} = L_jk[l] / 2, with L_jk[l] = d_j g_lk + d_k g_jl - d_l g_jk,
    is formed on k >= j and mirrored, and only on the slots a stored
    derivative reaches: (l, k) of d_j g, and (l, a) and (a, k) for each
    stored (j, l) or (j, k) of d_a g.  Both kinds halve L (g^{-1} L / 2), so
    an integral value stays an int.  L starts at degree 1, so gamma[j] reads
    g^{-1} to degree trunc - 1.
    """
    space = metric.space
    n = space.n
    zero = Poly.zero(n)
    # dg[a][(i, j)] = d_a g_ij, for the variables x_a that g_ij holds
    dg = [{} for _ in range(n)]
    for key, p in metric.coeffs.items():
        for a in {v for mono in p.coeffs for v in mono}:
            dg[a][key] = p.diff(a)
    slots = [set(entries) for entries in dg]
    for a in range(n):
        for j, c in dg[a]:
            slots[j].update(((c, a), (a, c)))
    ginv = _inverse(metric, max(trunc - 1, 0))
    first, gamma = [{} for _ in range(n)], [{} for _ in range(n)]
    for j in range(n):
        lowered = {}
        for l, k in sorted(lk for lk in slots[j] if lk[1] >= j):
            p = dg[j].get((l, k), zero) + dg[k].get((j, l), zero) - dg[l].get((j, k), zero)
            if p:
                lowered[(l, k)] = p
                first[j][(l, k)] = first[k][(l, j)] = _halved(p)
        if lowered:
            for (i, k), p in ginv.mul(PolyEnd(space, lowered), trunc).coeffs.items():
                gamma[j][(i, k)] = gamma[k][(i, j)] = _halved(p)
    return [PolyEnd(space, e) for e in first], [PolyEnd(space, e) for e in gamma]


def _halved(p: Poly) -> Poly:
    """p / 2, exactly: an integral coefficient stays an int."""
    return p._with({m: exact_quotient(c, 2) for m, c in p.coeffs.items()})


def christoffel_series(g: PolyMetric, trunc: int) -> list:
    """Connection matrices Gamma_j with (Gamma_j)[i, k] = Gamma^i_{jk} (``_christoffel``)."""
    return _christoffel(metric_form_series(g, trunc + 1), trunc)[1]


def _lowered_curvature(first, gamma, trunc):
    """Fully lowered curvature R(a, b, c, d) to degree trunc, as a series dict
    on the sign representatives a < b, c < d (``_sign_representative``), by
    the first-kind formula of the module docstring.  It scatters over stored
    entries: d_y of a first-kind entry (x; d, c), and each product of a
    stored Gamma_{m,xd} and Gamma^m_{yc}, with c < d and y != x, land on
    (y, x, c, d) with + when y < x and on (x, y, c, d) with - when x < y.
    Both factors of a product start at degree 1: each is read to trunc - 1.
    """
    out = defaultdict(dict)

    def landing(x, y, c, d):
        return (out[(y, x, c, d)], 1) if y < x else (out[(x, y, c, d)], -1)

    for x, fx in enumerate(first):
        for (d, c), p in fx.coeffs.items():
            if c >= d:
                continue
            for y in sorted({v for mono in p.coeffs for v in mono} - {x}):
                acc, sign = landing(x, y, c, d)
                for mono, v in p.diff(y).truncated(trunc).coeffs.items():
                    acc[mono] = acc.get(mono, 0) + sign * v
    # rows[m]: (y, c, graded Gamma^m_{yc}) for each stored entry
    rows = defaultdict(list)
    for y, gy in enumerate(gamma):
        for (m, c), q in gy.coeffs.items():
            if graded := _graded(q.coeffs, trunc - 1):
                rows[m].append((y, c, graded))
    for x, fx in enumerate(first):
        for (m, d), p in fx.coeffs.items():
            row = rows.get(m)
            graded = row and _graded(p.coeffs, trunc - 1)
            if not graded:
                continue
            by_sign = {1: graded, -1: _negated(graded)}
            for y, c, q in row:
                if y != x and c < d:
                    acc, sign = landing(x, y, c, d)
                    _graded_mul_into(acc, by_sign[sign], q, trunc)
    zero = Poly.zero(len(first))
    return {key: zero._with(nonzero) for key, coeffs in out.items()
            if (nonzero := {m: v for m, v in coeffs.items() if v})}


def _covariant_derivative_dict(t, arity, gamma, n, trunc):
    """Prepend one covariant derivative slot to a series tensor dict.

    Gather form: out[(j,) + K] = d_j T[K] - sum_{s,m} Gamma^m_{j K_s} T[K, s -> m].
    T is antisymmetric in its last two slot pairs and stored on sign
    representatives only; so is the result.  Implemented as a scatter
    over the stored components: T[idx] feeds every output slot value c
    with weight -Gamma^{idx_s}_{j c}, and each contribution is moved to
    the representative of its key with the sign of that move.  This is
    exact because the derivative commutes with slot permutations and the
    swaps act freely on nonzero keys; a key with an equal antisymmetric
    pair receives contributions that sum to 0, so it is skipped.

    Each Christoffel entry and each component is graded by degree once
    and the products accumulate in place (``poly._graded_mul_into``).
    In normal coordinates Gamma(0) = 0, so a Christoffel entry only meets
    components of degree < trunc: each component is graded to trunc - 1,
    and at trunc 0 the result is the derivative terms alone.  Those cut
    each component to degree trunc + 1 and differentiate it only by the
    variables it then holds.
    """
    out = defaultdict(dict)
    for idx, p in t.items():
        low = p.truncated(trunc + 1)
        for j in sorted(set().union(*low.coeffs)):
            out[(j,) + idx] = low.diff(j).coeffs
    zero = Poly.zero(n)
    if trunc == 0:
        return {key: zero._with(coeffs) for key, coeffs in out.items()}
    # weights[(m, c)]: j with the graded weight -sign * Gamma^m_{jc} for each sign of a move
    weights = {}
    for j in range(n):
        for key, gp in gamma[j].coeffs.items():
            if graded := _graded(gp.coeffs, trunc):
                weights.setdefault(key, []).append((j, {1: _negated(graded), -1: graded}))
    for idx, p in t.items():
        graded = _graded(p.coeffs, trunc - 1)
        for s in range(arity):
            ms = idx[s]
            for c in range(n):
                terms = weights.get((ms, c))
                moved = terms and _sign_representative(idx[:s] + (c,) + idx[s + 1:])
                if not moved:
                    continue
                rest, sign = moved
                for j, by_sign in terms:
                    _graded_mul_into(out[(j,) + rest], by_sign[sign], graded, trunc)
    return {key: zero._with(coeffs) for key, coeffs in out.items() if coeffs}


def _integral_metric(g: PolyMetric):
    """g dilated into ints: (t, the metric whose part of degree d is t**d times g's).

    t is twice the least common denominator of g's parts, so every part of
    degree d >= 2 is divisible by 2**d and each L_jk in ``_christoffel``
    is even (parts of degree 1 are 0 by the gauge).
    """
    degrees = sorted(g.parts)
    t, parts = _dilate_integral([(d, g.parts[d]) for d in degrees], factor=2)
    return t, PolyMetric(g.space, dict(zip(degrees, parts)))


def curvature_jet_at_origin(g: PolyMetric, order: int) -> CurvatureJet:
    """Jet of the curvature and its covariant derivatives at the origin.

    R to degree k = order takes the first kind to degree k + 1 and the second
    to max(k - 1, 0), all that R and the covariant steps read (module docstring).
    The series run on ``_integral_metric(g)``, whose level l is t**(l+2)
    times g's, so each level's constant terms are divided by t**(l+2).
    They are carried on sign representatives (``_sign_representative``),
    and each level's constant terms leave them through ``_unfold``.
    """
    space = g.space
    n = space.n
    t, g = _integral_metric(g)
    first, gamma = _christoffel(metric_form_series(g, order + 2), max(order - 1, 0))
    cur = _lowered_curvature(first, gamma, order)
    levels = []
    level_trunc = order
    for level in range(order + 1):
        scale = t ** (level + 2)
        reps = {idx: exact_quotient(p.constant_term(), scale) for idx, p in cur.items()}
        levels.append(MultiTensor(space, level + 4, _unfold(reps)))
        if level < order:
            level_trunc -= 1
            cur = _covariant_derivative_dict(cur, level + 4, gamma, n, level_trunc)
    return CurvatureJet(space, levels)


# ---------------------------------------------------------------------------
# direction metric <- symmetrized jet (the universal polynomials at work)


def _curvature_operators(levels):
    """Assignment of the curvature operator of each level to its letter."""
    return {level + 2: pair_to_end(h) for level, h in enumerate(levels)}


def metric_from_symjet(s: SymJet) -> PolyMetric:
    """Normal-coordinate metric generated by a symmetrized jet.

    The degree-d Taylor part is the universal metric polynomial of
    degree d evaluated on the curvature operators of the jet, divided
    by d!.  The jet is dilated into ints first (level l by t**(l+2)) and
    q_poly(d) is cleared of denominators by m; q_poly(d) has weight d, so
    the degree-d part's integer arrangement sums are checked against the
    gauge condition (raising ``GaugeError``) and divided by m * d! * t**d
    in ``pair_average``, once each.
    """
    space = s.space
    t, levels = _dilate_integral([(l + 2, h) for l, h in enumerate(s.levels)])
    operators = _curvature_operators(levels)
    unit = PolyEnd.identity(space)
    parts = {}
    for degree in range(2, s.order + 3):
        m, (q,) = _dilate_integral([(1, q_poly(degree))])
        sums = end_pair_sums(evaluate(q, operators, unit=unit))
        if not sums_are_gauge(sums):
            raise GaugeError(degree)
        parts[degree] = pair_average(space, degree, sums, m * factorial(degree) * t ** degree)
    return PolyMetric(space, parts)


def extend_jet(jet: CurvatureJet) -> CurvatureJet:
    """Extend a valid jet by one order (``InvalidJetError`` on an invalid one)
    by the new level that symmetrizes to zero: the jet of the metric of the
    symmetrized jet padded with a zero top level.  Jets and symmetrized
    jets correspond one to one, so its lower levels are the input's."""
    space, order = jet.space, jet.order
    s = symmetrize_jet(jet)
    padded = SymJet(space, s.levels + [SymPairTensor.zero(space, order + 3)])
    return curvature_jet_at_origin(metric_from_symjet(padded), order + 1)


def transport_polynomial(s: SymJet, trunc: int) -> PolyEnd:
    """Backwards parallel transport built from the universal polynomials.

    Sums the degree-m transport coefficients evaluated on the curvature
    operators of s, divided by m!.  Needs trunc <= order + 2.
    """
    space = s.space
    if trunc > s.order + 2:
        raise ValueError("not enough jet levels for the requested truncation")
    operators = _curvature_operators(s.levels)
    total = PolyEnd.zero(space)
    for m in range(trunc + 1):
        end = evaluate(qtilde_poly(m), operators, unit=PolyEnd.identity(space))
        total = total + end.scaled(Fraction(1, factorial(m)))
    return total


def parallel_transport_series(g: PolyMetric, trunc: int) -> PolyEnd:
    """Backwards parallel transport along radial geodesics, as a series.

    Returns N(x) with N(0) = Id solving the transport equation pulled
    back to the ray t -> t x; the degree-m part is built from the
    recursion m N_m = sum_{e<m} N_e A_{m-e}, where A_d is the degree-d
    part of the radial contraction A = x^j Gamma_j.
    """
    space = g.space
    n = space.n
    gamma = christoffel_series(g, max(trunc - 1, 0))
    radial = PolyEnd.zero(space)
    for j in range(n):
        radial = radial + gamma[j].times_variable(j)
    radial_parts = [radial.homogeneous_part(d) for d in range(trunc + 1)]
    levels = [PolyEnd.identity(space)]
    for m in range(1, trunc + 1):
        acc = PolyEnd.zero(space)
        for e in range(m):
            acc = acc + levels[e].mul(radial_parts[m - e])
        levels.append(acc.scaled(Fraction(1, m)))
    return sum(levels[1:], levels[0])


# ---------------------------------------------------------------------------
# stock examples and random generators


def const_curvature_jet(space: Space, kappa, order: int) -> CurvatureJet:
    """Curvature jet of the constant-curvature model metric.

    Level zero is R(a, b, b, a) = kappa eps_a eps_b = -R(a, b, a, b) for
    a != b, and 0 elsewhere; the model is locally symmetric, so every
    higher level vanishes.
    """
    level0 = {idx: sign * kappa * space.eps(a) * space.eps(b)
              for a, b in itertools.permutations(range(space.n), 2)
              for idx, sign in (((a, b, b, a), 1), ((a, b, a, b), -1))}
    return CurvatureJet(space, [MultiTensor(space, 4, level0)]
                        + [MultiTensor(space, level + 4) for level in range(1, order + 1)])


def _random_gauge_tensor(space: Space, degree: int, rng, coeff_bound: int) -> SymPairTensor:
    """Random combination of the gauge basis with small integer coefficients."""
    h = SymPairTensor.zero(space, degree)
    for b in gauge_basis(space, degree):
        c = rng.randint(-coeff_bound, coeff_bound)
        if c:
            h = h + b.scaled(c)
    return h


def random_symjet(space: Space, order: int, rng, coeff_bound: int = 3) -> SymJet:
    """Random symmetrized jet with small integer coordinates."""
    return SymJet(space, [_random_gauge_tensor(space, level + 2, rng, coeff_bound)
                          for level in range(order + 1)])


def random_normal_metric(space: Space, order: int, rng, coeff_bound: int = 3) -> PolyMetric:
    """Random polynomial normal metric with parts of degree 2..order."""
    return make_normal_metric(space, [_random_gauge_tensor(space, degree, rng, coeff_bound)
                                      for degree in range(2, order + 1)])
