"""Polynomial normal metrics, their series, and jets of curvature.

Two independent oracles anchor this file: a symbolic differential
geometry pipeline in sympy (rational-function inverse, its own diff)
and the classical closed-form expansion of the constant-curvature
metric, whose tangential profile is sin^2(sqrt(k) r)/(k r^2).
"""

import functools
import hashlib
import itertools
import json
import random
import tracemalloc
from fractions import Fraction
from math import factorial, lcm

import pytest

from jetiso import metriclab
from jetiso.exactla import exact_quotient, format_rational
from jetiso.freealg import evaluate, q_poly
from jetiso.jets import CurvatureJet, SymJet, jet_from_symjet, symmetrize_jet, validate_jet
from jetiso.metriclab import (
    GaugeError,
    PolyMetric,
    _christoffel,
    _covariant_derivative_dict,
    _integral_metric,
    _lowered_curvature,
    christoffel_series,
    const_curvature_jet,
    curvature_jet_at_origin,
    inverse_series,
    make_normal_metric,
    metric_form_series,
    metric_from_symjet,
    parallel_transport_series,
    random_normal_metric,
    random_symjet,
    transport_polynomial,
)
from jetiso.poly import Poly
from jetiso.tensor import (
    MultiTensor,
    PolyEnd,
    Space,
    SymPairTensor,
    _unfold,
    content_of,
    gauge_basis,
    multiset_count,
    pair_to_end,
    pullback,
    random_signed_perm,
)
from test_jets import reference_symmetrize_level
from test_tensor import check_normal_gauge, end_to_pair, eval_pair

F = Fraction

E2 = Space(2, (1, 1))
E3 = Space(3, (1, 1, 1))
L2 = Space(2, (-1, 1))
L3 = Space(3, (-1, 1, 1))
L4 = Space(4, (-1, 1, 1, 1))


def basis_vec(n, i):
    return [F(1) if j == i else F(0) for j in range(n)]


class TestNormalGauge:
    def test_random_metrics_validate(self):
        rng = random.Random(0)
        for space in (E2, L3):
            g = random_normal_metric(space, 5, rng)
            assert check_normal_gauge(g)

    def test_non_gauge_part_rejected(self):
        # delta tensor delta at degree 2 violates the radial condition
        comps = {}
        for u in range(2):
            for p in range(2):
                comps[((u, u), (p, p))] = F(1)
        bad = SymPairTensor(E2, 2, comps)
        with pytest.raises(GaugeError) as info:
            make_normal_metric(E2, [bad])
        assert info.value.degree == 2

    def test_duplicate_degree_rejected(self):
        h = SymPairTensor.zero(E2, 2)
        with pytest.raises(ValueError):
            make_normal_metric(E2, [h, h])

    def test_radial_geodesics_are_straight(self):
        # Gamma^i_{jk} x^j x^k must vanish identically in normal form
        rng = random.Random(1)
        for space in (E2, E3):
            g = random_normal_metric(space, 4, rng)
            gamma = christoffel_series(g, 4)
            n = space.n
            for i in range(n):
                acc = Poly.zero(n)
                for j in range(n):
                    for k in range(n):
                        p = gamma[j].entry(i, k)
                        xj = Poly.variable(n, j)
                        xk = Poly.variable(n, k)
                        acc = acc + (xj * xk * p).truncated(6)
                assert acc.is_zero()

    def test_christoffel_symmetric_lower_pair(self):
        g = random_normal_metric(L3, 4, random.Random(2))
        gamma = christoffel_series(g, 3)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    assert gamma[j].entry(i, k) == gamma[k].entry(i, j)


class TestSeries:
    def test_inverse_series(self):
        trunc = 5
        for space in (E2, L2, E3):
            g = random_normal_metric(space, 4, random.Random(3))
            ginv = inverse_series(g, trunc)
            gser = metric_form_series(g, trunc)
            n = space.n
            for i in range(n):
                for j in range(n):
                    acc = Poly.zero(n)
                    for m in range(n):
                        lhs = gser.entry(i, m)
                        acc = acc + lhs.mul(ginv.entry(m, j), trunc)
                    want = Poly.const(n, 1) if i == j else Poly.zero(n)
                    assert acc.truncated(trunc) == want

    def test_flat_metric_trivial_series(self):
        g = make_normal_metric(L3, [])
        ginv = inverse_series(g, 4)
        for i in range(3):
            for j in range(3):
                want = Poly.const(3, L3.eps(i)) if i == j else Poly.zero(3)
                assert ginv.entry(i, j) == want


def sympy_jet_levels(g, max_level):
    """Independent jet oracle via symbolic differential geometry."""
    import sympy as sp

    space = g.space
    n = space.n
    xs = sp.symbols(f"x0:{n}")
    tt = sp.Symbol("t")

    def taylor(expr, deg):
        scaled = expr.subs({x: tt * x for x in xs}, simultaneous=True)
        ser = sp.series(scaled, tt, 0, deg + 1).removeO()
        return sp.expand(ser.subs(tt, 1))

    big = sp.zeros(n, n)
    for i in range(n):
        big[i, i] = sp.Integer(space.eps(i))
    for degree, h in g.parts.items():
        for (sym, pair), value in h.coeffs.items():
            expr = sp.Integer(multiset_count(sym)) * sp.Rational(
                value.numerator, value.denominator
            )
            for s in sym:
                expr *= xs[s]
            p, q = pair
            big[p, q] += expr
            if p != q:
                big[q, p] += expr
    inv = big.inv()
    gam = {}
    for i in range(n):
        for j in range(n):
            for k in range(j, n):
                acc = sp.Integer(0)
                for l in range(n):
                    acc += inv[i, l] * (
                        sp.diff(big[l, k], xs[j])
                        + sp.diff(big[j, l], xs[k])
                        - sp.diff(big[j, k], xs[l])
                    )
                acc = taylor(sp.cancel(acc / 2), max_level + 1)
                gam[(i, j, k)] = acc
                gam[(i, k, j)] = acc
    low = {}
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    acc = sp.Integer(0)
                    for i in range(n):
                        up = (
                            sp.diff(gam[(i, b, c)], xs[a])
                            - sp.diff(gam[(i, a, c)], xs[b])
                            + sum(
                                gam[(i, a, m)] * gam[(m, b, c)]
                                - gam[(i, b, m)] * gam[(m, a, c)]
                                for m in range(n)
                            )
                        )
                        acc += big[i, d] * up
                    low[(a, b, c, d)] = taylor(sp.expand(acc), max_level)
    levels = []
    t = low
    zero_subs = {x: 0 for x in xs}
    for level in range(max_level + 1):
        levels.append({idx: e.subs(zero_subs) for idx, e in t.items()})
        if level == max_level:
            break
        nxt = {}
        for idx in itertools.product(range(n), repeat=level + 5):
            j, rest = idx[0], idx[1:]
            acc = sp.diff(t[rest], xs[j])
            for s in range(len(rest)):
                for m in range(n):
                    acc -= gam[(m, j, rest[s])] * t[rest[:s] + (m,) + rest[s + 1:]]
            nxt[idx] = sp.expand(acc)
        t = nxt
    return levels


class TestJetAgainstSympy:
    def test_levels_match_symbolic_geometry(self):
        import sympy as sp

        g = random_normal_metric(L2, 4, random.Random(101), coeff_bound=3)
        jet = curvature_jet_at_origin(g, 2)
        oracle = sympy_jet_levels(g, 2)
        for level in range(3):
            t = jet.levels[level]
            for idx, e in oracle[level].items():
                have = t.get(idx)
                assert sp.Rational(have.numerator, have.denominator) == e, (level, idx)


class TestCurvatureJet:
    def test_flat_metric_zero_jet(self):
        g = make_normal_metric(E3, [])
        jet = curvature_jet_at_origin(g, 3)
        assert all(t.is_zero() for t in jet.levels)
        assert validate_jet(jet) == []

    @pytest.mark.parametrize("space", [E3, L3], ids=["euclidean", "lorentz"])
    def test_constant_curvature_closed_form(self, space):
        kappa = F(3, 2)
        s = symmetrize_jet(const_curvature_jet(space, kappa, 2))
        g = metric_from_symjet(s)
        jet = curvature_jet_at_origin(g, 2)

        def ip(a, b):
            return F(space.eps(a)) if a == b else F(0)

        t0 = jet.levels[0]
        for a, b, c, d in itertools.product(range(space.n), repeat=4):
            want = kappa * (ip(a, d) * ip(b, c) - ip(a, c) * ip(b, d))
            assert t0.get((a, b, c, d)) == want
        # the model metric is locally symmetric: all derivatives vanish
        assert jet.levels[1].is_zero()
        assert jet.levels[2].is_zero()

    def test_sphere_sectional_sign(self):
        jet = curvature_jet_at_origin(
            metric_from_symjet(symmetrize_jet(const_curvature_jet(E3, F(1), 0))), 0)
        t0 = jet.levels[0]
        # R(x, y, y, x) = |x ^ y|^2 > 0 for independent x, y
        assert t0.get((0, 1, 1, 0)) == 1
        assert t0.get((0, 1, 0, 1)) == -1

    @pytest.mark.parametrize("space", [E2, L2, E3, L3, Space(4, (1, 1, 1, 1)), L4],
                             ids=["e2", "l2", "e3", "l3", "e4", "l4"])
    def test_model_jet_is_the_jet_of_its_metric(self, space):
        # the model is built from its entries; the series route is the cross-check
        for kappa in (1, F(2, 3), -3):
            for order in (0, 3):
                jet = const_curvature_jet(space, kappa, order)
                g = metric_from_symjet(symmetrize_jet(jet))
                assert curvature_jet_at_origin(g, order) == jet, (kappa, order)

    def test_oracle_jets_validate(self):
        for space in (E2, L3):
            g = random_normal_metric(space, 5, random.Random(7))
            jet = curvature_jet_at_origin(g, 3)
            assert validate_jet(jet) == []


def reference_lowered_curvature(g, gamma, trunc):
    """R(a, b, c, d) = (g R_ab)[d, c] at every key, assuming no symmetry."""
    metric = metric_form_series(g, trunc)
    out = {}
    for a, b in itertools.product(range(g.space.n), repeat=2):
        ga, gb = gamma[a], gamma[b]
        two_form = gb.diff(a) - ga.diff(b) + ga.mul(gb, trunc) - gb.mul(ga, trunc)
        for (d, c), p in metric.mul(two_form, trunc).coeffs.items():
            out[(a, b, c, d)] = p
    return out


def on_representatives(full):
    """The nonzero entries of a lowered curvature dict at its keys with a < b and c < d."""
    return {key: p for key, p in full.items() if key[0] < key[1] and key[2] < key[3] and p}


def route_curvature(g, order):
    """The start of the series route: the first kind in full, the second
    kind to degree max(order - 1, 0), and R to degree order."""
    first, gamma = _christoffel(metric_form_series(g, order + 2), max(order - 1, 0))
    return first, gamma, _lowered_curvature(first, gamma, order)


class TestFirstKindCurvature:
    """``_lowered_curvature`` forms R from the Christoffel symbols of the first
    kind with Gamma to degree k - 1; the commutator of the second-kind
    matrices with Gamma to degree k + 1 is the reference."""

    @pytest.mark.parametrize("space, order", [
        (E2, 4), (L2, 4), (E3, 3), (L3, 3), (L4, 2), (E3, 0), (L3, 0), (E3, 1), (L3, 1)],
        ids=["e2-4", "l2-4", "e3-3", "l3-3", "l4-2", "e3-0", "l3-0", "e3-1", "l3-1"])
    def test_matches_commutator_formula(self, space, order):
        g = random_normal_metric(space, order + 2, random.Random(70 + space.n))
        *_, cur = route_curvature(g, order)
        gamma = christoffel_series(g, order + 1)
        want = on_representatives(reference_lowered_curvature(g, gamma, order))
        assert want and cur == want

    @pytest.mark.parametrize("space", [E2, L3], ids=["e2", "l3"])
    def test_fraction_metric(self, space):
        order = 2
        rng = random.Random(f"first-kind:{space}")
        g = make_normal_metric(space, mixed_gauge_tensors(space, range(2, order + 3), rng))
        first, _, cur = route_curvature(g, order)
        gamma = christoffel_series(g, order + 1)
        want = on_representatives(reference_lowered_curvature(g, gamma, order))
        assert want and cur == want
        # both kinds halve L once, so an integral value is an int
        assert exact_scalars(c for m in first + gamma for p in m.coeffs.values()
                             for c in p.coeffs.values())
        assert not only_ints(cur.values())
        t, gi = _integral_metric(g)
        first, gamma, cur = route_curvature(gi, order)
        assert only_ints(p for m in first + gamma for p in m.coeffs.values())
        assert cur and only_ints(cur.values())


def reference_covariant_derivative_dict(t, arity, gamma, n, trunc):
    """One covariant derivative scattered from every stored component:
    T[idx] feeds each output slot value c with weight -Gamma^{idx_s}_{j c}."""
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
                gamma_j = gamma[j].coeffs
                for c in range(n):
                    gp = gamma_j.get((ms, c))
                    if gp is None:
                        continue
                    prod = gp.mul(p, trunc)
                    if prod.is_zero():
                        continue
                    key = (j,) + idx[:s] + (c,) + idx[s + 1:]
                    cur = out.get(key)
                    out[key] = -prod if cur is None else cur - prod
    return {key: p for key, p in out.items() if not p.is_zero()}


def reference_curvature_levels(g, order):
    """The jet levels with every component carried through every step."""
    gamma = christoffel_series(g, order + 1)
    cur = reference_lowered_curvature(g, gamma, order)
    levels = []
    for level in range(order + 1):
        levels.append(MultiTensor(g.space, level + 4,
                                  {idx: p.constant_term() for idx, p in cur.items()}))
        if level < order:
            cur = reference_covariant_derivative_dict(cur, level + 4, gamma, g.space.n,
                                                      order - level - 1)
    return levels


class TestSignReducedSeries:
    """``curvature_jet_at_origin`` carries only sign representatives of the
    two antisymmetric slot pairs; the full scatter is the reference."""

    @pytest.mark.parametrize("space, order", [(E2, 4), (L2, 4), (E3, 3), (L3, 3)],
                             ids=["e2", "l2", "e3", "l3"])
    def test_matches_full_scatter(self, space, order):
        g = random_normal_metric(space, order + 2, random.Random(60 + space.n))
        jet = curvature_jet_at_origin(g, order)
        reference = reference_curvature_levels(g, order)
        assert len(jet.levels) == len(reference)
        for level, (t, want) in enumerate(zip(jet.levels, reference)):
            assert not want.is_zero(), level
            assert t == want, level

    def test_metric_free_route_agrees_at_n4(self):
        g = random_normal_metric(L4, 4, random.Random(61))
        jet = curvature_jet_at_origin(g, 2)
        assert all(not t.is_zero() for t in jet.levels)
        assert jet_from_symjet(symmetrize_jet(jet)) == jet


def reference_curvature_jet_at_origin(g, order):
    """The curvature jet by the undilated Fraction route, with full scatter."""
    return CurvatureJet(g.space, reference_curvature_levels(g, order))


def reference_christoffel_series(g, trunc):
    """Gamma_j = g^{-1} L_j / 2 as one full matrix product for every j."""
    n = g.space.n
    ginv = inverse_series(g, trunc)
    dg = [metric_form_series(g, trunc + 1).diff(a) for a in range(n)]
    gamma = []
    for j in range(n):
        lowered = PolyEnd(g.space, {
            (l, k): dg[j].entry(l, k) + dg[k].entry(j, l) - dg[l].entry(j, k)
            for l in range(n) for k in range(n)
        })
        gamma.append(ginv.mul(lowered, trunc).scaled(F(1, 2)))
    return gamma


def reference_metric_from_symjet(s):
    """The metric synthesis evaluated on the Fraction jet, undilated."""
    operators = {level + 2: pair_to_end(h) for level, h in enumerate(s.levels)}
    parts = []
    for degree in range(2, s.order + 3):
        end = evaluate(q_poly(degree), operators, unit=PolyEnd.identity(s.space))
        parts.append(end_to_pair(end.scaled(F(1, factorial(degree))), degree))
    return make_normal_metric(s.space, parts)


DENOMINATORS = (1, 2, 3, 5, 7)


def mixed_gauge_tensors(space, degrees, rng):
    """Random gauge tensors whose basis coefficients are +-1 over the
    denominators 1, 2, 3, 5, 7 in turn."""
    dens = itertools.cycle(DENOMINATORS)
    out = []
    for degree in degrees:
        h = SymPairTensor.zero(space, degree)
        for b in gauge_basis(space, degree):
            h = h + b.scaled(F(rng.choice((-1, 1)), next(dens)))
        out.append(h)
    return out


def common_denominator(tensors):
    return lcm(*{v.denominator for h in tensors for v in h.coeffs.values()})


def only_ints(polys):
    return all(type(c) is int for p in polys for c in p.coeffs.values())


INTEGRAL_CASES = [(space, seed) for space in (E2, L2, E3, L3) for seed in (0, 1)]
INTEGRAL_IDS = [f"n{s.n}{'l' if s.signature[0] < 0 else 'e'}-{seed}" for s, seed in INTEGRAL_CASES]


class TestIntegralSeries:
    """The series route runs on the metric dilated by t (twice the least
    common denominator of its parts) and the synthesis on the jet dilated by
    the least common denominator of its levels; both must equal the
    undilated Fraction computation."""

    ORDER = 5

    def metric(self, space, seed):
        rng = random.Random(f"integral:{space}:{seed}")
        g = make_normal_metric(space, mixed_gauge_tensors(space, range(2, self.ORDER + 1), rng))
        assert common_denominator(g.parts.values()) % (2 * 3 * 5 * 7) == 0
        return g

    @pytest.mark.parametrize("space, seed", INTEGRAL_CASES, ids=INTEGRAL_IDS)
    def test_jet_equals_undilated_route(self, space, seed):
        g = self.metric(space, seed)
        order = self.ORDER - 2
        jet = curvature_jet_at_origin(g, order)
        assert all(not t.is_zero() for t in jet.levels)
        assert jet == reference_curvature_jet_at_origin(g, order)

    @pytest.mark.parametrize("space, seed", INTEGRAL_CASES, ids=INTEGRAL_IDS)
    def test_dilated_series_hold_ints(self, space, seed):
        g = self.metric(space, seed)
        order = self.ORDER - 2
        t, gi = _integral_metric(g)
        assert t == 2 * common_denominator(g.parts.values())
        for d, h in gi.parts.items():
            assert h == g.parts[d].scaled(t ** d)
            assert all(type(v) is int for v in h.coeffs.values())
        assert only_ints(p for m in christoffel_series(gi, order + 1) for p in m.coeffs.values())
        _, gamma, cur = route_curvature(gi, order)
        assert cur and only_ints(cur.values())
        for level in range(order):
            cur = _covariant_derivative_dict(cur, level + 4, gamma, space.n, order - level - 1)
            assert cur and only_ints(cur.values()), level

    @pytest.mark.parametrize("space, seed", INTEGRAL_CASES, ids=INTEGRAL_IDS)
    def test_truncation_zero_step_is_its_derivative_terms(self, space, seed):
        # Gamma(0) = 0 in normal coordinates, so at truncation 0 no Christoffel
        # entry meets a component: the step is d_j T[K] truncated to constants
        g = self.metric(space, seed)
        order = self.ORDER - 2
        t, gi = _integral_metric(g)
        _, gamma, cur = route_curvature(gi, order)
        for level in range(order - 1):
            cur = _covariant_derivative_dict(cur, level + 4, gamma, space.n, order - level - 1)
        top = _covariant_derivative_dict(cur, order + 3, gamma, space.n, 0)
        derivatives = {(j,) + idx: p.diff(j).truncated(0)
                       for idx, p in cur.items() for j in range(space.n)}
        assert top == {key: p for key, p in derivatives.items() if not p.is_zero()}
        scale = t ** (order + 2)
        reps = {idx: exact_quotient(p.constant_term(), scale) for idx, p in top.items()}
        want = reference_curvature_jet_at_origin(g, order).levels[order]
        assert want and MultiTensor(space, order + 4, _unfold(reps)) == want

    @pytest.mark.parametrize("space, seed", INTEGRAL_CASES[::2], ids=INTEGRAL_IDS[::2])
    def test_christoffel_dilates_with_weight_degree_plus_one(self, space, seed):
        g = self.metric(space, seed)
        t, gi = _integral_metric(g)
        trunc = self.ORDER - 1
        gamma = christoffel_series(g, trunc)
        assert gamma == reference_christoffel_series(g, trunc)
        for m, mi in zip(gamma, christoffel_series(gi, trunc)):
            assert mi == PolyEnd(space, {
                key: Poly(space.n, {mono: c * t ** (len(mono) + 1) for mono, c in p.coeffs.items()})
                for key, p in m.coeffs.items()})

    @pytest.mark.parametrize("space, seed", INTEGRAL_CASES, ids=INTEGRAL_IDS)
    def test_metric_from_symjet_equals_undilated_evaluation(self, space, seed):
        rng = random.Random(f"integral-symjet:{space}:{seed}")
        s = SymJet(space, mixed_gauge_tensors(space, range(2, self.ORDER + 1), rng))
        assert common_denominator(s.levels) % (2 * 3 * 5 * 7) == 0
        g = metric_from_symjet(s)
        assert g == reference_metric_from_symjet(s)
        assert g.to_json_obj() == reference_metric_from_symjet(s).to_json_obj()


class TestSparseMetrics:
    """Christoffel symbols are formed only on the slots a stored derivative of
    the metric reaches; metrics with a single gauge basis element as their
    one part reach few slots."""

    @pytest.mark.parametrize("space, degree", [(E3, 2), (E3, 3), (L3, 2), (L3, 3), (L4, 2), (L4, 3)],
                             ids=["e3-2", "e3-3", "l3-2", "l3-3", "l4-2", "l4-3"])
    def test_one_basis_element(self, space, degree):
        for i, h in enumerate(gauge_basis(space, degree)):
            g = make_normal_metric(space, [h])
            assert christoffel_series(g, 2) == reference_christoffel_series(g, 2), i
            assert curvature_jet_at_origin(g, 1) == reference_curvature_jet_at_origin(g, 1), i

    def test_embedded_plane_keeps_its_jet(self):
        plane = Space(2, (-1, 1))
        g2 = random_normal_metric(plane, 4, random.Random(1))
        jet2 = curvature_jet_at_origin(g2, 2)
        assert all(not t.is_zero() for t in jet2.levels)
        space = Space(40, (-1,) + (1,) * 39)
        g = make_normal_metric(space, [SymPairTensor(space, h.k, h.coeffs) for h in g2.parts.values()])
        want = CurvatureJet(space, [MultiTensor(space, t.arity, t.coeffs) for t in jet2.levels])
        assert curvature_jet_at_origin(g, 2) == want

    def test_flat_pairs_form_no_product(self, monkeypatch):
        # the curvature scatters over stored Christoffel entries, and a flat metric stores none
        g = make_normal_metric(Space.euclidean(40), [])
        first, gamma = _christoffel(metric_form_series(g, 3), 1)
        assert not any(first) and not any(gamma)
        calls = []
        mul_into = metriclab._graded_mul_into
        monkeypatch.setattr(metriclab, "_graded_mul_into",
                            lambda *args: calls.append(args) or mul_into(*args))
        assert _lowered_curvature(first, gamma, 2) == {}
        assert len(calls) == 0

    def test_zero_jet_metric_stays_small(self):
        # a constant series term is keyed by (), so the n constants of the identity cost O(n)
        space = Space.euclidean(3000)
        tracemalloc.start()
        try:
            g = metric_from_symjet(symmetrize_jet(CurvatureJet.zero(space, 0)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert list(g.parts) == [2] and g.parts[2].is_zero()
        assert peak < 8 * 2**20


def exact_scalars(values):
    """Every value is an int or a Fraction that is not integral."""
    return all(type(v) is int or (type(v) is Fraction and v.denominator > 1) for v in values)


POLICY_SPACES = {"e3": (E3, 3), "l3": (L3, 3), "e4": (Space(4, (1, 1, 1, 1)), 2), "l4": (L4, 2)}
POLICY_DILATIONS = (F(1, 2), F(2, 3), F(3, 2))


@functools.lru_cache(maxsize=None)
def policy_jet(name):
    space, order = POLICY_SPACES[name]
    g = random_normal_metric(space, order + 2, random.Random(f"policy:{name}"))
    return curvature_jet_at_origin(g, order)


class TestScalarPolicy:
    """The expand pipeline stores each value as an int, or as a Fraction
    only when it is not integral, from the loaders through symmetrization
    and metric synthesis, and still agrees with the gather and undilated
    oracles."""

    @pytest.mark.parametrize("t", POLICY_DILATIONS,
                             ids=[f"t{t.numerator}_{t.denominator}" for t in POLICY_DILATIONS])
    @pytest.mark.parametrize("name", sorted(POLICY_SPACES))
    def test_values_and_oracles(self, name, t):
        base = policy_jet(name)
        dilated = CurvatureJet(base.space, [lv.scaled(t ** (l + 2))
                                            for l, lv in enumerate(base.levels)])
        jet = CurvatureJet.from_json_obj(json.loads(json.dumps(dilated.to_json_obj())))
        assert jet == dilated
        values = [v for lv in jet.levels for v in lv.coeffs.values()]
        assert exact_scalars(values) and any(type(v) is Fraction for v in values)

        s = symmetrize_jet(jet)
        for level, (h, lv) in enumerate(zip(s.levels, jet.levels)):
            assert exact_scalars(h.coeffs.values()), level
            assert h.to_json_obj() == reference_symmetrize_level(lv, level).to_json_obj()
        loaded = SymJet.from_json_obj(json.loads(json.dumps(s.to_json_obj())))
        assert loaded == s
        assert all(exact_scalars(h.coeffs.values()) for h in loaded.levels)

        g = metric_from_symjet(s)
        assert all(exact_scalars(h.coeffs.values()) for h in g.parts.values())
        assert g.to_json_obj() == reference_metric_from_symjet(s).to_json_obj()
        loaded = PolyMetric.from_json_obj(json.loads(json.dumps(g.to_json_obj())))
        assert loaded == g
        assert all(exact_scalars(h.coeffs.values()) for h in loaded.parts.values())

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_non_gauge_level_raises(self, level):
        s = random_symjet(L3, 2, random.Random(level))
        h = s.levels[level]
        s.levels[level] = h + SymPairTensor(L3, h.k, {((0,) * h.k, (0, 0)): F(1, 3)})
        with pytest.raises(GaugeError) as info:
            metric_from_symjet(s)
        assert info.value.degree == level + 2


class TestMetricFromSymjet:
    def test_tangential_profile_of_round_metric(self):
        # g_11 along the x0 axis is sin^2(s)/s^2 with s^2 = kappa x0^2:
        # 1 - s^2/3 + 2 s^4/45 - s^6/315 + ...
        kappa = F(1)
        g = metric_from_symjet(symmetrize_jet(const_curvature_jet(E3, kappa, 4)))
        e0 = basis_vec(3, 0)
        e1 = basis_vec(3, 1)
        profile = {2: F(-1, 3), 4: F(2, 45), 6: F(-1, 315)}
        for d in range(2, 7):
            h = g.part(d)
            val = eval_pair(h, [e0] * d, e1, e1)
            assert val == profile.get(d, F(0)) * kappa ** (d // 2)
            # no mixed term and nothing in the radial direction
            assert eval_pair(h, [e0] * d, e0, e1) == 0
            assert eval_pair(h, [e0] * d, e0, e0) == 0

    def test_kappa_scaling(self):
        kappa = F(5, 7)
        g = metric_from_symjet(symmetrize_jet(const_curvature_jet(E2, kappa, 2)))
        e0 = basis_vec(2, 0)
        e1 = basis_vec(2, 1)
        assert eval_pair(g.part(2), [e0] * 2, e1, e1) == -kappa / 3
        assert eval_pair(g.part(4), [e0] * 4, e1, e1) == F(2, 45) * kappa**2

    def test_round_trip_through_jet(self):
        for space in (E2, L2, E3):
            for order in (1, 2, 3):
                s = random_symjet(space, order, random.Random(10 * order + space.n))
                jet = jet_from_symjet(s)
                assert validate_jet(jet) == []
                assert symmetrize_jet(jet) == s

    def test_metric_round_trip(self):
        for space in (E2, L3):
            g = random_normal_metric(space, 5, random.Random(11))
            jet = curvature_jet_at_origin(g, 3)
            g2 = metric_from_symjet(symmetrize_jet(jet))
            for d in range(2, 6):
                assert g2.part(d) == g.part(d)


NATURALITY_SPACES = {"e3": E3, "l3": L3, "e4": Space(4, (1, 1, 1, 1)), "l4": L4}


class TestNaturality:
    """Both production routes commute with signature-preserving signed
    permutations: pulling the input back pulls the output back."""

    @pytest.mark.parametrize("name", sorted(NATURALITY_SPACES))
    def test_routes_commute_with_pullback(self, name):
        space = NATURALITY_SPACES[name]
        order = 2
        rng = random.Random(90 + space.n + space.signature[0])
        g = random_normal_metric(space, order + 2, rng, coeff_bound=2)
        s = random_symjet(space, order, rng, coeff_bound=2)
        jet = curvature_jet_at_origin(g, order)
        metric = metric_from_symjet(s)
        for _ in range(2):
            q = random_signed_perm(space, rng)
            moved = PolyMetric(space, {d: pullback(h, q) for d, h in g.parts.items()})
            assert jet.pullback(q) != jet
            assert curvature_jet_at_origin(moved, order) == jet.pullback(q)
            moved = PolyMetric(space, {d: pullback(h, q) for d, h in metric.parts.items()})
            assert moved != metric
            assert metric_from_symjet(s.pullback(q)) == moved


class TestTransport:
    @pytest.mark.parametrize("space", [E2, L2, E3], ids=["e2", "l2", "e3"])
    def test_matches_universal_polynomials(self, space):
        order = 5
        g = random_normal_metric(space, order, random.Random(space.n + 20))
        phi = parallel_transport_series(g, order)
        s = symmetrize_jet(curvature_jet_at_origin(g, order - 2), validate=False)
        assert transport_polynomial(s, order) == phi

    @pytest.mark.parametrize("space", [E2, L2], ids=["e2", "l2"])
    def test_factorizes_metric(self, space):
        order = 5
        n = space.n
        g = random_normal_metric(space, order, random.Random(space.n + 30))
        phi = parallel_transport_series(g, order)
        gser = metric_form_series(g, order)
        for i in range(n):
            for j in range(n):
                acc = Poly.zero(n)
                for m in range(n):
                    prod = phi.entry(m, i).mul(phi.entry(m, j), order)
                    acc = acc + prod.scaled(space.eps(m))
                assert acc == gser.entry(i, j).truncated(order)

    def test_identity_at_origin(self):
        g = random_normal_metric(E3, 4, random.Random(41))
        phi = parallel_transport_series(g, 4)
        for i in range(3):
            for j in range(3):
                p = phi.entry(i, j)
                assert p.constant_term() == (1 if i == j else 0)
                # degree-1 part vanishes because Christoffel starts at degree 1
                assert p.homogeneous_part(1).is_zero()

    def test_transport_polynomial_trunc_guard(self):
        s = random_symjet(E2, 1, random.Random(43))
        with pytest.raises(ValueError):
            transport_polynomial(s, 4)


class TestJsonForms:
    def test_poly_metric_round_trip(self):
        g = random_normal_metric(L3, 4, random.Random(51))
        assert PolyMetric.from_json_obj(g.to_json_obj()) == g

    def test_duplicate_degree_in_json_rejected(self):
        g = random_normal_metric(E2, 2, random.Random(53))
        obj = g.to_json_obj()
        obj["parts"] = obj["parts"] + obj["parts"]
        with pytest.raises(ValueError):
            PolyMetric.from_json_obj(obj)


class TestPinnedSeries:
    """Exact outputs of the series layer, pinned by digest.

    The text hashed is sorted (entry, exponent vector, coefficient) lines,
    so it depends only on the values, not on how a series is stored.
    """

    @staticmethod
    def matrix_lines(name, m, n):
        return [f"{name} {i},{j} {list(exps)} {format_rational(c)}"
                for i, j in itertools.product(range(n), repeat=2)
                for exps, c in sorted((content_of(mono, n), c)
                                      for mono, c in m.entry(i, j).coeffs.items())]

    def test_series_digest(self):
        h = hashlib.sha256()
        for n in (2, 3):
            for signature in ((1,) * n, (-1,) + (1,) * (n - 1)):
                space = Space(n, signature)
                seed = 10 * n + signature[0]
                g = random_normal_metric(space, 5, random.Random(90 + seed))
                s = random_symjet(space, 2, random.Random(190 + seed))
                lines = (self.matrix_lines("ginv", inverse_series(g, 4), n)
                         + self.matrix_lines("phi", parallel_transport_series(g, 4), n)
                         + self.matrix_lines("qt", transport_polynomial(s, 4), n))
                jet = curvature_jet_at_origin(g, 2)
                lines += [f"jet {level} {list(idx)} {format_rational(t.get(idx))}"
                          for level, t in enumerate(jet.levels)
                          for idx in itertools.product(range(n), repeat=level + 4)
                          if t.get(idx)]
                lines.append(json.dumps(metric_from_symjet(s).to_json_obj(), sort_keys=True))
                h.update("\n".join(lines).encode())
        assert h.hexdigest() == "a81049d5107d9aae80ac1696097f07694aef768fc114b34b5a2b99c6dedbe949"

    def test_reference_jet_digest(self):
        # the reference input of the measured series-route timings (n=4, order 3)
        g = metric_from_symjet(random_symjet(Space(4, (-1, 1, 1, 1)), 3, random.Random(5)))
        jet = curvature_jet_at_origin(g, 3)
        digest = hashlib.sha256(json.dumps(jet.to_json_obj(), sort_keys=True).encode()).hexdigest()
        assert digest.startswith("60409fc3f217de0f")
