"""Symmetric pair tensors, gauge space, and the pair/endomorphism views.

Gauge dimensions are checked against the closed-form count, and the
gauge checks against the polynomial route.  ``eval_pair``, ``end_to_pair``
and ``check_normal_gauge`` are oracles the other test modules share.
"""

import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from jetiso.jets import reconstruct_linear
from jetiso.metriclab import PolyMetric
from jetiso.poly import Poly
from jetiso.tensor import (
    MultiTensor,
    PolyEnd,
    SignedPerm,
    Space,
    SymPairTensor,
    content_of,
    curvature_jet_dim_bound,
    end_pair_sums,
    gauge_basis,
    gauge_dim,
    is_gauge_tensor,
    kulkarni,
    multiset_count,
    pair_average,
    pair_matrix,
    pair_to_end,
    pullback,
    random_signed_perm,
    sums_are_gauge,
    sym_indices,
)
from test_sparse import multiset

F = Fraction

E3 = Space(3, (1, 1, 1))
L3 = Space(3, (-1, 1, 1))
E2 = Space(2, (1, 1))


def eval_pair(h: SymPairTensor, xs, y, z) -> Fraction:
    """Evaluate h on k symmetric-slot vectors and the final pair, summing
    over every index tuple."""
    if len(xs) != h.k:
        raise ValueError("wrong number of symmetric arguments")
    n = h.space.n
    total = F(0)
    for idx in itertools.product(range(n), repeat=h.k):
        w = F(1)
        for pos, i in enumerate(idx):
            w *= xs[pos][i]
        if w:
            for p, q in itertools.product(range(n), repeat=2):
                if y[p] and z[q]:
                    total += w * y[p] * z[q] * h.get(idx, (p, q))
    return total


def end_to_pair(e: PolyEnd, k: int) -> SymPairTensor:
    """Inverse of pair_to_end for self-adjoint endomorphisms of degree k."""
    return pair_average(e.space, k, end_pair_sums(e))


def check_normal_gauge(g: PolyMetric) -> bool:
    """True when the radial contraction g_x(x, .) equals <x, .> exactly:
    x^T h(x) vanishes for every part, the polynomial route."""
    n = g.space.n
    row = PolyEnd(g.space, {(0, a): Poly.variable(n, a) for a in range(n)})
    return all(row.mul(pair_matrix(h)).is_zero() for h in g.parts.values())


class TestMultisets:
    def test_sym_indices_count(self):
        for n in (1, 2, 3):
            for k in range(5):
                assert len(list(sym_indices(n, k))) == comb(n + k - 1, k)

    def test_multiset_count(self):
        assert multiset_count(()) == 1
        assert multiset_count((1, 1, 2)) == 3
        assert multiset_count((0, 1, 2)) == 6
        assert multiset_count((2, 2)) == 1

    def test_content_round_trip(self):
        for ms in sym_indices(3, 4):
            content = content_of(ms, 3)
            assert len(content) == 3 and multiset(content) == ms


def metric_pair(space):
    comps = {((), (i, i)): F(space.eps(i)) for i in range(space.n)}
    return SymPairTensor(space, 0, comps)


def basis_inner(space):
    def ip(i, j):
        return F(space.eps(i)) if i == j else F(0)

    return ip


def const_curv_pair(space, kappa):
    """Lowest symmetrized component of constant curvature kappa."""
    comps = {}
    ip = basis_inner(space)
    for u in range(space.n):
        for v in range(u, space.n):
            for p in range(space.n):
                for q in range(p, space.n):
                    val = F(kappa) * (
                        ip(u, v) * ip(p, q)
                        - F(1, 2) * (ip(p, u) * ip(v, q) + ip(p, v) * ip(u, q))
                    )
                    if val:
                        comps[((u, v), (p, q))] = val
    return SymPairTensor(space, 2, comps)


class TestGauge:
    def test_metric_is_not_gauge_at_k2(self):
        # the pure product pattern g tensor g fails the radial condition
        space = E2
        comps = {}
        for u in range(2):
            for p in range(2):
                comps[((u, u), (p, p))] = F(1)
        h = SymPairTensor(space, 2, comps)
        assert not is_gauge_tensor(h)

    def test_const_curvature_is_gauge(self):
        for space in (E3, L3):
            assert is_gauge_tensor(const_curv_pair(space, 1))

    def test_gauge_dim_examples(self):
        # degree-1 metric parts always vanish in this normalization
        assert gauge_dim(2, 1) == 0
        assert gauge_dim(3, 1) == 0
        # degree-2 parts match the curvature count n^2(n^2-1)/12
        assert gauge_dim(2, 2) == 1
        assert gauge_dim(3, 2) == 6
        assert gauge_dim(4, 2) == 20

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_basis_matches_dimension(self, n, k):
        space = Space(n, (1,) * n)
        basis = gauge_basis(space, k)
        assert len(basis) == gauge_dim(n, k)
        for h in basis:
            assert is_gauge_tensor(h)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("space", [E2, Space(2, (-1, 1)), E3, L3,
                                       Space(4, (1, 1, 1, 1)), Space(4, (-1, 1, 1, 1))],
                             ids=["e2", "l2", "e3", "l3", "e4", "l4"])
    def test_scatter_matches_polynomial_route(self, space, k):
        # the polynomial route: x^T pair_matrix(h) == 0
        rng = random.Random(10 * space.n + k + space.signature[0])
        keys = [(sym, pair) for sym in sym_indices(space.n, k)
                for pair in sym_indices(space.n, 2)]
        for _ in range(3):
            h = SymPairTensor.zero(space, k)
            for b in gauge_basis(space, k):
                h = h + b.scaled(rng.randint(-3, 3))
            off = h + SymPairTensor(space, k, {rng.choice(keys): F(rng.randint(1, 9), 7)})
            for tensor, gauge in ((h, True), (off, False)):
                assert is_gauge_tensor(tensor) == gauge
                assert check_normal_gauge(PolyMetric(space, {k: tensor})) == gauge
                # the same check on arrangement sums, before pair_average divides
                sums = end_pair_sums(pair_to_end(tensor))
                assert sums_are_gauge(sums) == gauge
                assert pair_average(space, k, sums) == tensor
                scaled = {key: 6 * v for key, v in sums.items()}
                assert sums_are_gauge(scaled) == gauge
                assert pair_average(space, k, scaled, 6) == tensor

    def test_basis_digest(self):
        # pinned: a change in which basis comes out shows here
        h = hashlib.sha256()
        for n in (2, 3, 4):
            for signature in ((1,) * n, (-1,) + (1,) * (n - 1)):
                space = Space(n, signature)
                for k in (1, 2, 3, 4):
                    for b in gauge_basis(space, k):
                        h.update(json.dumps(b.to_json_obj(), sort_keys=True).encode())
        assert h.hexdigest() == "e551dc72cc82216a3586e5a0066914f01b4fd427b51f54321805e57b4556e63d"

    def test_dim_bound_integrality(self):
        for n in (2, 3, 4, 5):
            for k in range(5):
                assert curvature_jet_dim_bound(n, k) > 0


class TestEvalPair:
    def test_metric_evaluation(self):
        g = metric_pair(L3)
        y = [F(2), F(0), F(1)]
        z = [F(1), F(3), F(-1)]
        assert eval_pair(g, [], y, z) == -2 + 0 - 1

    def test_symmetric_slot_weighting(self):
        # h = x0*x1 in the symmetric slots, pair (0,0)
        h = SymPairTensor(E2, 2, {((0, 1), (0, 0)): F(1)})
        a = [F(1), F(2)]
        b = [F(3), F(5)]
        # sum over both arrangements of (0,1)
        assert eval_pair(h, [a, b], [F(1), F(0)], [F(1), F(0)]) == 1 * 5 + 2 * 3


def reference_kulkarni(h: SymPairTensor):
    """The dense gather ``kulkarni`` replaced, kept as its oracle: every
    index of the output reads four components of h."""
    space = h.space
    n = space.n
    k = h.k - 2
    if k < 0:
        raise ValueError("need a tensor with at least two symmetric slots")
    out = {}
    for idx in itertools.product(range(n), repeat=k + 4):
        lead = idx[:k]
        a, b, c, d = idx[k:]
        v = (h.get(lead + (a, c), (b, d)) - h.get(lead + (b, c), (a, d))
             - h.get(lead + (a, d), (b, c)) + h.get(lead + (b, d), (a, c)))
        if v:
            out[idx] = v
    return MultiTensor(space, k + 4, out)


# the scatter is compared on every gauge basis element (n=2, 3 in degrees
# 2-4 and n=4 in degrees 2-3, in both signatures) and on seeded non-gauge
# tensors
KULKARNI_CASES = [(space, degree)
                  for n, degrees in ((2, (2, 3, 4)), (3, (2, 3, 4)), (4, (2, 3)))
                  for space in (Space.euclidean(n), Space(n, (-1,) + (1,) * (n - 1)))
                  for degree in degrees]


def random_pair_tensor(space, degree, rng):
    """A seeded tensor of this degree, gauge or not, mixing int and
    Fraction values."""
    comps = {}
    for sym in sym_indices(space.n, degree):
        for pair in sym_indices(space.n, 2):
            if rng.random() < 0.6:
                value = rng.randint(-5, 5)
                comps[(sym, pair)] = value if rng.random() < 0.5 else F(value, rng.randint(1, 7))
    return SymPairTensor(space, degree, comps)


class TestKulkarni:
    @pytest.mark.parametrize("space,degree", KULKARNI_CASES,
                             ids=[f"n{s.n}-{'e' if s.signature[0] > 0 else 'l'}-d{d}"
                                  for s, d in KULKARNI_CASES])
    def test_scatter_matches_gather(self, space, degree):
        rng = random.Random(100 * space.n + degree)
        tensors = gauge_basis(space, degree) + [random_pair_tensor(space, degree, rng)
                                                for _ in range(3)]
        for h in tensors:
            assert kulkarni(h).coeffs == reference_kulkarni(h).coeffs

    @pytest.mark.parametrize("factor", [F(1, 2), F(2, 3), F(3, 2)])
    @pytest.mark.parametrize("space", [E3, L3], ids=["euclidean", "lorentz"])
    def test_reconstruction_scalar_policy(self, space, factor):
        # the reconstruction divides once per value: an integral value is an
        # int, and the component is -(k+1)/(k+3) times the gather oracle's
        rng = random.Random(17)
        for k in (0, 1, 2):
            s = SymPairTensor(space, k + 2)
            for b in gauge_basis(space, k + 2):
                s = s + b.scaled(rng.randint(-3, 3))
            s = s.scaled(factor)
            tensor = reconstruct_linear(s)
            assert tensor.coeffs
            assert all(type(v) is int or (type(v) is F and v.denominator != 1)
                       for v in tensor.coeffs.values())
            assert tensor.coeffs == reference_kulkarni(s).scaled(F(-(k + 1), k + 3)).coeffs

    def test_constant_curvature_pattern(self):
        for space in (E3, L3):
            kappa = F(2)
            t = kulkarni(const_curv_pair(space, kappa))
            ip = basis_inner(space)
            for a, b, c, d in itertools.product(range(space.n), repeat=4):
                expected = 3 * kappa * (ip(a, c) * ip(b, d) - ip(b, c) * ip(a, d))
                assert t.get((a, b, c, d)) == expected

    def test_output_symmetries(self):
        # the four-term pattern is curvature-shaped for any symmetric input
        rng = random.Random(11)
        space = E3
        comps = {}
        for sym in sym_indices(space.n, 4):
            for pair in sym_indices(space.n, 2):
                if rng.random() < 0.5:
                    comps[(sym, pair)] = F(rng.randint(-4, 4))
        h = SymPairTensor(space, 4, comps)
        t = kulkarni(h)
        n = space.n
        for idx in itertools.product(range(n), repeat=6):
            lead, (a, b, c, d) = idx[:2], idx[2:]
            assert t.get(idx) == -t.get(lead + (b, a, c, d))
            assert t.get(idx) == -t.get(lead + (a, b, d, c))
            assert t.get(idx) == t.get(lead + (c, d, a, b))
            cyc = (
                t.get(idx)
                + t.get(lead + (a, c, d, b))
                + t.get(lead + (a, d, b, c))
            )
            assert cyc == 0

    def test_rejects_low_arity(self):
        with pytest.raises(ValueError):
            kulkarni(metric_pair(E2))


class TestEndomorphismView:
    def test_metric_maps_to_identity(self):
        for space in (E3, L3):
            e = pair_to_end(metric_pair(space))
            for a in range(space.n):
                for b in range(space.n):
                    want = F(1) if a == b else F(0)
                    assert e.entry(a, b).constant_term() == want

    @pytest.mark.parametrize("space", [E3, L3], ids=["euclidean", "lorentz"])
    def test_round_trip(self, space):
        rng = random.Random(13)
        for k in (1, 2, 3):
            h = SymPairTensor(space, k)
            for b in gauge_basis(space, k):
                h = h + b.scaled(F(rng.randint(-3, 3)))
            assert end_to_pair(pair_to_end(h), k) == h

    def test_composition_degree(self):
        x0 = Poly.variable(2, 0)
        a = PolyEnd(E2, {(0, 1): x0})
        b = PolyEnd(E2, {(1, 0): x0 * x0})
        c = a * b
        assert c.entry(0, 0).degree() == 3
        assert c.entry(0, 0) == x0 * x0 * x0
        assert c.entry(1, 1).is_zero()


def random_poly_end(space, rng, max_deg=3):
    """Sparse matrix of polynomials mixing degrees 0..max_deg."""
    n = space.n
    entries = {}
    for i, j in itertools.product(range(n), repeat=2):
        if rng.random() < 0.3:
            continue
        coeffs = {}
        for _ in range(3):
            mono = tuple(sorted(rng.randrange(n) for _ in range(rng.randint(0, max_deg))))
            coeffs[mono] = F(rng.randint(-3, 3), rng.randint(1, 2))
        entries[(i, j)] = Poly(n, coeffs)
    return PolyEnd(space, entries)


class TestPolyEndSeries:
    def test_truncated_product_is_truncated_composition(self):
        rng = random.Random(29)
        for space in (E2, L3):
            for _ in range(5):
                a, b = random_poly_end(space, rng), random_poly_end(space, rng)
                for t in range(6):
                    assert a.mul(b, t) == (a * b).truncated(t)

    def test_product_is_the_sum_of_entry_products(self):
        rng = random.Random(37)
        for space in (E2, L3):
            n = space.n
            for _ in range(5):
                a, b = random_poly_end(space, rng), random_poly_end(space, rng)
                for t in (None, 0, 2, 4):
                    want = {}
                    for i, j in itertools.product(range(n), repeat=2):
                        entry = Poly.zero(n)
                        for m in range(n):
                            entry = entry + a.entry(i, m).mul(b.entry(m, j), t)
                        if entry:
                            want[(i, j)] = entry
                    assert a.mul(b, t).coeffs == want

    def test_cancelled_entries_are_dropped(self):
        x0 = Poly.variable(2, 0)
        a = PolyEnd(E2, {(0, 0): x0, (0, 1): x0})
        b = PolyEnd(E2, {(0, 1): x0, (1, 1): -x0, (1, 0): x0})
        assert a.mul(b).coeffs == {(0, 0): x0 * x0}

    def test_truncated_product_is_associative(self):
        rng = random.Random(31)
        for _ in range(5):
            a, b, c = (random_poly_end(L3, rng) for _ in range(3))
            for t in (2, 4):
                assert a.mul(b, t).mul(c, t) == a.mul(b.mul(c, t), t)

    def test_adds_parts_of_different_degrees(self):
        x0, x1 = Poly.variable(2, 0), Poly.variable(2, 1)
        a = PolyEnd(E2, {(0, 1): x0})
        b = PolyEnd(E2, {(0, 1): x1 * x1, (1, 1): Poly.const(2, 5)})
        total = a + b
        assert total.entry(0, 1) == x0 + x1 * x1
        assert total.entry(1, 1) == Poly.const(2, 5)
        assert total.homogeneous_part(2) == PolyEnd(E2, {(0, 1): x1 * x1})
        assert total.truncated(1) == a + PolyEnd(E2, {(1, 1): Poly.const(2, 5)})
        assert (total - a) == b


class TestSignedPerms:
    def test_compose_and_inverse(self):
        rng = random.Random(17)
        for _ in range(20):
            g = random_signed_perm(L3, rng)
            h = random_signed_perm(L3, rng)
            assert g.preserves(L3) and h.preserves(L3)
            gh = g.compose(h)
            ident = gh.compose(gh.inverse())
            assert ident.perm == (0, 1, 2)
            assert ident.signs == (1, 1, 1)

    def test_action_composition(self):
        rng = random.Random(19)
        t = const_curv_pair(L3, 3)
        for _ in range(10):
            g = random_signed_perm(L3, rng)
            h = random_signed_perm(L3, rng)
            assert pullback(pullback(t, h), g) == pullback(t, g.compose(h))

    def test_pullback_matches_evaluation(self):
        rng = random.Random(23)
        space = L3
        h = SymPairTensor(space, 2)
        for b in gauge_basis(space, 2):
            h = h + b.scaled(F(rng.randint(-2, 2)))
        # several draws: the first is the identity with one sign flipped
        for _ in range(4):
            g = random_signed_perm(space, rng)

            def apply(v):
                out = [F(0)] * space.n
                for j, x in enumerate(v):
                    out[g.perm[j]] += g.signs[j] * x
                return out

            xs = [[F(rng.randint(-3, 3)) for _ in range(space.n)] for _ in range(2)]
            y = [F(rng.randint(-3, 3)) for _ in range(space.n)]
            z = [F(rng.randint(-3, 3)) for _ in range(space.n)]
            th = pullback(h, g)
            assert eval_pair(th, [apply(x) for x in xs], apply(y), apply(z)) == eval_pair(
                h, xs, y, z
            )

    def test_gauge_space_is_invariant(self):
        rng = random.Random(29)
        for space in (E3, L3):
            for b in gauge_basis(space, 2):
                g = random_signed_perm(space, rng)
                assert is_gauge_tensor(pullback(b, g))

    def test_invalid_perm_rejected(self):
        with pytest.raises(ValueError):
            SignedPerm((0, 0, 1), (1, 1, 1))
        with pytest.raises(ValueError):
            SignedPerm((0, 1), (1, 2))


signatures = st.sampled_from([(1, 1), (-1, 1), (1, 1, 1), (-1, 1, 1)])


@settings(max_examples=40)
@given(signatures, st.integers(min_value=0, max_value=2), st.randoms(use_true_random=False))
def test_serialization_round_trip(sig, k, rng):
    space = Space(len(sig), sig)
    comps = {}
    for sym in sym_indices(space.n, k):
        for pair in sym_indices(space.n, 2):
            if rng.random() < 0.3:
                comps[(sym, pair)] = F(rng.randint(-9, 9), rng.randint(1, 9))
    h = SymPairTensor(space, k, comps)
    assert SymPairTensor.from_json_obj(h.to_json_obj()) == h
