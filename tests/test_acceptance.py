"""Acceptance gate: one test per criterion, each printing a status line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they pass.  Every equality is an exact rational identity; there are no
tolerances anywhere in this file.
"""

import itertools
import random
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

from jetiso.freealg import (
    FreeElement,
    leading_coeff,
    q_poly,
    qtilde_explicit,
    qtilde_recursive,
)
from jetiso.jets import (
    CurvatureJet,
    SymJet,
    hook_constant,
    jet_from_symjet,
    linear_jet_basis,
    reconstruct_linear,
    symmetrize_component,
    symmetrize_jet,
    validate_jet,
    young_symmetrize,
)
from jetiso.metriclab import (
    const_curvature_jet,
    curvature_jet_at_origin,
    extend_jet,
    metric_form_series,
    metric_from_symjet,
    parallel_transport_series,
    random_normal_metric,
    random_symjet,
    transport_polynomial,
)
from jetiso.poly import Poly
from jetiso.tensor import (
    Space,
    SymPairTensor,
    curvature_jet_dim_bound,
    gauge_basis,
    gauge_dim,
)
from test_jets import padded_jet, raised
from test_tensor import eval_pair

F = Fraction


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL {name}", flush=True)
        raise
    print(f"ACCEPTANCE PASS {name}", flush=True)


def elem(*terms):
    return FreeElement({tuple(word): F(coeff) for word, coeff in terms})


def basis_vec(n, i):
    return [F(1) if j == i else F(0) for j in range(n)]


def spaces(n):
    return (Space(n, (1,) * n), Space(n, (-1,) + (1,) * (n - 1)))


def test_criterion_01_q_table():
    with criterion("criterion-01-q-table"):
        table = {
            0: FreeElement.one(),
            1: FreeElement.zero(),
            2: elem(((2,), F(-2, 3))),
            3: elem(((3,), F(-1))),
            4: elem(((4,), F(-6, 5)), ((2, 2), F(16, 15))),
            5: elem(((5,), F(-4, 3)), ((2, 3), F(8, 3)), ((3, 2), F(8, 3))),
        }
        for k, want in table.items():
            assert q_poly(k) == want, f"q_{k}"


def test_criterion_02_qtilde_table():
    with criterion("criterion-02-qtilde-table"):
        table = {
            1: FreeElement.zero(),
            2: elem(((2,), F(-1, 3))),
            3: elem(((3,), F(-1, 2))),
            4: elem(((4,), F(-3, 5)), ((2, 2), F(1, 5))),
            5: elem(((5,), F(-2, 3)), ((2, 3), F(1, 3)), ((3, 2), F(2, 3))),
        }
        for k, want in table.items():
            assert qtilde_recursive(k) == want, f"qtilde_{k}"
        for k in range(11):
            assert qtilde_explicit(k) == qtilde_recursive(k), f"explicit k={k}"


def test_criterion_03_leading_coefficient():
    with criterion("criterion-03-leading-coefficient"):
        for k in range(9):
            want = F(-2 * (k + 1), k + 3)
            assert q_poly(k + 2).coeff((k + 2,)) == want
            assert leading_coeff(k + 2) == want


def operator_matrix(space, h, x):
    """(A_h(x))_{ab} = eps_a h(x, ..., x; e_a, e_b), plain lists."""
    n = space.n
    return [
        [
            F(space.eps(a)) * eval_pair(h, [x] * h.k, basis_vec(n, a), basis_vec(n, b))
            for b in range(n)
        ]
        for a in range(n)
    ]


def mat_mul(a, b, n):
    return [
        [sum((a[i][m] * b[m][j] for m in range(n)), F(0)) for j in range(n)]
        for i in range(n)
    ]


def test_criterion_04_degree_five_taylor():
    with criterion("criterion-04-degree-five-taylor"):
        # frozen coefficients of the universal expansion through degree 5
        frozen = {
            (2,): F(-1, 3),
            (3,): F(-1, 6),
            (4,): F(-1, 20),
            (2, 2): F(2, 45),
            (5,): F(-1, 90),
            (2, 3): F(1, 45),
            (3, 2): F(1, 45),
        }
        for word, want in frozen.items():
            d = sum(word)
            assert q_poly(d).coeff(word) * F(1, factorial(d)) == want, word

        # the metric builder must realize exactly these coefficients:
        # substitute concrete operators and compare against hand-chained
        # matrix products at rational points
        rng = random.Random(404)
        for space in spaces(3):
            n = space.n
            s = random_symjet(space, 3, rng)
            g = metric_from_symjet(s)
            x = [F(1, 2), F(-1, 3), F(2)]
            mats = {
                level + 2: operator_matrix(space, h, x)
                for level, h in enumerate(s.levels)
            }
            for d in range(2, 6):
                acc = [[F(0)] * n for _ in range(n)]
                for word, c in q_poly(d).sorted_terms():
                    m = None
                    for letter in word:
                        m = mats[letter] if m is None else mat_mul(m, mats[letter], n)
                    if m is None:
                        m = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
                    scale = c * F(1, factorial(d))
                    for i in range(n):
                        for j in range(n):
                            acc[i][j] += scale * m[i][j]
                part = g.part(d)
                for a in range(n):
                    for b in range(n):
                        have = eval_pair(part, [x] * d, basis_vec(n, a), basis_vec(n, b))
                        assert have == space.eps(a) * acc[a][b], (d, a, b)


def test_criterion_05_constant_curvature_profile():
    with criterion("criterion-05-constant-curvature-profile"):
        # independent scalar oracle: sin^2(r)/r^2 from the cosine series,
        # coefficient of r^{2m-2} is (-1)^(m+1) 2^(2m-1) / (2m)!
        def profile_coeff(degree):
            if degree % 2:
                return F(0)
            m = degree // 2 + 1
            return F((-1) ** (m + 1) * 2 ** (2 * m - 1), factorial(2 * m))

        assert [profile_coeff(d) for d in (0, 2, 4, 6)] == [
            F(1), F(-1, 3), F(2, 45), F(-1, 315)]

        space = Space.euclidean(3)
        g = metric_from_symjet(symmetrize_jet(const_curvature_jet(space, F(1), 4)))
        e0, e1 = basis_vec(3, 0), basis_vec(3, 1)
        for d in range(2, 7):
            part = g.part(d)
            assert eval_pair(part, [e0] * d, e1, e1) == profile_coeff(d), d
            assert eval_pair(part, [e0] * d, e0, e1) == 0, d
            assert eval_pair(part, [e0] * d, e0, e0) == 0, d


def test_criterion_06_young_eigenvalues():
    with criterion("criterion-06-young-eigenvalues"):
        assert [hook_constant(k) for k in range(4)] == [12, 24, 80, 360]
        for n in (2, 3):
            space = Space.euclidean(n)
            for k in range(4):
                basis = linear_jet_basis(space, k)
                assert basis, (n, k)
                for b in basis:
                    assert young_symmetrize(b) == b.scaled(hook_constant(k)), (n, k)


def test_criterion_07_reconstruction():
    with criterion("criterion-07-reconstruction"):
        rng = random.Random(7)
        cases = [(2, 3), (3, 3), (4, 1)]
        for n, kmax in cases:
            space = Space.euclidean(n)
            for k in range(kmax + 1):
                for b in linear_jet_basis(space, k):
                    assert reconstruct_linear(symmetrize_component(b)) == b
                s = SymPairTensor(space, k + 2)
                for h in gauge_basis(space, k + 2):
                    s = s + h.scaled(F(rng.randint(-3, 3)))
                assert symmetrize_component(reconstruct_linear(s)) == s


def test_criterion_08_dimension_agreement():
    with criterion("criterion-08-dimension-agreement"):
        for n in (2, 3, 4):
            space = Space.euclidean(n)
            for k in (0, 1, 2):
                closed_gauge = gauge_dim(n, k + 2)
                closed_bound = curvature_jet_dim_bound(n, k)
                rank_gauge = len(gauge_basis(space, k + 2))
                rank_jets = len(linear_jet_basis(space, k))
                assert closed_gauge == closed_bound == rank_gauge == rank_jets, (n, k)


def test_criterion_09_round_trip():
    with criterion("criterion-09-round-trip"):
        for n in (2, 3):
            for space in spaces(n):
                for k in range(4):
                    for seed in range(5):
                        rng = random.Random(1000 * n + 100 * k + seed)
                        s = random_symjet(space, k, rng, coeff_bound=2)
                        jet = jet_from_symjet(s)
                        assert validate_jet(jet) == [], (n, k, seed)
                        assert symmetrize_jet(jet) == s, (n, k, seed)
                        g = metric_from_symjet(s)
                        jet2 = curvature_jet_at_origin(g, k)
                        assert jet == jet2, (n, k, seed)
                        g2 = metric_from_symjet(symmetrize_jet(jet2))
                        for d in range(2, k + 3):
                            assert g2.part(d) == g.part(d), (n, k, seed, d)


def test_criterion_10_jet_extension():
    with criterion("criterion-10-jet-extension"):
        for n in (2, 3):
            space = Space.euclidean(n)
            for k in (0, 1, 2):
                g = random_normal_metric(space, k + 2, random.Random(50 + 10 * n + k))
                jet = curvature_jet_at_origin(g, k)
                ext = extend_jet(jet)
                assert ext.order == k + 1
                assert validate_jet(ext) == [], (n, k)
                for level in range(k + 1):
                    assert ext.levels[level] == jet.levels[level], (n, k, level)
                # algebraic route: the solve of the padded symmetrized jet
                s = symmetrize_jet(jet)
                padded = SymJet(space, s.levels + [SymPairTensor.zero(space, k + 3)])
                assert ext == jet_from_symjet(padded), (n, k)
                # the source metric's own (k+1)-jet is another valid
                # extension; it differs by a linear component
                own = curvature_jet_at_origin(g, k + 1)
                diff = own.levels[k + 1] - ext.levels[k + 1]
                assert validate_jet(padded_jet(diff)) == [], (n, k)


def test_criterion_11_parallel_transport():
    with criterion("criterion-11-parallel-transport"):
        order = 5
        for n in (2, 3):
            for space in spaces(n):
                g = random_normal_metric(space, order, random.Random(60 + n))
                phi = parallel_transport_series(g, order)
                s = symmetrize_jet(curvature_jet_at_origin(g, order - 2), validate=False)
                assert transport_polynomial(s, order) == phi, n
                gser = metric_form_series(g, order)
                for i in range(n):
                    for j in range(n):
                        acc = Poly.zero(n)
                        for m in range(n):
                            prod = phi.entry(m, i).mul(phi.entry(m, j), order)
                            acc = acc + prod.scaled(space.eps(m))
                        want = gser.entry(i, j).truncated(order)
                        assert acc == want, (n, i, j)


def test_criterion_12_validator_soundness():
    with criterion("criterion-12-validator-soundness"):
        for n in (2, 3):
            for space in spaces(n):
                g = random_normal_metric(space, 5, random.Random(70 + n))
                jet = curvature_jet_at_origin(g, 3)
                assert validate_jet(jet) == [], n

        # exhaustive single-component +1 mutations must all be caught
        for space, order in ((Space.euclidean(2), 2), (Space.euclidean(3), 1)):
            g = random_normal_metric(space, order + 2, random.Random(80 + space.n))
            jet = curvature_jet_at_origin(g, order)
            assert validate_jet(jet) == []
            for level, t in enumerate(jet.levels):
                for idx in itertools.product(range(space.n), repeat=t.arity):
                    levels = list(jet.levels)
                    levels[level] = raised(t, [(idx, 1)])
                    assert validate_jet(CurvatureJet(space, levels)), (level, idx)
