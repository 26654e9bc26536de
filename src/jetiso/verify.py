"""Self-check suites for the exact identities behind the package.

Each suite returns a list of CheckResult records; everything is an
exact rational comparison, so a check either holds identically or
fails.  Random inputs are drawn from seeded generators and stay small,
keeping runs deterministic and reasonably quick.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .freealg import (
    FreeElement,
    leading_coeff,
    q_poly,
    qtilde_explicit,
    qtilde_recursive,
)
from .jets import (
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
from .metriclab import (
    GaugeError,
    curvature_jet_at_origin,
    extend_jet,
    metric_form_series,
    metric_from_symjet,
    parallel_transport_series,
    random_normal_metric,
    random_symjet,
    transport_polynomial,
)
from .tensor import (
    MultiTensor,
    PolyEnd,
    Space,
    SymPairTensor,
    _sign_images,
    curvature_jet_dim_bound,
    gauge_basis,
    gauge_dim,
    pullback,
    random_signed_perm,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _result(name, passed, detail=""):
    return CheckResult(name, bool(passed), detail if not passed else "")


SUITE_NAMES = ("freealg", "linear", "young", "roundtrip", "transport",
               "extension", "validator")


def suite_freealg(max_k: int = 10):
    out = []
    expected_qtilde = {
        0: FreeElement.one(),
        1: FreeElement.zero(),
        2: FreeElement({(2,): Fraction(-1, 3)}),
        3: FreeElement({(3,): Fraction(-1, 2)}),
        4: FreeElement({(4,): Fraction(-3, 5), (2, 2): Fraction(1, 5)}),
        5: FreeElement({(5,): Fraction(-2, 3), (2, 3): Fraction(1, 3),
                        (3, 2): Fraction(2, 3)}),
    }
    ok = all(qtilde_recursive(k) == v for k, v in expected_qtilde.items())
    out.append(_result("freealg.qtilde-table", ok))

    ok = all(qtilde_recursive(k) == qtilde_explicit(k) for k in range(max_k + 1))
    out.append(_result("freealg.qtilde-recursive-equals-explicit", ok,
                       f"checked degrees 0..{max_k}"))

    expected_q = {
        0: FreeElement.one(),
        1: FreeElement.zero(),
        2: FreeElement({(2,): Fraction(-2, 3)}),
        3: FreeElement({(3,): Fraction(-1)}),
        4: FreeElement({(4,): Fraction(-6, 5), (2, 2): Fraction(16, 15)}),
        5: FreeElement({(5,): Fraction(-4, 3), (2, 3): Fraction(8, 3),
                        (3, 2): Fraction(8, 3)}),
    }
    ok = all(q_poly(k) == v for k, v in expected_q.items())
    out.append(_result("freealg.q-table", ok))

    ok = all(q_poly(k).star() == q_poly(k) for k in range(max_k + 1))
    out.append(_result("freealg.q-star-symmetric", ok))

    ok = all(leading_coeff(k) == Fraction(-2 * (k - 1), k + 1)
             for k in range(2, max_k + 1))
    out.append(_result("freealg.leading-coefficients", ok))
    return out


def suite_linear(n: int, max_k: int, seed: int = 0, trials: int = 2):
    space = Space.euclidean(n)
    out = []
    for k in range(max_k + 1):
        gb = gauge_basis(space, k + 2)
        cb = linear_jet_basis(space, k)
        agree = (len(gb) == gauge_dim(n, k + 2)
                 == len(cb) == curvature_jet_dim_bound(n, k))
        out.append(_result(f"linear.dimensions-n{n}-k{k}", agree,
                           f"gauge={len(gb)} formula={gauge_dim(n, k + 2)} "
                           f"components={len(cb)} bound={curvature_jet_dim_bound(n, k)}"))

        ok = all(reconstruct_linear(symmetrize_component(b)) == b for b in cb)
        out.append(_result(f"linear.reconstruct-after-symmetrize-n{n}-k{k}", ok))

        ok = all(symmetrize_component(reconstruct_linear(s)) == s for s in gb)
        out.append(_result(f"linear.symmetrize-after-reconstruct-n{n}-k{k}", ok))

    rng = random.Random(seed)
    ok = True
    for _ in range(trials):
        g = random_signed_perm(space, rng)
        for k in range(min(max_k, 2) + 1):
            for s in gauge_basis(space, k + 2)[:3]:
                if reconstruct_linear(pullback(s, g)) != pullback(reconstruct_linear(s), g):
                    ok = False
    out.append(_result(f"linear.reconstruct-equivariance-n{n}", ok))
    return out


def suite_young(n: int, max_k: int):
    space = Space.euclidean(n)
    out = []
    ok = (hook_constant(0), hook_constant(1), hook_constant(2)) == (12, 24, 80)
    out.append(_result("young.hook-constants", ok))
    for k in range(max_k + 1):
        cb = linear_jet_basis(space, k)
        ok = all(young_symmetrize(b) == b.scaled(hook_constant(k)) for b in cb)
        out.append(_result(f"young.eigenvalue-n{n}-k{k}", ok,
                           f"{len(cb)} basis elements"))
    return out


def suite_roundtrip(n: int, max_k: int, seed: int = 0, trials: int = 3):
    space = Space.euclidean(n)
    out = []
    for k in range(max_k + 1):
        rng = random.Random(seed * 1000 + k)
        ok_jet = True
        ok_sym = True
        ok_metric_route = True
        for _ in range(trials):
            s = random_symjet(space, k, rng)
            jet = jet_from_symjet(s)
            if validate_jet(jet):
                ok_jet = False
            if symmetrize_jet(jet, validate=False) != s:
                ok_sym = False
            if jet != curvature_jet_at_origin(metric_from_symjet(s), k):
                ok_metric_route = False
        out.append(_result(f"roundtrip.symjet-n{n}-k{k}",
                           ok_jet and ok_sym and ok_metric_route,
                           f"valid={ok_jet} exact={ok_sym} "
                           f"metric_route={ok_metric_route}"))

        ok_metric = True
        for _ in range(trials):
            g = random_normal_metric(space, k + 2, rng)
            jet = curvature_jet_at_origin(g, k)
            try:
                # an invalid jet's symmetrization need not be gauge
                if metric_from_symjet(symmetrize_jet(jet, validate=False)) != g:
                    ok_metric = False
            except GaugeError:
                ok_metric = False
        out.append(_result(f"roundtrip.metric-n{n}-k{k}", ok_metric))
    return out


def suite_transport(n: int, max_k: int, seed: int = 0, trials: int = 3):
    space = Space.euclidean(n)
    order = max_k + 2
    rng = random.Random(seed)
    out = []
    ok_sub = True
    ok_fac = True
    for _ in range(trials):
        g = random_normal_metric(space, order, rng)
        phi = parallel_transport_series(g, order)
        jet = curvature_jet_at_origin(g, max_k)
        s = symmetrize_jet(jet, validate=False)
        qt = transport_polynomial(s, order)
        if phi != qt:
            ok_sub = False
        # N^T eps N is the metric matrix, through the transport's order
        transpose = PolyEnd(space, {(j, i): p for (i, j), p in phi.coeffs.items()})
        eps_phi = PolyEnd.diagonal(space, space.signature).mul(phi, order)
        if transpose.mul(eps_phi, order) != metric_form_series(g, order):
            ok_fac = False
    out.append(_result(f"transport.universal-polynomials-n{n}-order{order}", ok_sub))
    out.append(_result(f"transport.metric-factorization-n{n}-order{order}", ok_fac))
    return out


def suite_extension(n: int, max_k: int, seed: int = 0, trials: int = 2):
    """extend_jet (the series route) against the algebraic route: the
    closed form of the symmetrized jet padded with a zero top level, whose
    truncation is the jet that gets extended."""
    space = Space.euclidean(n)
    out = []
    for k in range(min(max_k, 2) + 1):
        rng = random.Random(seed * 77 + k)
        ok = True
        detail = ""
        for _ in range(trials):
            s = random_symjet(space, k, rng)
            padded = SymJet(space, s.levels + [SymPairTensor.zero(space, k + 3)])
            algebraic = jet_from_symjet(padded)
            ext = extend_jet(algebraic.truncated(k))
            if validate_jet(ext):
                ok = False
                detail = "extension is not a valid jet"
            if symmetrize_jet(ext, validate=False) != padded:
                ok = False
                detail = "extension does not symmetrize to the padded symjet"
            if ext != algebraic:
                ok = False
                detail = "extension differs from the algebraic route"
        out.append(_result(f"extension.dual-routes-n{n}-k{k}", ok, detail))
    return out


def suite_validator(n: int, max_k: int, seed: int = 0):
    space = Space.euclidean(n)
    out = []
    rng = random.Random(seed)
    k = min(max_k, 2)
    s = random_symjet(space, k, rng)
    jet = jet_from_symjet(s)
    out.append(_result(f"validator.accepts-metric-jets-n{n}-k{k}",
                       validate_jet(jet) == []))

    probes = []
    for level, t in enumerate(jet.levels):
        indices = list(t.iter_indices())
        picked = indices if len(indices) <= 200 else rng.sample(indices, 50)
        probes += [(level, [(idx, 1)]) for idx in picked]
    out.append(_result(f"validator.detects-unit-mutations-n{n}-k{k}",
                       _detects_all(jet, probes), f"{len(probes)} probes"))

    if n >= 3:
        # whole sign orbits (a,b,c,d)+, (b,a,c,d)-, (a,b,d,c)-, (b,a,d,c)+ with
        # {a, b} != {c, d} (none at n = 2): both antisymmetries hold and pair
        # symmetry fails, so only the checks on sign representatives see them
        orbit_rng = random.Random(f"orbits:{seed}")
        probes = []
        for level, t in enumerate(jet.levels):
            reps = [idx for idx in t.iter_indices()
                    if idx[-4] < idx[-3] and idx[-2] < idx[-1] and idx[-4:-2] != idx[-2:]]
            probes += [(level, _sign_images(idx))
                       for idx in orbit_rng.sample(reps, min(8, len(reps)))]
        out.append(_result(f"validator.detects-orbit-mutations-n{n}-k{k}",
                           _detects_all(jet, probes), f"{len(probes)} probes"))

    ok = True
    for _ in range(2):
        g = random_signed_perm(space, rng)
        if symmetrize_jet(jet.pullback(g), validate=False) != \
                symmetrize_jet(jet, validate=False).pullback(g):
            ok = False
    out.append(_result(f"validator.symmetrize-equivariance-n{n}-k{k}", ok))
    return out


def _detects_all(jet, probes):
    """Whether ``validate_jet`` reports every mutation of the jet: a probe
    (level, terms) adds to the level the tensor whose entries are ``terms``,
    (idx, sign) pairs with distinct indices."""
    for level, terms in probes:
        t = jet.levels[level] + MultiTensor(jet.space, level + 4, dict(terms))
        if not validate_jet(CurvatureJet(jet.space, jet.levels[:level] + [t] + jet.levels[level + 1:])):
            return False
    return True


def run_suites(suite: str, n: int = 3, max_k: int = 3, seed: int = 0,
               trials: int = 3):
    """Run one named suite, or all of them, returning CheckResults."""
    chosen = SUITE_NAMES if suite == "all" else (suite,)
    results = []
    for name in chosen:
        if name == "freealg":
            results.extend(suite_freealg(max(10, max_k)))
        elif name == "linear":
            results.extend(suite_linear(n, max_k, seed, trials=min(trials, 3)))
        elif name == "young":
            results.extend(suite_young(n, max_k))
        elif name == "roundtrip":
            results.extend(suite_roundtrip(n, max_k, seed, trials))
        elif name == "transport":
            results.extend(suite_transport(n, max_k, seed, min(trials, 3)))
        elif name == "extension":
            results.extend(suite_extension(n, max_k, seed, min(trials, 2)))
        elif name == "validator":
            results.extend(suite_validator(n, max_k, seed))
        else:
            raise ValueError(f"unknown suite: {name}")
    return results
