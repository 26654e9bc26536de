"""The four benchmark workloads: seeded inputs, one op's command, output checks.

Every workload is a closed loop with one client in one process: the next
op starts only when the previous one has returned.  Op ``i`` gets its own
input, derived from ``--seed`` and ``i``, so memoisation inside the program
can never turn a repeated input into a free hit.  Ops alternate between the
Riemannian signature ``+...+`` (even ``i``) and the Lorentzian ``-+...+``
(odd ``i``); ``selfcheck`` cannot, because ``jetiso verify`` always works in
the Euclidean space.

Why each workload is in the set (sizes measured on a 2-core machine):

* ``roundtrip``: ``jetiso roundtrip`` on a dense random normal metric,
  n=3, metric degree 5 (jet order 3).  About 90% of an op is
  ``curvature_jet_at_origin`` and the ``Poly.mul`` calls under it; jet
  validation and ``exactla`` are never reached.  Exercises truncated series
  multiplication; bypasses the metric-free reconstruction and the
  symmetry-reduced validation kernels.
* ``expand``: ``jetiso expand`` on a valid curvature jet, n=4, k=2.  Almost
  all of an op is ``validate_jet`` (``ricci_defect``, ``permuted``, the
  Bianchi identities), then ``symmetrize_jet`` and ``metric_from_symjet``.
  ``Poly.mul`` does almost no truncated work.  Exercises the validation
  kernels; bypasses series multiplication.
* ``extend``: ``jetiso extend`` on a valid jet, n=4, k=1 -> 2, writing
  about 450 KB of JSON per op.  Today this runs the metric route
  (``extend_jet`` -> ``jet_from_symjet`` -> ``curvature_jet_at_origin``);
  a metric-free solve route would replace it.  Same series layer as
  ``roundtrip`` through another entry point at wider n, plus large output.
* ``selfcheck``: ``jetiso verify --suite all -n 3 --max-k 1 --trials 2``
  with the seed advanced per op.  The only workload that reaches
  ``linear_jet_basis``, ``extend_jet_by_solve``, ``component_span_solve``,
  ``young_symmetrize``, the transport series and ``exactla``
  nullspace/solve.

The parent process calls ``prepare`` and ``check``, which may use the
library.  The timed child calls ``op_argv``, which uses only the standard
library, so that the child holds nothing but the program's own work.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from collections import defaultdict
from fractions import Fraction

# dilation factors t; level l of a jet scales by t^(l+2), metric degree d by t^d
DILATIONS = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 2), Fraction(2))


def signatures(n):
    """The two signatures ops alternate between: Riemannian, then Lorentzian."""
    return [(1,) * n, (-1,) + (1,) * (n - 1)]


def dump(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# seeded documents, built on the JSON wire format with the standard library


def dense_metric_doc(n, signature, gauge, rng):
    """Normal metric whose degree-d part is a dense combination of ``gauge[d]``.

    Every basis element gets a coefficient in {+-1, +-2, +-3}; never zero, so
    inputs of one size carry the same number of terms and cost about the same.
    """
    parts = []
    for degree in sorted(gauge, key=int):
        comps = defaultdict(Fraction)
        for element in gauge[degree]:
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            for entry in element:
                comps[(tuple(entry["sym"]), tuple(entry["pair"]))] += c * Fraction(entry["value"])
        parts.append({"degree": int(degree), "components": [
            {"sym": list(sym), "pair": list(pair), "value": str(v)}
            for (sym, pair), v in sorted(comps.items()) if v]})
    return {"n": n, "signature": list(signature), "parts": parts}


def transforms(signature, seed):
    """Every (perm, signs, t) whose signed permutation preserves ``signature``.

    Shuffled by the seed; op ``j`` of one signature takes entry ``j``, so
    inputs stay distinct until the list runs out.
    """
    n = len(signature)
    perms = [p for p in itertools.permutations(range(n))
             if all(signature[p[i]] == signature[i] for i in range(n))]
    out = [(p, s, t) for p in perms
           for s in itertools.product((1, -1), repeat=n) for t in DILATIONS]
    random.Random(f"transforms:{seed}:{signature}").shuffle(out)
    return out


def _move(idx, perm, signs):
    sign = 1
    for i in idx:
        sign *= signs[i]
    return [perm[i] for i in idx], sign


def transform_jet_doc(doc, perm, signs, t):
    """Pull a jet back along a signed permutation, then dilate by t.

    The component at idx lands at perm(idx) times the signs of idx; level l
    is scaled by t^(l+2).  Both keep a valid jet valid.
    """
    levels = []
    for level, lv in enumerate(doc["levels"]):
        scale = t ** (level + 2)
        comps = []
        for entry in lv["components"]:
            idx, sign = _move(entry["idx"], perm, signs)
            comps.append({"idx": idx, "value": str(sign * scale * Fraction(entry["value"]))})
        comps.sort(key=lambda e: e["idx"])
        levels.append({"arity": lv["arity"], "components": comps})
    return {"n": doc["n"], "signature": doc["signature"], "order": doc["order"],
            "levels": levels}


def metric_table(doc):
    """Metric document as {degree: {(sym, pair): value}}, zero entries dropped."""
    table = {}
    for part in doc["parts"]:
        comps = {(tuple(e["sym"]), tuple(e["pair"])): Fraction(e["value"])
                 for e in part["components"]}
        comps = {key: v for key, v in comps.items() if v}
        if comps:
            table[part["degree"]] = comps
    return table


def transform_metric_table(table, perm, signs, t):
    """The metric pushed through the same transform as the jet it generates."""
    out = {}
    for degree, comps in table.items():
        scale = t ** degree
        moved = {}
        for (sym, pair), v in comps.items():
            new_sym, s1 = _move(sym, perm, signs)
            new_pair, s2 = _move(pair, perm, signs)
            moved[(tuple(sorted(new_sym)), tuple(sorted(new_pair)))] = s1 * s2 * scale * v
        out[degree] = moved
    return out


# ---------------------------------------------------------------------------
# parent-side helpers that use the library


def _gauge_docs(n, degrees):
    from jetiso.tensor import Space, gauge_basis

    return {str(d): [h.to_json_obj()["components"] for h in gauge_basis(Space.euclidean(n), d)]
            for d in degrees}


def _base_jets(seed, n, order, count):
    """``count`` valid jets of the given order per signature, with their metrics.

    Each comes from a dense random normal metric of degree order+2 through
    ``curvature_jet_at_origin``, so the metric is an independent expectation
    for anything that rebuilds it from the jet.
    """
    from jetiso.jets import validate_jet
    from jetiso.metriclab import PolyMetric, curvature_jet_at_origin

    gauge = _gauge_docs(n, range(2, order + 3))
    bases = []
    for sig in signatures(n):
        per_sig = []
        for b in range(count):
            rng = random.Random(f"base:{seed}:{sig}:{b}")
            metric = dense_metric_doc(n, sig, gauge, rng)
            jet = curvature_jet_at_origin(PolyMetric.from_json_obj(metric), order)
            violations = validate_jet(jet)
            if violations:
                raise AssertionError(f"base jet is invalid: {violations[0]}")
            per_sig.append({"metric": metric, "jet": jet.to_json_obj()})
        bases.append(per_sig)
    return bases


# ---------------------------------------------------------------------------
# the workloads


class Workload:
    """One kind of op.  ``size`` holds the workload's dimensions."""

    name = ""

    def __init__(self, size):
        self.size = size

    def warm(self):
        """Lazy caches an op fills: (n, gauge_basis degrees, top q_poly degree).

        Set-up fills them before the loop, so the first op does not pay.
        """
        raise NotImplementedError

    def prepare(self, seed):
        """Plan handed to the child: seeded data that per-op inputs derive from."""
        return {}

    def op_argv(self, plan, seed, i, work):
        """Write op i's input under ``work`` and return the CLI argv."""
        raise NotImplementedError

    def check(self, plan, seed, i, rec):
        """True when op i's output is right.  ``rec`` is the child's record."""
        raise NotImplementedError


class Roundtrip(Workload):
    name = "roundtrip"

    def warm(self):
        return self.size["n"], [], self.size["k"] + 2

    def prepare(self, seed):
        return {"gauge": _gauge_docs(self.size["n"], range(2, self.size["k"] + 3))}

    def op_argv(self, plan, seed, i, work):
        n = self.size["n"]
        rng = random.Random(f"roundtrip:{seed}:{i}")
        path = os.path.join(work, f"in{i}.json")
        dump(dense_metric_doc(n, signatures(n)[i % 2], plan["gauge"], rng), path)
        return ["roundtrip", path]

    def check(self, plan, seed, i, rec):
        return (rec["code"] == 0
                and rec["stdout"] == f"roundtrip exact through degree {self.size['k'] + 2}\n")


class _JetOp(Workload):
    """Ops on transformed copies of a few seeded base jets."""

    def prepare(self, seed):
        return {"bases": _base_jets(seed, self.size["n"], self.size["k"], self.size["bases"])}

    def _transform(self, plan, seed, i):
        sig = i % 2
        j = i // 2
        base = plan["bases"][sig][j % len(plan["bases"][sig])]
        table = transforms(signatures(self.size["n"])[sig], seed)
        return base, table[j % len(table)]

    def op_argv(self, plan, seed, i, work):
        base, (perm, signs, t) = self._transform(plan, seed, i)
        path = os.path.join(work, f"in{i}.json")
        dump(transform_jet_doc(base["jet"], perm, signs, t), path)
        return [self.name, path, "-o", os.path.join(work, f"out{i}.json")]


class Expand(_JetOp):
    name = "expand"

    def warm(self):
        return self.size["n"], [], self.size["k"] + 2

    def check(self, plan, seed, i, rec):
        if rec["code"] != 0 or rec["out"] is None:
            return False
        base, (perm, signs, t) = self._transform(plan, seed, i)
        want = transform_metric_table(metric_table(base["metric"]), perm, signs, t)
        return metric_table(load(rec["out"])) == want


class Extend(_JetOp):
    name = "extend"

    def warm(self):
        # the extension's metric runs one degree past the input jet's
        return self.size["n"], [], self.size["k"] + 3

    def check(self, plan, seed, i, rec):
        from jetiso.jets import CurvatureJet, SymJet, symmetrize_jet, validate_jet
        from jetiso.tensor import SymPairTensor

        if rec["code"] != 0 or rec["out"] is None:
            return False
        jet = CurvatureJet.from_json_obj(load(rec["argv"][1]))
        out = CurvatureJet.from_json_obj(load(rec["out"]))
        if out.order != jet.order + 1 or out.truncated(jet.order) != jet:
            return False
        if validate_jet(out):
            return False
        s = symmetrize_jet(jet, validate=False)
        padded = SymJet(jet.space, s.levels + [SymPairTensor.zero(jet.space, jet.order + 3)])
        return symmetrize_jet(out, validate=False) == padded


class Selfcheck(Workload):
    name = "selfcheck"

    def warm(self):
        k = self.size["k"]
        # the freealg suite walks the universal polynomials up to degree 10
        return self.size["n"], list(range(2, k + 3)), max(10, k + 3)

    def op_argv(self, plan, seed, i, work):
        s = self.size
        return ["verify", "--suite", "all", "-n", str(s["n"]), "--max-k", str(s["k"]),
                "--trials", str(s["trials"]), "--seed", str(seed * 1000 + i)]

    def check(self, plan, seed, i, rec):
        lines = rec["stdout"].splitlines()
        if rec["code"] != 0 or not lines:
            return False
        checks = lines[:-1]
        return (all(line.startswith("PASS ") for line in checks)
                and lines[-1] == f"{len(checks)}/{len(checks)} checks passed")


SIZES = {
    "roundtrip": {"n": 3, "k": 3},
    "expand": {"n": 4, "k": 2, "bases": 1},
    "extend": {"n": 4, "k": 1, "bases": 2},
    "selfcheck": {"n": 3, "k": 1, "trials": 2},
}

# smoke-test sizes: every workload at n=2, k=1
TINY = {
    "roundtrip": {"n": 2, "k": 1},
    "expand": {"n": 2, "k": 1, "bases": 1},
    "extend": {"n": 2, "k": 1, "bases": 1},
    "selfcheck": {"n": 2, "k": 1, "trials": 1},
}

KINDS = {cls.name: cls for cls in (Roundtrip, Expand, Extend, Selfcheck)}


def make(name, size=None):
    return KINDS[name](size or SIZES[name])
