"""Curvature jets: validation, symmetrization, reconstruction, the
Young-symmetrizer action, and the algebraic symjet -> jet route.

A curvature jet of order k over a pseudo-Euclidean space is a list of
tensors T_0, ..., T_k, where T_l has l derivative slots followed
by four curvature slots.  T_l plays the role of the l-th covariant
derivative of the curvature tensor at a point, so validity means:

* for frozen derivative slots, the last four slots carry the algebraic
  curvature symmetries (antisymmetry in each pair, pair exchange, first
  Bianchi);
* the differential Bianchi identity holds cyclically over the last
  derivative slot and the first two curvature slots;
* swapping adjacent derivative slots changes T_l by the commutator
  terms built from lower levels (the Ricci identity); the exchange
  defect is computed exactly by ``ricci_defect``.

These identities are weighted-homogeneous: the dilation x -> t x scales
T_l by t^(l+2), and each identity at level l keeps weight l+2.  A jet is
therefore valid exactly when its dilation is, and ``validate_jet`` checks
the dilation by the least common denominator, whose entries are ints.
It splits each level once into orbits under the swaps of its two
antisymmetric slot pairs: the other identities, and ``ricci_defect``, act
on one representative per orbit, and a defect is built in full only to
report an identity that fails.
Symmetrization is linear and level-wise, so ``symmetrize_jet`` sums the
same dilation in ints and divides each stored value once, by its number
of arrangements times t^(l+2).

Linear jet components are the jets of the special form (0, ..., 0, T),
each held as its top tensor T, a plain ``MultiTensor`` of arity k + 4;
for those the derivative slots are fully symmetric and the only other
constraints are the Bianchi identities.  A tensor T is one exactly when
``validate_jet`` passes (0, ..., 0, T), the one membership test (its
Ricci right sides read only the zero lower levels); ``linear_jet_basis``
solves the same constraints independently, as an oracle.  Linear
components are reconstructed from their total symmetrization by a
Kulkarni-Nomizu product, and the Young symmetrizer of hook shape acts
on them by an explicit integer eigenvalue.

The algebraic route ``jet_from_symjet`` builds each level in closed form,
as an explicit affine image of its symmetrization and of the Ricci right
sides of the levels below (``_extend``); it builds no linear system.

Both jet kinds are pulled back by a signed permutation level by level,
through the one ``tensor.pullback`` (``Jet.pullback``).
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd

from .exactla import RatMatrix, exact_quotient, format_rational, nullspace_basis
from .poly import _dilate_integral
from .tensor import (
    MultiTensor,
    Space,
    SymPairTensor,
    _sign_images,
    _sign_representative,
    _unfold,
    content_of,
    int_field,
    is_gauge_tensor,
    json_obj,
    kulkarni,
    list_field,
    multiset_count,
    pair_average,
    pullback,
)


@dataclass
class Violation:
    """One failed identity: its worst component ``at``, the defect's
    signed ``value`` there and the number of ``nonzero`` defect components."""

    level: int
    identity: str
    slots: tuple
    at: tuple
    value: int | Fraction
    nonzero: int

    def __str__(self):
        slots = "(" + ",".join(str(s) for s in self.slots) + ")"
        return (f"level={self.level} identity={self.identity} "
                f"slots={slots} max_violation_at={list(self.at)} "
                f"value={format_rational(self.value)} nonzero={self.nonzero}")


def _worst_index(defect: MultiTensor):
    """Index and signed value of the largest defect component (the first in
    lexicographic order among equals), and how many are nonzero."""
    at, value = min(defect.coeffs.items(), key=lambda kv: (-abs(kv[1]), kv[0]))
    return at, value, len(defect.coeffs)


class Jet:
    """Levels 0..k over one space: level l is a ``level_type`` of size
    l + ``offset``, written under ``size_field`` through the level type's
    component codec (``components_json`` and ``from_components``)."""

    __slots__ = ("space", "levels")

    def __init__(self, space, levels):
        self.space = space
        for l, t in enumerate(levels):
            if not isinstance(t, self.level_type) or t.space != space:
                raise ValueError(f"level {l} is not a {self.level_type.__name__} over {space}")
            self._check_size(l, t._shape()[1])
        self.levels = list(levels)

    @classmethod
    def _check_size(cls, l, size):
        if size != l + cls.offset:
            raise ValueError(f"level {l} has {cls.size_field} {size}, expected {l + cls.offset}")

    @property
    def order(self):
        return len(self.levels) - 1

    @classmethod
    def zero(cls, space, order):
        return cls(space, [cls.level_type.zero(space, l + cls.offset) for l in range(order + 1)])

    def truncated(self, order):
        if order > self.order:
            raise ValueError("cannot truncate upward")
        return type(self)(self.space, self.levels[:order + 1])

    def __eq__(self, other):
        return (type(other) is type(self) and self.space == other.space
                and self.levels == other.levels)

    def pullback(self, g):
        """The jet of the pulled-back levels (``tensor.pullback``)."""
        return type(self)(self.space, [pullback(t, g) for t in self.levels])

    def json_frame(self):
        """The document with each level's tensor in place of its components list."""
        return {
            "n": self.space.n,
            "signature": list(self.space.signature),
            "order": self.order,
            "levels": [{self.size_field: l + self.offset, "components": t}
                       for l, t in enumerate(self.levels)],
        }

    def to_json_obj(self):
        return json_obj(self.json_frame())

    @classmethod
    def from_json_obj(cls, obj):
        space = Space(obj["n"], tuple(obj["signature"]))
        order = int_field(obj, "order")
        if order < 0:
            raise ValueError("need order >= 0")
        levels = []
        for l, lv in enumerate(list_field(obj, "levels")):
            size = int_field(lv, cls.size_field)
            cls._check_size(l, size)
            levels.append(cls.level_type.from_components(space, size,
                                                         list_field(lv, "components")))
        if len(levels) != order + 1:
            raise ValueError("order does not match the number of levels")
        return cls(space, levels)

    def __repr__(self):
        return f"{type(self).__name__}(n={self.space.n}, order={self.order})"


class CurvatureJet(Jet):
    """Levels T_0..T_k; level l is an (l+4)-linear tensor."""

    __slots__ = ()
    level_type = MultiTensor
    size_field = "arity"
    offset = 4


class SymJet(Jet):
    """Symmetrized jet: level l is an element of Sym^(l+2) tensor Sym^2."""

    __slots__ = ()
    level_type = SymPairTensor
    size_field = "degree"
    offset = 2


# the name under which bench/test_bench.py pulls a jet back
transform_jet = Jet.pullback


# ---------------------------------------------------------------------------
# validation


def _cyclic_sum(t: MultiTensor, a: int) -> MultiTensor:
    """Sum of t over the cyclic permutations of slots a, a+1, a+2."""
    cyc = list(range(t.arity))
    cyc[a], cyc[a + 1], cyc[a + 2] = a + 1, a + 2, a
    cyc2 = list(range(t.arity))
    cyc2[a], cyc2[a + 1], cyc2[a + 2] = a + 2, a, a + 1
    return t + t.permuted(cyc) + t.permuted(cyc2)


def _sign_split(t: MultiTensor):
    """Split a level into its orbits under the swaps of its last two slot pairs.

    Returns (reps, rest).  ``reps`` maps the a < b, c < d representative
    of every orbit whose stored values are v, -v, -v, v (``_sign_images``)
    to v; ``rest`` holds every entry of every other orbit, including any
    nonzero entry with a == b or c == d.  So the level is antisymmetric in
    both pairs exactly when ``rest`` is empty, and then ``reps`` determines
    it.  When every stored entry lies in a consistent orbit, which is when
    there are four of them per representative, the pass that sorts out
    ``rest`` is skipped.
    """
    coeffs = t.coeffs
    reps = {}
    for idx, v in coeffs.items():
        a, b, c, d = idx[-4:]
        if a < b and c < d:
            head = idx[:-4]
            if (coeffs.get(head + (b, a, c, d)) == -v and coeffs.get(head + (a, b, d, c)) == -v
                    and coeffs.get(head + (b, a, d, c)) == v):
                reps[idx] = v
    if len(coeffs) == 4 * len(reps):
        return reps, {}
    rest = {}
    for idx, v in coeffs.items():
        moved = _sign_representative(idx)
        if moved is None or moved[0] not in reps:
            rest[idx] = v
    return reps, rest


def _cyclic_sum_vanishes(reps, second: bool) -> bool:
    """Whether the first (or, with ``second``, the second) Bianchi cyclic sum
    vanishes on a level antisymmetric in its last two slot pairs, whose
    sign representatives are ``reps``.

    The first sum runs over slots (a, b, c) of (a, b, c, d), the second over
    (x, a, b) of (x, a, b, c, d).  On such a level either sum is totally
    antisymmetric in its three slots, so it vanishes when it does at
    increasing indices there; that value is the sum of the entries whose
    three slots hold those indices with a < b, each signed by the parity
    of their order.  A representative (a, b, c, d) with value v holds two
    such entries of the first sum, v at (a, b, c, d) and -v at
    (a, b, d, c), and one of the second, v at (x, a, b, c, d) (that sum is
    antisymmetric in c, d as well, so only c < d is kept).
    """
    sums = defaultdict(int)
    for idx, v in reps.items():
        if second:
            head, (z, a, b), tail = idx[:-5], idx[-5:-2], idx[-2:]
            terms = ((z, tail, v),)
        else:
            head, (a, b, c, d) = idx[:-4], idx[-4:]
            terms = ((c, (d,), v), (d, (c,), -v))
        # (a, b, z) and its rotation (z, a, b) are even orders of the three
        # indices when z > b or z < a, and odd when a < z < b
        for z, tail, w in terms:
            if z > b:
                sums[head + (a, b, z) + tail] += w
            elif z < a:
                sums[head + (z, a, b) + tail] += w
            elif z != a and z != b:
                sums[head + (a, z, b) + tail] -= w
    return not any(sums.values())


def _check(out, level, identity, slots, defect):
    """Append the violation of ``identity`` to ``out`` when ``defect`` is nonzero."""
    if defect:
        out.append(Violation(level, identity, slots, *_worst_index(defect)))


def derivation_apply(form: MultiTensor, target: MultiTensor, frozen: int = 0) -> MultiTensor:
    """Action of the operator of a bilinear form on the slots of a tensor.

    ``form`` is a bilinear form A(z, w); the associated endomorphism is
    (A z)_m = eps_m A(z, e_m).  Acting as a derivation on an m-linear
    tensor U gives (A.U)(u_1, ..., u_m) = -sum_s U(..., A u_s, ...), the
    sum running over every slot s after the first ``frozen``.
    """
    eps = target.space.eps
    # scatter: U's component idx contributes to the output at idx with
    # slot s moved to m, weighted by (A e_js)_m, js = idx[s]
    column = defaultdict(list)
    for (m, js), a in form.coeffs.items():
        column[js].append((m, eps(js) * a))
    out = {}
    for idx, v in target.coeffs.items():
        for s in range(frozen, target.arity):
            for m, a in column.get(idx[s], ()):
                new = idx[:s] + (m,) + idx[s + 1:]
                out[new] = out.get(new, 0) - a * v
    return target._with({idx: v for idx, v in out.items() if v})


def _fold(coeffs):
    """Sum each key's value into its sign representative, with the sign of
    the move; keys with an equal antisymmetric pair are dropped."""
    out = defaultdict(int)
    for idx, v in coeffs.items():
        if idx[-4] < idx[-3] and idx[-2] < idx[-1]:
            out[idx] += v
        else:
            moved = _sign_representative(idx)
            if moved is not None:
                out[moved[0]] += moved[1] * v
    return out


def ricci_defect(jet: "CurvatureJet", level: int, i: int) -> MultiTensor:
    """Exchange defect of derivative slots (i, i+1) at the given level.

    Slots are 1-based among the ``level`` derivative slots, so
    1 <= i <= level-1.  The defect is

        T(.., x_i, x_{i+1}, ..) - T(.., x_{i+1}, x_i, ..)
        - sum over splittings of the first i-1 slots into I and J of
          the curvature operator of (level |I|, slots v_I, x_i, x_{i+1})
          acting as a derivation on the level (|J| + q) tensor holding
          the remaining slots, q = level - i - 1.

    For each size r = |I| the operators are the bilinear forms of level
    r grouped by head (v_I, x_i, x_{i+1}); each acts once on level
    p - r + q with the p - r slots of v_J frozen, p = i - 1, and the
    result is placed at every choice of the r prefix slots holding v_I.

    The defect is linear in the levels it reads, and both the derivation
    (which acts alike on every slot it reaches, the last four included)
    and the exchange of derivative slots commute with the swaps of the
    last two slot pairs.  So each level is split by ``_sign_split``: the
    consistent orbits enter through their representatives alone, each
    acted key folded back to its representative, and the result leaves
    them through ``_unfold``; the rest enters in full.

    Vanishes identically on jets of metrics.
    """
    if not 1 <= i <= level - 1:
        raise ValueError("need 1 <= i <= level-1")
    splits = {l: _sign_split(jet.levels[l]) for l in (level, *range(level - i - 1, level - 1))}
    return _ricci_defect(jet, splits, level, i)


def _ricci_defect(jet, splits, level, i):
    """``ricci_defect`` of levels already split: ``splits`` maps each level
    it reads to its ``_sign_split``."""
    reps, rest = _ricci_parts(jet, splits, level, i)
    out = _unfold(reps)
    for idx, v in rest.items():
        out[idx] = out.get(idx, 0) + v
    return jet.levels[level]._with({idx: v for idx, v in out.items() if v})


def _ricci_parts(jet, splits, level, i):
    """``_ricci_defect`` in two parts: the defect of the consistent orbits on
    their sign representatives, and that of the rest in full."""
    p = i - 1
    forms = []
    for r in range(p + 1):
        by_head = defaultdict(dict)
        for idx, v in jet.levels[r].coeffs.items():
            by_head[idx[:r + 2]][idx[r + 2:]] = v
        # for each placement of v_I, the position in v_I + v_J of each prefix slot
        placements = []
        for subset in itertools.combinations(range(p), r):
            order = list(subset) + [s for s in range(p) if s not in subset]
            placements.append(sorted(range(p), key=order.__getitem__))
        forms.append((placements, [(head, MultiTensor(jet.space, 2, comps))
                                   for head, comps in by_head.items()]))
    return tuple(_exchange_defect(jet, splits, part, forms, level, p) for part in (0, 1))


def _exchange_defect(jet, splits, part, forms, level, p):
    """``ricci_defect`` on one part of each level it reads (part 0 of its
    ``_sign_split``, the representatives, or part 1, the rest), with
    ``forms`` holding per r the placements and the forms of level r by
    head; on the representatives, each acted key is moved to its sign
    representative."""
    t = jet.levels[level]._with(splits[level][part])
    out = (t - t.swapped(p, p + 1)).coeffs
    for r, (placements, by_head) in enumerate(forms):
        target = jet.levels[level - 2 - r]._with(splits[level - 2 - r][part])
        if not target:
            continue
        for head, form in by_head:
            acted = derivation_apply(form, target, p - r).coeffs
            if not part:
                acted = _fold(acted)
            v_i, pair = head[:r], head[r:]
            for idx, v in acted.items():
                prefix = v_i + idx[:p - r]
                tail = pair + idx[p - r:]
                for gather in placements:
                    key = tuple(prefix[c] for c in gather) + tail
                    out[key] = out.get(key, 0) - v
    return out


def _integral_dilation(jet: "CurvatureJet"):
    """The jet dilated by t, the least common denominator of its entries:
    level l is scaled by t**(l+2), which leaves every entry an int."""
    t, levels = _dilate_integral([(l + 2, lv) for l, lv in enumerate(jet.levels)])
    return t, CurvatureJet(jet.space, levels)


def validate_jet(jet: "CurvatureJet"):
    """All violations of the jet identities, empty when the jet is valid.

    Each identity has weight l+2 at level l, the weight of T_l under the
    dilation x -> t x (the Ricci defect pairs levels r and l-2-r), so the
    checks run on the integral dilation and each ``value`` is scaled back."""
    return _dilation_violations(*_integral_dilation(jet))


def _dilation_violations(scale, jet: "CurvatureJet"):
    """``validate_jet`` of the jet whose dilation by ``scale`` is ``jet``.

    Each level is split into sign orbits once (``_sign_split``).  Both
    antisymmetries hold exactly when no entry is left outside a consistent
    orbit; on such a level pair symmetry and the two Bianchi identities are
    tested on the representatives.  A defect is built in full only where
    a test fails, or on a level that is not antisymmetric, to report it."""
    out = []
    splits = [_sign_split(t) for t in jet.levels]
    for level, (t, (reps, rest)) in enumerate(zip(jet.levels, splits)):
        k = level  # the derivative slots before the four curvature slots
        if rest:
            _check(out, level, "antisymmetry", (k + 1, k + 2), t + t.swapped(k, k + 1))
            _check(out, level, "antisymmetry", (k + 3, k + 4), t + t.swapped(k + 2, k + 3))
        if rest or any(reps.get(idx[:-4] + idx[-2:] + idx[-4:-2]) != v for idx, v in reps.items()):
            sigma = list(range(k)) + [k + 2, k + 3, k, k + 1]
            _check(out, level, "pair_symmetry", (k + 1, k + 3), t - t.permuted(sigma))
        if rest or not _cyclic_sum_vanishes(reps, second=False):
            _check(out, level, "bianchi1", (k + 1, k + 2, k + 3), _cyclic_sum(t, k))
        if level >= 1 and (rest or not _cyclic_sum_vanishes(reps, second=True)):
            _check(out, level, "bianchi2", (level, level + 1, level + 2), _cyclic_sum(t, level - 1))
        for i in range(1, level):
            _check(out, level, "ricci", (i, i + 1), _ricci_defect(jet, splits, level, i))
    for v in out:
        v.value = exact_quotient(v.value, scale ** (v.level + 2))
    return out


class InvalidJetError(ValueError):
    """A jet failed validation; ``violations`` holds every failed identity."""

    def __init__(self, violations):
        self.violations = violations
        super().__init__("invalid jet: " + "; ".join(str(v) for v in violations))


# ---------------------------------------------------------------------------
# symmetrization and reconstruction


def _symmetrize_level(t: MultiTensor, level: int, scale: int = 1) -> SymPairTensor:
    """Total symmetrization of a jet level into Sym^(l+2) tensor Sym^2,
    divided by ``scale``.

    The symmetric slots collect the derivative slots plus curvature
    slots 2 and 3; the pair keeps curvature slots 1 and 4.  Each stored
    component adds to the one sorted key it lands on, and
    ``pair_average`` turns the sums into averages.
    """
    sums = defaultdict(int)
    for idx, v in t.coeffs.items():
        p, q = idx[level], idx[level + 3]
        sym = tuple(sorted(idx[:level] + idx[level + 1:level + 3]))
        sums[(sym, (p, q) if p <= q else (q, p))] += v
    return pair_average(t.space, level + 2, sums, scale)


def symmetrize_jet(jet: CurvatureJet, validate: bool = True) -> SymJet:
    """Symmetrized jet; raises ``InvalidJetError`` on an invalid input jet.

    Runs on the integral dilation by t: level l is summed in ints and
    divided by t^(l+2) in ``pair_average``'s one division per value."""
    scale, dilated = _integral_dilation(jet)
    if validate:
        violations = _dilation_violations(scale, dilated)
        if violations:
            raise InvalidJetError(violations)
    return SymJet(jet.space, [_symmetrize_level(t, l, scale ** (l + 2))
                              for l, t in enumerate(dilated.levels)])


def symmetrize_component(t: MultiTensor) -> SymPairTensor:
    """Total symmetrization of a linear jet component of order t.arity - 4."""
    return _symmetrize_level(t, t.arity - 4)


def reconstruct_linear(s: SymPairTensor) -> MultiTensor:
    """Linear jet component whose symmetrization is s.

    Requires s in the gauge space; the component is
    -(k+1)/(k+3) times the Kulkarni-Nomizu extension of s.  That
    extension is linear, so it runs on s dilated into ints by t, and
    each value is divided once, by (k+3)t.
    """
    k = s.k - 2
    if k < 0:
        raise ValueError("need a tensor of degree at least 2")
    t, (dilated,) = _dilate_integral([(1, s)])
    if not is_gauge_tensor(dilated):
        raise ValueError(f"input of degree {s.k} is not a gauge tensor")
    tensor = kulkarni(dilated)
    return tensor._with({idx: exact_quotient(-(k + 1) * v, (k + 3) * t)
                         for idx, v in tensor.coeffs.items()})


# ---------------------------------------------------------------------------
# Young symmetrizer


def _sym_sum(t: MultiTensor, slots):
    """Sum of t over all permutations of the given slots (no averaging)."""
    res = t
    for m in range(1, len(slots)):
        acc = res
        for j in range(m):
            acc = acc + res.swapped(slots[j], slots[m])
        res = acc
    return res


def hook_constant(k: int) -> int:
    """Eigenvalue of the Young symmetrizer on linear jet components."""
    return 2 * (k + 3) * (k + 2) * factorial(k)


def young_symmetrize(t: MultiTensor) -> MultiTensor:
    """Young symmetrizer of shape (k+2, 2) acting on a (k+4)-tensor.

    The first row holds curvature slots 1 and 3 and all derivative
    slots; the second row holds curvature slots 2 and 4.  Rows are
    symmetrized (summed, not averaged), then the two columns are
    antisymmetrized.  On a linear jet component of order k this acts by
    hook_constant(k).
    """
    k = t.arity - 4
    if k < 0:
        raise ValueError("need at least four slots")
    c1, c2, c3, c4 = k, k + 1, k + 2, k + 3
    row1 = [c1, c3] + list(range(k))
    row2 = [c2, c4]
    sym = _sym_sum(_sym_sum(t, row2), row1)
    out = sym - sym.swapped(c1, c2) - sym.swapped(c3, c4)
    out = out + sym.swapped(c1, c2).swapped(c3, c4)
    return out


# ---------------------------------------------------------------------------
# the Bianchi constraint system of the linear jet components


def _canonical_curvature_index(idx):
    """Canonical form of an index tuple under the curvature symmetries.

    The four curvature slots at the end run over their eight-element sign
    group; the derivative slots before them are left as they are.  The
    least image is the sign representative (a < b, c < d) or its pair
    exchange, both with the representative's sign, and the orbit forces
    the component to zero exactly when a pair holds equal indices.
    Returns (canonical_tuple, sign) or None when it does.
    """
    res = _sign_representative(idx)
    if res is None:
        return None
    rep, sign = res
    return min(rep, rep[:-4] + rep[-2:] + rep[-4:-2]), sign


def _bianchi_system(space: Space, k: int):
    """The Bianchi identities on the order-k linear jet components, as
    blocked integer systems.

    Unknowns are the classes of (k+4)-index tuples under the curvature sign
    group (``_canonical_curvature_index``) after their derivative slots are
    sorted.  Each row is reduced to primitive integer form with its first
    coefficient positive, duplicates dropped, and split by index content.
    Returns (canon, blocks): canon maps each index tuple to (class, sign) or
    None, and blocks holds one (classes, RatMatrix) per content, in sorted
    content order, with a column for every class of that content.
    """
    n = space.n
    canon = {}
    classes = defaultdict(set)
    for idx in itertools.product(range(n), repeat=k + 4):
        res = canon[idx] = _canonical_curvature_index(tuple(sorted(idx[:k])) + idx[k:])
        if res is not None:
            classes[content_of(res[0], n)].add(res[0])

    rows = defaultdict(set)

    def add_row(indices):
        terms = defaultdict(int)
        for idx in indices:
            if (res := canon[idx]) is not None:
                terms[res[0]] += res[1]
        items = sorted((key, c) for key, c in terms.items() if c)
        if items:
            g = gcd(*(c for _, c in items)) * (1 if items[0][1] > 0 else -1)
            rows[content_of(items[0][0], n)].add(tuple((key, c // g) for key, c in items))

    for idx in itertools.product(range(n), repeat=k + 4):
        lead = idx[:k]
        a, b, c, d = idx[k:]
        add_row([lead + (a, b, c, d), lead + (b, c, a, d), lead + (c, a, b, d)])
        if k >= 1:
            rest, x = lead[:-1], lead[-1]
            add_row([rest + (x, a, b, c, d), rest + (a, b, x, c, d), rest + (b, x, a, c, d)])

    blocks = []
    for cont in sorted(classes):
        cols = sorted(classes[cont])
        dense = [[terms.get(key, 0) for key in cols] for terms in map(dict, sorted(rows[cont]))]
        blocks.append((cols, RatMatrix(dense, len(cols))))
    return canon, blocks


def _scatter(space: Space, k: int, canon, values) -> MultiTensor:
    """Dense level-k tensor from values on canonical classes."""
    return MultiTensor(space, k + 4, {idx: res[1] * v for idx, res in canon.items()
                                      if res is not None and (v := values.get(res[0]))})


def linear_jet_basis(space: Space, k: int):
    """Deterministic basis of the order-k linear jet components.

    The nullspace of the Bianchi system on derivative-symmetric classes,
    one content block at a time: an oracle of the membership test.
    """
    canon, blocks = _bianchi_system(space, k)
    return [_scatter(space, k, canon, dict(zip(cols, vec)))
            for cols, matrix in blocks for vec in nullspace_basis(matrix)]


# ---------------------------------------------------------------------------
# the algebraic route: each level in closed form, folded over the levels


@lru_cache(maxsize=None)
def _arrangements(m):
    """The distinct arrangements of the sorted tuple m, in lexicographic order."""
    if not m:
        return ((),)
    return tuple((v,) + rest for j, v in enumerate(m) if m.index(v) == j
                 for rest in _arrangements(m[:j] + m[j + 1:]))


def _project_b2(x, k):
    """P~ B2 x in ints, for x on the sign representatives of a level k tensor
    (x_1, .., x_k; a, b, c, d); the result is keyed by sorted x_1, .., x_k.

    B2, the cyclic sum over (x_k, a, b), adds each entry at the rotations of
    its (x_k, a, b).  P~ = 24 k! P_V, for P_V the projection onto V = Sym^k
    tensor the algebraic curvature tensors: k! Sym_D adds each arrangement
    of the derivative slots to its sorted key, times the permutations it
    stands for; Y + (Y with its pairs exchanged) is 2 times the projection
    onto pair symmetry; 2X - X.c - X.c^2 is 3 times the Bianchi projection
    for the cycle c of (a, b, c), scattered from all four sign images of a
    key, so 4 times over at each representative.
    """
    fk = factorial(k)
    sums = defaultdict(int)
    for idx, v in x.items():
        head, (z1, z2, z3), tail = idx[:k - 1], idx[k - 1:k + 2], idx[-2:]
        for p, q, r in ((z1, z2, z3), (z3, z1, z2), (z2, z3, z1)):
            if q != r:
                key = tuple(sorted(head + (p,))) + ((q, r) if q < r else (r, q)) + tail
                sums[key] += v if q < r else -v
    pairs = defaultdict(int)
    for key, v in sums.items():
        v *= fk // multiset_count(key[:k])
        pairs[key] += v
        pairs[key[:k] + key[-2:] + key[-4:-2]] += v
    out = defaultdict(int)
    for key, v in pairs.items():
        for image, sign in _sign_images(key):
            head, (a, b, c, d) = image[:-4], image[-4:]
            for rot, w in (((a, b, c), 2 * sign), ((c, a, b), -sign), ((b, c, a), -sign)):
                if moved := _sign_representative(head + rot + (d,)):
                    out[moved[0]] += moved[1] * w * v
    return {key: v for key, v in out.items() if v}


def _extend(jet: CurvatureJet, h: SymPairTensor) -> CurvatureJet:
    """Extend a valid jet by the one valid level that symmetrizes to h.

    At k = 0 and 1 it is ``reconstruct_linear(h)``.  At level k >= 2 it is
    T = K + ``reconstruct_linear(h)`` + S', from the Ricci right sides
    rho_i = T - T.s_i (s_i swaps derivative slots i and i+1):

    * G = T - (T at sorted derivative slots) is 0 on sorted keys, and
      G[idx] = G[idx'] + rho_(j+1)[idx], where idx' swaps the first descent j;
    * K = G - Sym_D G, so T - K = Sym_D T lies in V (``_project_b2``),
      symmetrizes to h and has B2 (T - K) = beta = -B2 K, as B2 T = 0;
    * with u = P_V beta, S' = ((nu1 + nu2) u - P_V B2 u) / (nu1 nu2): B2 kills
      the component of V that ``reconstruct_linear`` reaches, and P_V B2
      acts on the other two by nu1 = (k+2)/k and nu2 = (k+3)/(2k).

    It runs on the integral dilation by t, on sign representatives, in ints,
    forming G only on the (sorted derivative slots, tail) groups that rho
    reaches.  With c = 24 k!, K~ = k! t^(k+2) K and u~ = P~ (-B2 K~),
    K + S' = (c^2 (k+2)(k+3) K~ + (3k+7) k c u~ - 2 k^2 P~ B2 u~)
    / (c^2 k! (k+2)(k+3) t^(k+2)), one exact division per entry.
    """
    space, k = jet.space, jet.order + 1
    top = reconstruct_linear(h)
    if k < 2:
        return CurvatureJet(space, jet.levels + [top])
    t, dilated = _integral_dilation(jet)
    padded = CurvatureJet(space, dilated.levels + [MultiTensor.zero(space, k + 4)])
    splits = [_sign_split(lv) for lv in dilated.levels] + [({}, {})]
    rho = [{idx: -v for idx, v in _ricci_parts(padded, splits, k, i)[0].items() if v}
           for i in range(1, k)]
    groups = defaultdict(set)
    for idx in itertools.chain(*rho):
        groups[tuple(sorted(idx[:k]))].add(idx[k:])
    fk = factorial(k)
    kt = {}
    for m, tails in groups.items():
        arrangements = _arrangements(m)
        for tail in tails:
            g = {m: 0}
            for a in arrangements[1:]:
                j = next(j for j in range(k - 1) if a[j] > a[j + 1])
                g[a] = g[a[:j] + (a[j + 1], a[j]) + a[j + 2:]] + rho[j].get(a + tail, 0)
            mean = fk // len(arrangements) * sum(g.values())
            kt.update((a + tail, fk * v - mean) for a, v in g.items())
    c = 24 * fk
    u = {key: -v for key, v in _project_b2(kt, k).items()}
    pu = _project_b2({a + key[k:]: v for key, v in u.items() for a in _arrangements(key[:k])}, k)
    num = {}
    for key in u.keys() | pu.keys():
        v = (3 * k + 7) * k * c * u.get(key, 0) - 2 * k * k * pu.get(key, 0)
        num.update((a + key[k:], v) for a in _arrangements(key[:k]))
    for key, v in kt.items():
        num[key] = num.get(key, 0) + c * c * (k + 2) * (k + 3) * v
    den = c * c * fk * (k + 2) * (k + 3) * t ** (k + 2)
    forced = _unfold({key: exact_quotient(v, den) for key, v in num.items() if v})
    return CurvatureJet(space, jet.levels + [top + MultiTensor(space, k + 4, forced)])


def jet_from_symjet(s: SymJet) -> CurvatureJet:
    """Curvature jet with the given symmetrization, one closed-form level at
    a time (``_extend``): the algebraic route, the oracle of the CLI's
    series route."""
    jet = CurvatureJet(s.space, [])
    for h in s.levels:
        jet = _extend(jet, h)
    return jet
