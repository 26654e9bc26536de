"""Curvature jets: validation, symmetrization, linear theory, extension.

Oracle jets come from differentiating actual metrics, so every identity
asserted here is checked against geometry rather than against the
module's own algebra.
"""

import functools
import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from jetiso.jets import (
    CurvatureJet,
    InvalidJetError,
    MultiTensor,
    SymJet,
    Violation,
    _canonical_curvature_index,
    _integral_dilation,
    _sign_split,
    _symmetrize_level,
    _worst_index,
    derivation_apply,
    hook_constant,
    jet_from_symjet,
    linear_jet_basis,
    reconstruct_linear,
    ricci_defect,
    symmetrize_component,
    symmetrize_jet,
    validate_jet,
    young_symmetrize,
)
from jetiso.metriclab import (
    const_curvature_jet,
    curvature_jet_at_origin,
    extend_jet,
    random_normal_metric,
    random_symjet,
)
from jetiso.tensor import (
    Space,
    SymPairTensor,
    _unfold,
    curvature_jet_dim_bound,
    is_gauge_tensor,
    pullback,
    random_signed_perm,
    sym_indices,
)

F = Fraction

E2 = Space(2, (1, 1))
E3 = Space(3, (1, 1, 1))
L3 = Space(3, (-1, 1, 1))


def oracle_jet(space, order, seed=0, bound=2):
    g = random_normal_metric(space, order + 2, random.Random(seed), coeff_bound=bound)
    return curvature_jet_at_origin(g, order)


def random_jet(space, order, rng):
    """A jet with random entries at about a third of the indices; invalid."""
    levels = []
    for level in range(order + 1):
        comps = {}
        for idx in itertools.product(range(space.n), repeat=level + 4):
            if rng.random() < 0.3:
                comps[idx] = F(rng.randint(-5, 5), rng.randint(1, 3))
        levels.append(MultiTensor(space, level + 4, comps))
    return CurvatureJet(space, levels)


def raised(t, terms):
    """A new tensor: t with the entry at each idx of ``terms`` raised by its value."""
    comps = dict(t.coeffs)
    for idx, v in terms:
        comps[idx] = comps.get(idx, 0) + v
    return MultiTensor(t.space, t.arity, comps)


def reference_ricci_defect(jet, level, i):
    """The Ricci exchange defect gathered index by index: for every output
    index, every split of the prefix slots and every free slot, the
    derivation term read off the lower levels directly."""
    space = jet.space
    n = space.n
    t = jet.levels[level]
    lhs = t - t.swapped(i - 1, i)

    p = i - 1
    q = level - i - 1
    rhs = {}
    prefix_positions = list(range(p))
    for idx in itertools.product(range(n), repeat=level + 4):
        prefix = idx[:p]
        xi, xj = idx[p], idx[p + 1]
        tail = idx[p + 2:]
        total = 0
        for r in range(p + 1):
            for subset in itertools.combinations(prefix_positions, r):
                v_i = tuple(prefix[s] for s in subset)
                v_j = tuple(prefix[s] for s in prefix_positions if s not in subset)
                a_level = jet.levels[r]
                u_level = jet.levels[len(v_j) + q]
                # derivation action on the q + 4 free slots of u_level,
                # with the v_j block frozen
                base = v_j + tail
                for s in range(q + 4):
                    pos = len(v_j) + s
                    js = base[pos]
                    for m in range(n):
                        a = a_level.get(v_i + (xi, xj, js, m))
                        if a:
                            new = base[:pos] + (m,) + base[pos + 1:]
                            total -= space.eps(m) * a * u_level.get(new)
        rhs[idx] = total
    return lhs - MultiTensor(space, level + 4, rhs)


def padded_jet(t):
    """The jet (0, ..., 0, T) of a linear jet component T."""
    return CurvatureJet(t.space, CurvatureJet.zero(t.space, t.arity - 5).levels + [t])


def reference_cyclic_sum(t, a):
    """Sum of t over the cyclic permutations of slots a, a+1, a+2, on full dicts."""
    cyc = list(range(t.arity))
    cyc[a:a + 3] = [a + 1, a + 2, a]
    cyc2 = list(range(t.arity))
    cyc2[a:a + 3] = [a + 2, a, a + 1]
    return t + t.permuted(cyc) + t.permuted(cyc2)


def reference_violations(defects):
    """The violations of (level, identity, slots, defect) records with a nonzero defect."""
    return [Violation(level, identity, slots, *_worst_index(defect))
            for level, identity, slots, defect in defects if not defect.is_zero()]


def reference_block_defects(t, level):
    """The curvature-block identities of one level, each defect built in full."""
    k = t.arity - 4
    sigma = list(range(k)) + [k + 2, k + 3, k, k + 1]
    return [(level, "antisymmetry", (k + 1, k + 2), t + t.swapped(k, k + 1)),
            (level, "antisymmetry", (k + 3, k + 4), t + t.swapped(k + 2, k + 3)),
            (level, "pair_symmetry", (k + 1, k + 3), t - t.permuted(sigma)),
            (level, "bianchi1", (k + 1, k + 2, k + 3), reference_cyclic_sum(t, k))]


def reference_linear_violations(t, k):
    """The identities of the jet (0, ..., 0, t) read off t alone: the
    curvature block, the plain exchange of adjacent derivative slots (the
    Ricci right side is built from the zero lower levels) and the cyclic
    second Bianchi sum."""
    defects = reference_block_defects(t, k)
    defects += [(k, "ricci", (i + 1, i + 2), t - t.swapped(i, i + 1)) for i in range(k - 1)]
    if k >= 1:
        defects.append((k, "bianchi2", (k, k + 1, k + 2), reference_cyclic_sum(t, k - 1)))
    return reference_violations(defects)


def by_identity(violations):
    return sorted(violations, key=lambda v: (v.level, v.identity, v.slots))


class TestMultiTensor:
    def test_permuted_semantics(self):
        t = MultiTensor(E2, 2, {(0, 1): F(5)})
        # sigma = (1, 0): out[idx] = t[idx reversed]
        s = t.permuted((1, 0))
        assert s.get((1, 0)) == 5
        assert s.get((0, 1)) == 0

    def test_permuted_below_two_slots_is_a_copy(self):
        for arity, idx in ((0, ()), (1, (2,))):
            t = MultiTensor(E3, arity, {idx: F(-4, 3)})
            s = t.permuted(tuple(range(arity)))
            assert s == t and s.coeffs is not t.coeffs
            assert list(s.coeffs) == [idx]

    def test_swap_involution(self):
        rng = random.Random(1)
        t = MultiTensor(E3, 3, {idx: F(rng.randint(-5, 5))
                                for idx in itertools.product(range(3), repeat=3)})
        assert t.swapped(0, 2).swapped(0, 2) == t

    def test_json_round_trip(self):
        t = MultiTensor(L3, 2, {(0, 2): F(-7, 3)})
        assert MultiTensor.from_json_obj(t.to_json_obj()) == t

    def test_json_rejects_bad_index(self):
        for idx in ([0, 5], [0, -1], [0, 1.0], [0]):
            obj = {"n": 2, "signature": [1, 1], "arity": 2,
                   "components": [{"idx": idx, "value": "1"}]}
            with pytest.raises(ValueError):
                MultiTensor.from_json_obj(obj)

    def test_zero_components_are_not_stored(self):
        t = MultiTensor.zero(E2, 2)
        assert t.get((1, 0)) == 0
        t = MultiTensor(E2, 2, {(1, 0): F(3), (0, 1): 0})
        assert t.coeffs == {(1, 0): 3}
        t = MultiTensor(E2, 2, {(1, 0): F(0)})
        assert t.coeffs == {} and t.is_zero()


class TestValidation:
    def test_oracle_jets_clean(self):
        for space in (E2, E3, L3):
            jet = oracle_jet(space, 3, seed=space.n)
            assert validate_jet(jet) == []

    def test_violation_format(self):
        v = Violation(2, "ricci", (1, 2), (0, 1, 0, 2, 1, 0), Fraction(-3, 4), 5)
        assert str(v) == ("level=2 identity=ricci slots=(1,2) max_violation_at=[0, 1, 0, 2, 1, 0] "
                          "value=-3/4 nonzero=5")
        v = Violation(0, "bianchi1", (1, 2, 3), (0, 1, 0, 1), 2, 1)
        assert str(v).endswith(" max_violation_at=[0, 1, 0, 1] value=2 nonzero=1")

    def test_broken_antisymmetry_reported(self):
        jet = oracle_jet(E2, 1, seed=3)
        jet.levels[0] = raised(jet.levels[0], [((0, 0, 0, 1), 1)])
        found = validate_jet(jet)
        assert found
        names = {v.identity for v in found}
        assert "antisymmetry" in names
        pattern = re.compile(
            r"^level=\d+ identity=[a-z_0-9]+ slots=\(\d+(,\d+)*\) "
            r"max_violation_at=\[\d+(, \d+)*\] value=-?[1-9]\d*(/[1-9]\d*)? nonzero=[1-9]\d*$"
        )
        for v in found:
            assert pattern.match(str(v)), str(v)
        (anti,) = [v for v in found if v.identity == "antisymmetry" and v.slots == (1, 2)]
        assert anti.at == (0, 0, 0, 1)
        assert anti.value == 2 and anti.nonzero == 1

    def test_broken_second_bianchi_reported(self):
        # e_2 tensor W is curvature-shaped slotwise but fails the cyclic
        # derivative identity, so only bianchi2 should fire
        jet = oracle_jet(E3, 1, seed=4)
        w = {(0, 1, 0, 1): 1, (1, 0, 0, 1): -1, (0, 1, 1, 0): -1, (1, 0, 1, 0): 1}
        jet.levels[1] = raised(jet.levels[1], [((2,) + abcd, v) for abcd, v in w.items()])
        found = validate_jet(jet)
        assert found and {v.identity for v in found} == {"bianchi2"}

    def test_top_level_linear_freedom(self):
        # adding a linear component to the top level preserves validity
        jet = oracle_jet(E2, 1, seed=5)
        for b in linear_jet_basis(E2, 1):
            jet.levels[1] = jet.levels[1] + b
            break
        assert validate_jet(jet) == []

    def test_ricci_defect_vanishes_on_oracles(self):
        for space in (E2, L3):
            jet = oracle_jet(space, 3, seed=7)
            for level in (2, 3):
                for i in range(1, level):
                    assert ricci_defect(jet, level, i).is_zero()

    def test_ricci_defect_slot_range(self):
        jet = oracle_jet(E2, 2, seed=8)
        with pytest.raises(ValueError):
            ricci_defect(jet, 2, 0)
        with pytest.raises(ValueError):
            ricci_defect(jet, 2, 2)

    def test_level2_exchange_via_derivation(self):
        # independent statement of the level-2 identity: the exchange
        # defect of the two derivative slots is the curvature operator
        # acting as a derivation on the bare curvature tensor
        space = L3
        jet = oracle_jet(space, 2, seed=9)
        t0, t2 = jet.levels[0], jet.levels[2]
        n = space.n
        for x1 in range(n):
            for x2 in range(n):
                form = MultiTensor(space, 2, {(z, w): t0.get((x1, x2, z, w))
                                              for z in range(n) for w in range(n)})
                rhs = derivation_apply(form, t0)
                for rest in itertools.product(range(n), repeat=4):
                    lhs = t2.get((x1, x2) + rest) - t2.get((x2, x1) + rest)
                    assert lhs == rhs.get(rest)


class TestLinearComponentValidation:
    """``validate_jet`` on the jet (0, ..., 0, T) of a linear component
    reports what ``reference_linear_violations`` reads off T."""

    def test_wrong_arity(self):
        with pytest.raises(ValueError, match="level 0 has arity 3, expected 4"):
            CurvatureJet(E2, [MultiTensor.zero(E2, 3)])
        with pytest.raises(ValueError, match="level 1 has arity 4, expected 5"):
            CurvatureJet(E2, [MultiTensor.zero(E2, 4), MultiTensor.zero(E2, 4)])

    @pytest.mark.parametrize("identity", ["antisymmetry", "pair_symmetry", "bianchi1",
                                          "bianchi2", "ricci"])
    def test_each_identity_reported(self, identity):
        # the first unit bump of a basis element, in index order, that breaks it
        b = linear_jet_basis(E3, 2)[0]
        for idx in b.iter_indices():
            t = b + MultiTensor(E3, 6, {idx: 1})
            want = reference_linear_violations(t, 2)
            if identity in {v.identity for v in want}:
                break
        got = validate_jet(padded_jet(t))
        assert identity in {v.identity for v in got}
        assert by_identity(got) == by_identity(want)

    @pytest.mark.parametrize("space", [E2, Space(2, (-1, 1)), E3, L3],
                             ids=["e2", "l2", "e3", "l3"])
    def test_matches_reference_on_perturbed_components(self, space):
        rng = random.Random(space.n * 10 + space.signature[0])
        for k in (0, 1, 2):
            basis = linear_jet_basis(space, k)
            for _ in range(4):
                t = rng.choice(basis)
                for _ in range(rng.randint(1, 3)):
                    idx = tuple(rng.randrange(space.n) for _ in range(k + 4))
                    value = F(rng.randint(-3, 3), rng.randint(1, 3))
                    t = t + MultiTensor(space, k + 4, {idx: value})
                got = validate_jet(padded_jet(t))
                assert by_identity(got) == by_identity(reference_linear_violations(t, k))


class TestRicciReference:
    """``ricci_defect`` against the index-by-index gather on jets whose
    defects are nonzero, at every level and slot pair."""

    @pytest.mark.parametrize("space,order,seed", [
        (E2, 5, 1), (Space(2, (-1, 1)), 5, 2), (L3, 3, 3),
    ], ids=["e2", "l2", "l3"])
    def test_ricci_defect_matches_reference_on_invalid_jets(self, space, order, seed):
        jet = random_jet(space, order, random.Random(seed))
        nonzero = 0
        for level in range(2, order + 1):
            for i in range(1, level):
                defect = ricci_defect(jet, level, i)
                assert defect == reference_ricci_defect(jet, level, i), (level, i)
                nonzero += not defect.is_zero()
        assert nonzero > 0


def reference_defects(jet):
    """Every identity ``validate_jet`` checks, in its order, with its defect
    built in full in this module from the jet's own entries (no dilation)."""
    out = []
    for level, t in enumerate(jet.levels):
        out += reference_block_defects(t, level)
        if level >= 1:
            out.append((level, "bianchi2", (level, level + 1, level + 2),
                        reference_cyclic_sum(t, level - 1)))
        out += [(level, "ricci", (i, i + 1), reference_ricci_defect(jet, level, i))
                for i in range(1, level)]
    return out


def reference_validate_jet(jet):
    return reference_violations(reference_defects(jet))


def dilated(jet, t):
    """The jet under x -> t x: level l scaled by t**(l+2)."""
    return CurvatureJet(jet.space, [lv.scaled(F(t) ** (l + 2))
                                    for l, lv in enumerate(jet.levels)])


@functools.lru_cache(maxsize=None)
def mixed_denominator_jet(space, order, seed, bump=None):
    """A valid jet whose symmetrized levels are a seeded random symjet's,
    divided by 1, 2, 3, 5, 7; with ``bump``, one seeded nonzero entry of a
    level below order - 1 is raised by it, which breaks the jet.  Cached:
    callers must not change the jet."""
    s = random_symjet(space, order, random.Random(seed))
    s = SymJet(space, [h.scaled(F(1, d)) for h, d in zip(s.levels, (1, 2, 3, 5, 7))])
    jet = jet_from_symjet(s)
    if bump is not None:
        rng = random.Random(seed)
        level = rng.randrange(order - 1)
        idx = rng.choice(sorted(jet.levels[level].coeffs))
        jet.levels[level] = raised(jet.levels[level], [(idx, bump)])
    return jet


DILATION_SPACES = {"e2": (E2, 4, 1), "l2": (Space(2, (-1, 1)), 4, 2),
                   "e3": (E3, 3, 3), "l3": (L3, 3, 4)}
DILATION_BUMPS = {"valid": None, "bump1_7": F(1, 7), "bump1": 1}
DILATION_CASES = [pytest.param(*DILATION_SPACES[s], DILATION_BUMPS[b], id=f"{s}-{b}")
                  for s in DILATION_SPACES for b in DILATION_BUMPS]


class TestIntegralDilation:
    """``validate_jet`` checks the jet dilated to integer entries and scales
    each defect back; the undilated checks are the oracle."""

    @pytest.mark.parametrize("space,order,seed,bump", DILATION_CASES)
    def test_matches_undilated_checks(self, space, order, seed, bump):
        jet = mixed_denominator_jet(space, order, seed, bump)
        found = [str(v) for v in validate_jet(jet)]
        assert found == [str(v) for v in reference_validate_jet(jet)]
        if bump is None:
            assert found == []
        else:
            assert any(" identity=ricci " in v for v in found)

    @pytest.mark.parametrize("space,order,seed,bump", DILATION_CASES)
    def test_dilation_scales_only_the_values(self, space, order, seed, bump):
        jet = mixed_denominator_jet(space, order, seed, bump)
        base = validate_jet(jet)
        for t in (F(1, 2), F(2, 3), F(3)):
            found = validate_jet(dilated(jet, t))
            assert len(found) == len(base)
            for v, w in zip(base, found):
                assert (w.level, w.identity, w.slots, w.at, w.nonzero) == \
                    (v.level, v.identity, v.slots, v.at, v.nonzero)
                assert w.value == v.value * t ** (v.level + 2)

    @pytest.mark.parametrize("space,order,seed,bump", DILATION_CASES)
    def test_entries_become_ints(self, space, order, seed, bump):
        jet = mixed_denominator_jet(space, order, seed, bump)
        t, int_jet = _integral_dilation(jet)
        assert t > 1
        assert all(type(v) is int for lv in int_jet.levels for v in lv.coeffs.values())
        assert int_jet == dilated(jet, t)


def orbit_bumped_jet(name, level, bump):
    """The valid jet ``mixed_denominator_jet`` of ``DILATION_SPACES[name]``
    with the four sign images (a,b,c,d), (b,a,c,d), (a,b,d,c), (b,a,d,c) of
    one seeded stored component of ``level``, a < b and c < d, raised by
    bump, -bump, -bump, bump.  Both antisymmetries still hold."""
    space, order, seed = DILATION_SPACES[name]
    levels = list(mixed_denominator_jet(space, order, seed).levels)
    t = levels[level]
    rng = random.Random(f"orbit:{seed}:{level}")
    idx = rng.choice(sorted(i for i in t.coeffs if i[-4] < i[-3] and i[-2] < i[-1]))
    head, (a, b, c, d) = idx[:-4], idx[-4:]
    orbit = (((a, b, c, d), 1), ((b, a, c, d), -1), ((a, b, d, c), -1), ((b, a, d, c), 1))
    levels[level] = raised(t, [(head + abcd, sign * bump) for abcd, sign in orbit])
    return CurvatureJet(space, levels)


ORBIT_BUMPS = {"bump1_7": F(1, 7), "bump1": 1, "bump-2": -2}


class TestSignConsistentMutations:
    """Bumps of a whole sign orbit keep the level antisymmetric, so only the
    tests on sign representatives can see them; the oracle builds every
    defect in full."""

    @pytest.mark.parametrize("bump", list(ORBIT_BUMPS.values()), ids=list(ORBIT_BUMPS))
    @pytest.mark.parametrize("name", sorted(DILATION_SPACES))
    def test_matches_full_defects(self, name, bump):
        order = DILATION_SPACES[name][1]
        for level in range(order + 1):
            jet = orbit_bumped_jet(name, level, bump)
            defects = reference_defects(jet)
            found = [str(v) for v in validate_jet(jet)]
            assert found == [str(v) for v in reference_violations(defects)], level
            # a top-level bump may be a linear jet component, which is valid
            assert not any(" identity=antisymmetry " in v for v in found)
            for top, identity, slots, defect in defects:
                if identity == "ricci":
                    assert ricci_defect(jet, top, slots[0]) == defect, (level, top, slots)

    def test_every_representative_check_reports(self):
        reported = set()
        for name, (_, order, _) in DILATION_SPACES.items():
            for bump in ORBIT_BUMPS.values():
                for level in range(order + 1):
                    reported.update(v.identity for v in validate_jet(orbit_bumped_jet(name, level, bump)))
        assert reported == {"pair_symmetry", "bianchi1", "bianchi2", "ricci"}

    def test_split_sends_a_broken_orbit_to_rest(self):
        t = mixed_denominator_jet(E3, 3, 3).levels[2]
        reps, rest = _sign_split(t)
        assert rest == {} and 4 * len(reps) == len(t.coeffs)
        assert all(i[-4] < i[-3] and i[-2] < i[-1] for i in reps)
        idx = sorted(reps)[0]
        head, (a, b, c, d) = idx[:-4], idx[-4:]
        diagonal = head + (a, a, c, d)
        broken = MultiTensor(E3, t.arity, {**t.coeffs, head + (b, a, d, c): 0, diagonal: 1})
        reps, rest = _sign_split(broken)
        orbit = {head + abcd for abcd in ((a, b, c, d), (b, a, c, d), (a, b, d, c))}
        assert set(rest) == orbit | {diagonal}
        assert idx not in reps and 4 * len(reps) == len(broken.coeffs) - len(rest)

    @pytest.mark.parametrize("space,order", [(E3, 3), (L3, 3), (Space(4, (1, 1, 1, 1)), 2),
                                             (Space(4, (-1, 1, 1, 1)), 2)],
                             ids=["e3", "l3", "e4", "l4"])
    def test_unfold_inverts_the_split(self, space, order):
        for t in oracle_jet(space, order, seed=29).levels:
            reps, rest = _sign_split(t)
            assert rest == {} and _unfold(reps) == t.coeffs

    def test_unfold_skips_zeros(self):
        assert _unfold({(0, 1, 0, 1): 0}) == {}


class TestSymmetrize:
    def test_constant_curvature_concentrates(self):
        s = symmetrize_jet(const_curvature_jet(E3, F(1), 2))
        jet = jet_from_symjet(s)
        back = symmetrize_jet(jet)
        assert back.levels[0] == s.levels[0]
        for level in (1, 2):
            assert back.levels[level].is_zero()

    def test_levels_are_gauge(self):
        for space in (E2, L3):
            jet = oracle_jet(space, 3, seed=10)
            s = symmetrize_jet(jet)
            for h in s.levels:
                assert is_gauge_tensor(h)

    def test_equivariance(self):
        rng = random.Random(11)
        jet = oracle_jet(L3, 2, seed=11)
        for _ in range(3):
            g = random_signed_perm(L3, rng)
            lhs = symmetrize_jet(jet.pullback(g))
            rhs = symmetrize_jet(jet).pullback(g)
            assert all(a == b for a, b in zip(lhs.levels, rhs.levels))


def reference_symmetrize_level(t, level):
    """Total symmetrization gathered key by key: for every multiset and
    pair, the average of t over the distinct arrangements of the multiset
    and both orders of the pair."""
    space = t.space
    n = space.n
    m = level + 2
    comps = {}
    for sym in sym_indices(n, m):
        arrangements = sorted(set(itertools.permutations(sym)))
        for pair in sym_indices(n, 2):
            p, q = pair
            total = 0
            for arr in arrangements:
                idx = arr[:level] + (p,) + arr[level:] + (q,)
                idx_t = arr[:level] + (q,) + arr[level:] + (p,)
                total += t.get(idx) + t.get(idx_t)
            if total:
                comps[(sym, pair)] = Fraction(total, 2 * len(arrangements))
    return SymPairTensor(space, m, comps)


SYMMETRIZE_SPACES = {"e2": (E2, 3), "l2": (Space(2, (-1, 1)), 3), "e3": (E3, 3), "l3": (L3, 3),
                     "e4": (Space(4, (1, 1, 1, 1)), 2), "l4": (Space(4, (-1, 1, 1, 1)), 2)}


class TestSymmetrizeReference:
    """The scatter ``_symmetrize_level`` against the gather over
    arrangements, on seeded valid jets and on the same jets with one
    component of each level raised by 1/7, which are not symmetric."""

    @pytest.mark.parametrize("bump", [None, F(1, 7)], ids=["valid", "bump1_7"])
    @pytest.mark.parametrize("name", sorted(SYMMETRIZE_SPACES))
    def test_scatter_matches_gather(self, name, bump):
        space, order = SYMMETRIZE_SPACES[name]
        seed = 80 + space.n + order
        jet = jet_from_symjet(random_symjet(space, order, random.Random(seed)))
        rng = random.Random(seed)
        for level, t in enumerate(jet.levels):
            if bump is not None:
                t = raised(t, [(rng.choice(sorted(t.coeffs)), bump)])
            got = _symmetrize_level(t, level)
            assert got.to_json_obj() == reference_symmetrize_level(t, level).to_json_obj()
            assert not got.is_zero()
            assert is_gauge_tensor(got) == (bump is None), level


def enumerated_curvature_class(idx, k):
    """The least of the eight images of idx under the sign group of its
    last four slots, with its sign, or None when two images of one tuple
    carry opposite signs: the oracle of ``_canonical_curvature_index``."""
    lead = idx[:k]
    a, b, c, d = idx[k:]
    seen = {}
    for (p, q, s1) in ((a, b, 1), (b, a, -1)):
        for (r, t, s2) in ((c, d, 1), (d, c, -1)):
            for blocks in ((p, q, r, t), (r, t, p, q)):
                cand = lead + blocks
                if seen.setdefault(cand, s1 * s2) != s1 * s2:
                    return None
    best = min(seen)
    return best, seen[best]


class TestLinearTheory:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_canonical_class_matches_enumeration(self, k):
        for idx in itertools.product(range(3), repeat=k + 4):
            assert _canonical_curvature_index(idx) == enumerated_curvature_class(idx, k), idx

    @pytest.mark.parametrize("n,k", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2)])
    def test_basis_size_matches_bound(self, n, k):
        space = Space(n, (1,) * n)
        basis = linear_jet_basis(space, k)
        assert len(basis) == curvature_jet_dim_bound(n, k)

    def test_basis_elements_validate(self):
        for k in (0, 1, 2):
            for b in linear_jet_basis(E2, k):
                assert validate_jet(padded_jet(b)) == []

    @pytest.mark.parametrize("space", [E2, E3, L3], ids=["e2", "e3", "l3"])
    def test_reconstruction_identity(self, space):
        for k in (0, 1, 2):
            for b in linear_jet_basis(space, k):
                s = symmetrize_component(b)
                assert reconstruct_linear(s) == b

    def test_reconstruction_other_direction(self):
        # starting from a gauge tensor: symmetrize(reconstruct(s)) == s
        from jetiso.tensor import gauge_basis

        rng = random.Random(13)
        for space in (E2, L3):
            for k in (0, 1, 2):
                from jetiso.tensor import SymPairTensor

                s = SymPairTensor(space, k + 2)
                for h in gauge_basis(space, k + 2):
                    s = s + h.scaled(F(rng.randint(-3, 3)))
                assert symmetrize_component(reconstruct_linear(s)) == s

    def test_hook_constants(self):
        assert [hook_constant(k) for k in range(4)] == [12, 24, 80, 360]

    def test_young_eigenvalue_on_basis(self):
        for space in (E2, E3):
            for k in (0, 1, 2):
                c = hook_constant(k)
                for b in linear_jet_basis(space, k):
                    assert young_symmetrize(b) == b.scaled(c)

    def test_young_eigenvalue_on_low_jet_levels(self):
        # levels 0 and 1 of a genuine jet are themselves linear components
        jet = oracle_jet(E3, 1, seed=17)
        for k in (0, 1):
            t = jet.levels[k]
            assert young_symmetrize(t) == t.scaled(hook_constant(k))

    def test_membership_is_validation(self):
        # an integer combination of the basis is a linear jet component
        rng = random.Random(19)
        t = MultiTensor.zero(E3, 5)
        for b in linear_jet_basis(E3, 1):
            t = t + b.scaled(rng.randint(-4, 4))
        assert not t.is_zero()
        assert validate_jet(padded_jet(t)) == []
        # something outside the span: break antisymmetry
        t = t + MultiTensor(E3, 5, {(0, 0, 0, 0, 0): 1})
        assert "antisymmetry" in {v.identity for v in validate_jet(padded_jet(t))}


class TestExtension:
    @pytest.mark.parametrize("space", [E2, E3], ids=["e2", "e3"])
    def test_routes_agree_up_to_linear_span(self, space):
        for order in (0, 1):
            g = random_normal_metric(space, order + 2, random.Random(23 + order),
                                     coeff_bound=2)
            jet = curvature_jet_at_origin(g, order)
            ext = extend_jet(jet)
            assert ext.order == order + 1
            assert validate_jet(ext) == []
            for level in range(order + 1):
                assert ext.levels[level] == jet.levels[level]
            # equal to the algebraic route's solve of the symmetrized jet
            # padded with a zero top level
            s = symmetrize_jet(jet)
            padded = SymJet(space, s.levels + [SymPairTensor.zero(space, order + 3)])
            assert ext == jet_from_symjet(padded)
            # the source metric's own jet extends it too, up to a linear component
            own = curvature_jet_at_origin(g, order + 1)
            diff = own.levels[order + 1] - ext.levels[order + 1]
            assert validate_jet(padded_jet(diff)) == []

    def test_invalid_jet_raises_with_its_violations(self):
        jet = oracle_jet(E2, 1, seed=3)
        jet.levels[0] = MultiTensor(E2, 4, {**jet.levels[0].coeffs, (0, 0, 0, 1): 1})
        violations = validate_jet(jet)
        assert violations
        for call in (extend_jet, symmetrize_jet):
            with pytest.raises(InvalidJetError) as info:
                call(jet)
            assert info.value.violations == violations
            assert str(info.value) == "invalid jet: " + "; ".join(map(str, violations))

    def test_extension_restricts_to_truncation(self):
        jet = oracle_jet(E2, 2, seed=29)
        ext = extend_jet(jet.truncated(1))
        for level in range(2):
            assert ext.levels[level] == jet.levels[level]


    def test_non_gauge_level_names_its_degree(self):
        s = random_symjet(E2, 1, random.Random(47))
        bad = s.levels[0] + SymPairTensor(E2, 2, {((0, 0), (0, 1)): F(1)})
        assert not is_gauge_tensor(bad)
        with pytest.raises(ValueError, match="degree 2 is not a gauge tensor"):
            jet_from_symjet(SymJet(E2, [bad, s.levels[1]]))


class TestLayering:
    def test_conversions_do_not_load_metriclab(self):
        import jetiso

        code = (
            "import sys\n"
            "from jetiso.jets import SymJet, jet_from_symjet\n"
            "from jetiso.tensor import Space, SymPairTensor, gauge_basis\n"
            "space = Space(3, (-1, 1, 1))\n"
            "s = SymJet(space, [gauge_basis(space, 2)[0], gauge_basis(space, 3)[0],\n"
            "                   SymPairTensor.zero(space, 4)])\n"
            "jet = jet_from_symjet(s)\n"
            "assert jet.order == 2 and not jet.levels[0].is_zero()\n"
            "assert 'jetiso.metriclab' not in sys.modules, 'metriclab was imported'\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(jetiso.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestPinnedOutputs:
    """Exact outputs of the Bianchi-system solves, pinned by digest.

    Property tests (valid, spans, counts) accept any basis or particular
    solution; these digests catch a change in which one comes out.
    """

    def test_basis_and_extension_digest(self):
        h = hashlib.sha256()
        for n in (2, 3):
            for signature in ((1,) * n, (-1,) + (1,) * (n - 1)):
                space = Space(n, signature)
                for k in (0, 1, 2):
                    for b in linear_jet_basis(space, k):
                        h.update(json.dumps(b.to_json_obj(), sort_keys=True).encode())
                for order in (0, 1):
                    s = random_symjet(space, order, random.Random(71 + 10 * n + order))
                    # the extension by the solve: a zero top level
                    padded = SymJet(space, s.levels + [SymPairTensor.zero(space, order + 3)])
                    ext = jet_from_symjet(padded)
                    h.update(json.dumps(ext.to_json_obj(), sort_keys=True).encode())
        assert h.hexdigest() == "dbd0d023e597eda4cff44a80ee8278f6a0d08b1ed2937b746aefdf52cabe3993"


class TestEquivariance:
    def test_transformed_jets_stay_valid(self):
        rng = random.Random(31)
        for space in (E3, L3):
            jet = oracle_jet(space, 2, seed=37)
            for _ in range(3):
                g = random_signed_perm(space, rng)
                assert validate_jet(jet.pullback(g)) == []

    def test_multi_tensor_action_composition(self):
        rng = random.Random(41)
        t = oracle_jet(L3, 1, seed=43).levels[1]
        g = random_signed_perm(L3, rng)
        h = random_signed_perm(L3, rng)
        assert pullback(pullback(t, h), g) == pullback(t, g.compose(h))

    def test_pair_and_multi_actions_commute_with_symmetrize(self):
        rng = random.Random(47)
        jet = oracle_jet(E3, 1, seed=53)
        t = jet.levels[1]
        g = random_signed_perm(E3, rng)
        assert symmetrize_component(pullback(t, g)) == pullback(symmetrize_component(t), g)


class TestJetContainers:
    def test_truncated(self):
        jet = oracle_jet(E2, 2, seed=59)
        tr = jet.truncated(1)
        assert tr.order == 1
        assert tr.levels[0] == jet.levels[0]
        with pytest.raises(ValueError):
            jet.truncated(3)

    def test_jet_json_round_trip(self):
        jet = oracle_jet(L3, 2, seed=61)
        assert CurvatureJet.from_json_obj(jet.to_json_obj()) == jet

    def test_symjet_json_round_trip(self):
        s = symmetrize_jet(oracle_jet(E3, 2, seed=67))
        assert SymJet.from_json_obj(s.to_json_obj()) == s

    def test_jet_kinds_never_equal(self):
        assert CurvatureJet(E2, []) != SymJet(E2, [])
        assert SymJet(E2, []) != CurvatureJet(E2, [])
        assert CurvatureJet.zero(E2, 1) != SymJet.zero(E2, 1)
        assert CurvatureJet(E2, []) == CurvatureJet(E2, [])

    def test_level_type_checked(self):
        with pytest.raises(ValueError, match="level 0 is not a MultiTensor"):
            CurvatureJet(E2, [SymPairTensor.zero(E2, 4)])
        with pytest.raises(ValueError, match="level 0 is not a SymPairTensor"):
            SymJet(E2, [SymPairTensor.zero(E3, 2)])

    @pytest.mark.parametrize("kind,edit,message", [
        ("jet", lambda d: d["levels"][1].update(arity=4), "level 1 has arity 4, expected 5"),
        ("symjet", lambda d: d["levels"][1].update(degree=2), "level 1 has degree 2, expected 3"),
        ("jet", lambda d: d.update(order=2), "order does not match the number of levels"),
        ("symjet", lambda d: d.update(order=0), "order does not match the number of levels"),
        ("jet", lambda d: d["levels"][1]["components"][0].update(idx=[0, 1, 2, 0, 1]),
         "bad component index (0, 1, 2, 0, 1)"),
        ("symjet", lambda d: d["levels"][1]["components"][0].update(sym=[0, 7]),
         "bad component index sym=[0, 7] pair="),
    ])
    def test_loader_messages(self, kind, edit, message):
        jet = oracle_jet(E2, 1, seed=71)
        obj = (jet if kind == "jet" else symmetrize_jet(jet)).to_json_obj()
        edit(obj)
        cls = CurvatureJet if kind == "jet" else SymJet
        with pytest.raises(ValueError) as info:
            cls.from_json_obj(obj)
        assert str(info.value).startswith(message)
