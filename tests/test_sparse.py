"""The linear structure that Poly, FreeElement, SymPairTensor, PolyEnd and
MultiTensor share through ``poly.Sparse``: sums, negatives, scalar
multiples, equality and hashing, each checked on seeded inputs of all
five types.
"""

import random
from fractions import Fraction

import pytest

from jetiso.freealg import FreeElement
from jetiso.poly import Poly, Sparse, _graded, _graded_mul_into
from jetiso.tensor import MultiTensor, PolyEnd, Space, SymPairTensor, pair_matrix, sym_indices

E3 = Space(3, (1, 1, 1))
L3 = Space(3, (-1, 1, 1))

SEEDS = range(4)


def _rational(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def multiset(exponents):
    """The monomial key (sorted variable indices) of an exponent vector."""
    return tuple(i for i, e in enumerate(exponents) for _ in range(e))


def exponents(mono, n):
    """The exponent vector of a monomial key."""
    return tuple(mono.count(i) for i in range(n))


def random_poly(rng, n=3, max_deg=3, terms=6):
    return Poly(n, {multiset(rng.randrange(max_deg + 1) for _ in range(n)): _rational(rng)
                    for _ in range(terms)})


def random_free(rng):
    words = [tuple(rng.randint(2, 4) for _ in range(rng.randint(0, 3))) for _ in range(6)]
    return FreeElement({w: _rational(rng) for w in words})


def random_sym_pair(rng, space=L3, k=2):
    keys = [(sym, pair) for sym in sym_indices(space.n, k) for pair in sym_indices(space.n, 2)]
    return SymPairTensor(space, k, {key: _rational(rng) for key in rng.sample(keys, 8)})


def random_end(rng, space=L3):
    n = space.n
    return PolyEnd(space, {(rng.randrange(n), rng.randrange(n)): random_poly(rng, n)
                           for _ in range(5)})


def random_multi(rng, space=L3, arity=3):
    n = space.n
    return MultiTensor(space, arity, {tuple(rng.randrange(n) for _ in range(arity)): _rational(rng)
                                      for _ in range(8)})


MAKERS = {
    "poly": random_poly,
    "free": random_free,
    "sympair": random_sym_pair,
    "end": random_end,
    "multi": random_multi,
}


# the fields beyond ``coeffs`` that every operation must carry over
SHAPE = {
    Poly: lambda x: x.n,
    FreeElement: lambda x: (),
    SymPairTensor: lambda x: (x.space, x.k),
    PolyEnd: lambda x: x.space,
    MultiTensor: lambda x: (x.space, x.arity),
}


@pytest.fixture(params=sorted(MAKERS))
def pair(request):
    """Seeded (a, b) pairs of one type."""
    make = MAKERS[request.param]
    out = []
    for seed in SEEDS:
        rng = random.Random(seed)
        out.append((make(rng), make(rng)))
    return out


class TestLinearStructure:
    def test_inputs_are_nonzero(self, pair):
        for a, b in pair:
            assert isinstance(a, Sparse) and a and b

    def test_additive_inverse(self, pair):
        for a, _ in pair:
            z = a + (-a)
            assert z.is_zero() and not z and z.coeffs == {}
            assert a - a == z

    def test_sub_then_add(self, pair):
        for a, b in pair:
            assert (a - b) + b == a
            assert a + b == b + a

    def test_scaled_by_zero(self, pair):
        for a, _ in pair:
            z = a.scaled(0)
            assert z.is_zero() and z.coeffs == {}
            assert (0 * a).is_zero()

    def test_integer_multiple(self, pair):
        for a, _ in pair:
            assert 2 * a == a + a
            assert Fraction(1, 2) * (2 * a) == a
            assert -a == (-1) * a

    def test_equal_objects_hash_equal(self, pair):
        for a, b in pair:
            c = (a + b) - b
            assert c == a and c is not a
            assert hash(c) == hash(a)
            assert len({a, c}) == 1

    def test_shape_survives(self, pair):
        for a, b in pair:
            for result in (a + b, -a, a - b, a.scaled(3), 2 * a, a + (-a), a.scaled(0)):
                assert type(result) is type(a)
                assert SHAPE[type(a)](result) == SHAPE[type(a)](a)

    def test_no_stored_zeros(self, pair):
        for a, b in pair:
            for result in (a + b, a - b, a.scaled(Fraction(-2, 3))):
                assert all(result.coeffs.values())


class TestTruncatedProduct:
    """``Poly.mul(b, t)`` multiplies only the degree groups within the cut,
    so it must equal the full product cut afterwards."""

    def test_equals_full_product_truncated(self):
        for seed in SEEDS:
            rng = random.Random(seed)
            a = random_poly(rng, max_deg=4, terms=10)
            b = random_poly(rng, max_deg=4, terms=10)
            assert len({len(m) for m in a.coeffs}) > 1 and len({len(m) for m in b.coeffs}) > 1
            n = a.n
            zero, const = Poly.zero(n), Poly.const(n, Fraction(-3, 2))
            for x, y in ((a, b), (b, a), (a, a), (a, a.scaled(-1)), (a, zero), (zero, b),
                         (zero, zero), (a, const), (const, b), (const, const)):
                full = x.mul(y)
                for t in range(-1, x.degree() + y.degree() + 2):
                    assert x.mul(y, t) == full.truncated(t), (seed, t)

    def test_graded_kernel_accumulates_the_product(self):
        for seed in SEEDS:
            rng = random.Random(seed)
            a, b, c = (random_poly(rng, max_deg=4, terms=10) for _ in range(3))
            for t in (None, *range(-1, 10)):
                out = dict(c.coeffs)
                _graded_mul_into(out, _graded(a.coeffs, None), _graded(b.coeffs, t), t)
                assert Poly(a.n, out) == c + a.mul(b, t), (seed, t)
                assert a.mul(b, t) == (a.mul(b) if t is None else a.mul(b).truncated(t))
                # adding the negated product cancels back, leaving no zeros stored
                _graded_mul_into(out, _graded(b.coeffs, None), _graded((-a).coeffs, t), t)
                assert out == c.coeffs, (seed, t)

    def test_times_variable_is_the_product(self):
        for seed in SEEDS:
            a = random_poly(random.Random(seed))
            for i in range(a.n):
                assert a.times_variable(i) == a.mul(Poly.variable(a.n, i))


class TestMonomialKey:
    """A monomial is keyed by its sorted variable indices, so its degree is
    the key's length; the operations agree with exponent-vector references."""

    @staticmethod
    def as_exponents(p):
        return {exponents(m, p.n): c for m, c in p.coeffs.items()}

    def test_every_key_is_sorted(self):
        n = 4
        assert Poly.const(n, 3).coeffs == {(): 3} and Poly.const(n, 3).degree() == 0
        for i in range(n):
            assert Poly.variable(n, i).coeffs == {(i,): 1} and Poly.variable(n, i).degree() == 1
        for seed in SEEDS:
            rng = random.Random(seed)
            a, b = random_poly(rng, n, terms=8), random_poly(rng, n, terms=8)
            results = [a.mul(b), a.mul(b, 4), b.mul(a, 2), a * b]
            results += [p for i in range(n) for p in (a.diff(i), a.times_variable(i))]
            for p in results:
                assert all(list(m) == sorted(m) and set(m) <= set(range(n)) for m in p.coeffs)
                assert p.degree() == max((sum(e) for e in self.as_exponents(p)), default=-1)
            for k in (1, 2, 3):
                h = random_sym_pair(rng, L3, k)
                for entry in pair_matrix(h).coeffs.values():
                    assert all(list(m) == sorted(m) and len(m) == k for m in entry.coeffs)

    def test_agrees_with_exponent_vectors(self):
        for seed in SEEDS:
            rng = random.Random(seed)
            a = random_poly(rng, max_deg=4, terms=10)
            b = random_poly(rng, max_deg=4, terms=10)
            n = a.n
            ea, eb = self.as_exponents(a), self.as_exponents(b)
            for i in range(n):
                assert self.as_exponents(a.diff(i)) == {
                    e[:i] + (e[i] - 1,) + e[i + 1:]: e[i] * c for e, c in ea.items() if e[i]}
                assert self.as_exponents(a.times_variable(i)) == {
                    e[:i] + (e[i] + 1,) + e[i + 1:]: c for e, c in ea.items()}
            for d in range(-1, 14):
                assert self.as_exponents(a.truncated(d)) == {e: c for e, c in ea.items() if sum(e) <= d}
                assert self.as_exponents(a.homogeneous_part(d)) == {
                    e: c for e, c in ea.items() if sum(e) == d}
            zero = (0,) * n
            assert a.constant_term() == ea.get(zero, 0)
            assert (a + Poly.const(n, Fraction(7, 3))).constant_term() == ea.get(zero, 0) + Fraction(7, 3)
            product = {}
            for e, c in ea.items():
                for f, c2 in eb.items():
                    key = tuple(x + y for x, y in zip(e, f))
                    product[key] = product.get(key, 0) + c * c2
            assert self.as_exponents(a.mul(b)) == {e: c for e, c in product.items() if c}


class TestShapeInEquality:
    def test_poly_n(self):
        assert Poly(2, {(0,): 1}) != Poly(3, {(0,): 1})
        assert Poly(2) != Poly(3)

    def test_sym_pair_space_and_degree(self):
        key = ((0, 0), (0, 1))
        assert SymPairTensor(E3, 2, {key: 1}) != SymPairTensor(L3, 2, {key: 1})
        assert SymPairTensor.zero(E3, 2) != SymPairTensor.zero(E3, 3)

    def test_different_types_never_equal(self):
        assert Poly(1, {(): 1}) != FreeElement({(): 1})
        assert PolyEnd.zero(E3) != SymPairTensor.zero(E3, 0)


class TestPolyValues:
    def test_poly_truthiness(self):
        rng = random.Random(7)
        for _ in range(5):
            p = random_poly(rng)
            assert bool(p) is True and not p.is_zero()
            assert bool(p - p) is False and (p - p).is_zero()
        assert not Poly.zero(3)
        assert Poly(3, {(): 0}).coeffs == {} and not Poly(3, {(): 0})

    def test_cancelling_entry_is_dropped(self):
        rng = random.Random(11)
        p, q = random_poly(rng), random_poly(rng)
        a = PolyEnd(L3, {(0, 1): p, (2, 2): q})
        b = PolyEnd(L3, {(0, 1): -p})
        s = a + b
        assert set(s.coeffs) == {(2, 2)} and s.coeffs[(2, 2)] == q
        assert s == PolyEnd(L3, {(2, 2): q})

    def test_constructor_drops_zero_entries(self):
        assert PolyEnd(E3, {(0, 0): Poly.zero(3)}).coeffs == {}

    def test_scaled_by_poly(self):
        rng = random.Random(5)
        a = random_end(rng)
        x0 = Poly.variable(3, 0)
        s = a.scaled(x0)
        assert set(s.coeffs) == set(a.coeffs)
        for key, p in a.coeffs.items():
            assert s.coeffs[key] == p.mul(x0)


class TestOneCopy:
    def test_linear_methods_live_on_the_base(self):
        names = ("is_zero", "__eq__", "__hash__", "__add__", "__neg__", "__sub__",
                 "scaled", "__rmul__", "__bool__", "_with", "zero")
        for cls in (Poly, FreeElement, SymPairTensor, PolyEnd, MultiTensor):
            assert not [name for name in names if name in cls.__dict__], cls
            assert set(Sparse.__slots__).isdisjoint(cls.__slots__)

    def test_products_stay_on_their_classes(self):
        # the benchmark tracer patches these by class __dict__ lookup
        assert "mul" in Poly.__dict__ and "__mul__" in PolyEnd.__dict__
        assert "permuted" in MultiTensor.__dict__
