"""Universal polynomials in the free graded algebra.

Frozen low-order tables were computed once by hand from the defining
recursion and are asserted literally; the explicit composition formula
is then required to agree with the recursion on a larger range.
"""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from jetiso.freealg import (
    FreeElement,
    compositions,
    evaluate,
    leading_coeff,
    mul,
    pi_product,
    q_poly,
    qtilde_explicit,
    qtilde_recursive,
    star,
    weighted_degree,
)
from jetiso.poly import Poly
from jetiso.tensor import PolyEnd, Space

F = Fraction


def elem(*terms):
    return FreeElement({tuple(word): F(coeff) for word, coeff in terms})


QTILDE_TABLE = {
    0: FreeElement.one(),
    1: FreeElement.zero(),
    2: elem(((2,), F(-1, 3))),
    3: elem(((3,), F(-1, 2))),
    4: elem(((4,), F(-3, 5)), ((2, 2), F(1, 5))),
    5: elem(((5,), F(-2, 3)), ((2, 3), F(1, 3)), ((3, 2), F(2, 3))),
}

Q_TABLE = {
    0: FreeElement.one(),
    1: FreeElement.zero(),
    2: elem(((2,), F(-2, 3))),
    3: elem(((3,), F(-1))),
    4: elem(((4,), F(-6, 5)), ((2, 2), F(16, 15))),
    5: elem(((5,), F(-4, 3)), ((2, 3), F(8, 3)), ((3, 2), F(8, 3))),
}


class TestTables:
    @pytest.mark.parametrize("k", sorted(QTILDE_TABLE))
    def test_qtilde(self, k):
        assert qtilde_recursive(k) == QTILDE_TABLE[k]

    @pytest.mark.parametrize("k", sorted(Q_TABLE))
    def test_q(self, k):
        assert q_poly(k) == Q_TABLE[k]

    def test_q6_cubic_coefficient(self):
        assert q_poly(6).coeff((2, 2, 2)) == F(-16, 7)

    @pytest.mark.parametrize("k", range(2, 11))
    def test_leading_coefficient(self, k):
        assert leading_coeff(k) == F(-2 * (k - 1), k + 1)


class TestExplicitFormula:
    @pytest.mark.parametrize("k", range(0, 11))
    def test_matches_recursion(self, k):
        assert qtilde_explicit(k) == qtilde_recursive(k)

    def test_pi_products(self):
        assert pi_product((2,)) == 6
        assert pi_product((2, 3)) == 180
        assert pi_product((3, 2)) == 360
        assert pi_product((2, 2)) == 120
        assert pi_product((2, 2, 2)) == 5040

    def test_pi_product_rejects_empty(self):
        with pytest.raises(ValueError):
            pi_product(())

    def test_compositions(self):
        assert list(compositions(5)) == [(2, 3), (3, 2), (5,)]
        assert list(compositions(0)) == [()]
        assert list(compositions(1)) == []

    def test_composition_term_structure(self):
        # every word of weight k with letters >= 2 appears in reversed
        # order with coefficient k! * prod(-1/(j-2)!) / pi
        k = 7
        q = qtilde_explicit(k)
        for comp in compositions(k):
            expected = F(factorial(k), pi_product(comp))
            for j in comp:
                expected *= F(-1, factorial(j - 2))
            assert q.coeff(tuple(reversed(comp))) == expected


class TestStarSymmetry:
    @pytest.mark.parametrize("k", range(0, 9))
    def test_q_is_star_invariant(self, k):
        assert star(q_poly(k)) == q_poly(k)

    @pytest.mark.parametrize("k", range(0, 9))
    def test_q_from_qtilde_convolution(self, k):
        acc = FreeElement.zero()
        for ell in range(k + 1):
            term = mul(star(qtilde_recursive(ell)), qtilde_recursive(k - ell))
            acc = acc + term.scaled(F(comb(k, ell)))
        assert acc == q_poly(k)


words = st.lists(st.integers(min_value=2, max_value=5), min_size=0, max_size=3).map(tuple)
elements = st.lists(
    st.tuples(words, st.fractions(min_value=-20, max_value=20, max_denominator=6)),
    min_size=0,
    max_size=4,
).map(lambda terms: elem(*terms))


class TestAlgebraLaws:
    @settings(max_examples=60)
    @given(elements, elements)
    def test_star_antihomomorphism(self, a, b):
        assert star(mul(a, b)) == mul(star(b), star(a))

    @settings(max_examples=60)
    @given(elements)
    def test_star_involution(self, a):
        assert star(star(a)) == a

    @settings(max_examples=40)
    @given(elements, elements, elements)
    def test_associativity(self, a, b, c):
        assert mul(mul(a, b), c) == mul(a, mul(b, c))

    def test_weighted_degree(self):
        assert weighted_degree(()) == 0
        assert weighted_degree((2, 3, 4)) == 9
        a = elem(((2, 2), 1), ((3,), 1))
        assert not a.is_homogeneous()
        assert elem(((4,), 1), ((2, 2), 2)).is_homogeneous()


class TestEvaluate:
    def test_scalar_target(self):
        # substitute numbers: X2 -> 5, X3 -> 7 in Q~_5
        a = qtilde_recursive(5)
        val = evaluate(a, {2: F(5), 3: F(7), 5: F(2)}, unit=F(1))
        expected = F(-2, 3) * 2 + F(1, 3) * 35 + F(2, 3) * 35
        assert val == expected

    def test_matrix_target_noncommutative(self):
        # constant 2x2 matrices of series; the order of factors must matter
        space = Space(2, (1, 1))

        def const(entries):
            return PolyEnd(space, {key: Poly.const(2, v) for key, v in entries.items()})

        ident = PolyEnd.identity(space)
        x2 = const({(0, 1): 1})
        x3 = const({(1, 0): 1})
        va = evaluate(elem(((2, 3), 1)), {2: x2, 3: x3}, unit=ident)
        vb = evaluate(elem(((3, 2), 1)), {2: x2, 3: x3}, unit=ident)
        assert va == const({(0, 0): 1})
        assert vb == const({(1, 1): 1})
        both = evaluate(elem(((), F(1, 2)), ((2, 3), 1), ((3, 2), -3)), {2: x2, 3: x3},
                        unit=ident)
        assert both == const({(0, 0): F(3, 2), (1, 1): F(-5, 2)})

    def test_missing_assignment(self):
        with pytest.raises(ValueError, match="X5"):
            evaluate(qtilde_recursive(5), {2: F(1), 3: F(1)}, unit=F(1))
        with pytest.raises(ValueError, match="X9"):
            evaluate(elem(((2, 9), 1)), {2: F(1)}, unit=F(1))

    def test_no_product_by_the_unit(self):
        products = []

        class Recorded:
            """A number that records every product of two algebra elements;
            the scalar action c * x is not recorded."""

            def __init__(self, value):
                self.value = F(value)

            def __add__(self, other):
                return Recorded(self.value + other.value)

            def __mul__(self, other):
                products.append((self.value, other.value))
                return Recorded(self.value * other.value)

            def __rmul__(self, c):
                return Recorded(c * self.value)

        a = elem(((), 3), ((2,), 5), ((2, 3), 7), ((3, 3, 2), 1))
        val = evaluate(a, {2: Recorded(2), 3: Recorded(F(-1, 3))}, unit=Recorded(1))
        assert val.value == 3 + 5 * 2 + 7 * 2 * F(-1, 3) + F(1, 9) * 2
        assert products == [(F(2), F(-1, 3)), (F(-1, 3), F(-1, 3)), (F(1, 9), F(2))]
        assert evaluate(elem(((), 4)), {}, unit=Recorded(1)).value == 4
        assert evaluate(FreeElement.zero(), {}, unit=Recorded(1)).value == 0
        assert len(products) == 3


class TestTextForm:
    def test_rendering(self):
        assert qtilde_recursive(4).to_text() == "-3/5*X4 + 1/5*X2*X2"
        assert FreeElement.zero().to_text() == "0"
        assert FreeElement.one().to_text() == "1"

    def test_json_round_trip(self):
        a = q_poly(5)
        assert FreeElement.from_json_obj(a.to_json_obj()) == a
