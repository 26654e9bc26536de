"""Exact linear algebra: rref, nullspace, affine solve.

The rank oracle is an independent fraction-free Bareiss elimination
over the integers, written before the tests and kept frozen.
"""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from jetiso.exactla import (
    RatMatrix,
    exact_quotient,
    format_rational,
    nullspace_basis,
    parse_rational,
    rref,
    solve_affine,
)


def mat_vec(m: RatMatrix, v):
    """The product m v, row by row: the oracle of the solves."""
    if len(v) != m.cols:
        raise ValueError("vector length does not match column count")
    return [sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in m.data]


def bareiss_rank(rows):
    """Rank via fraction-free elimination; integer entries only."""
    m = [[int(x) for x in row] for row in rows]
    if not m:
        return 0
    nr, nc = len(m), len(m[0])
    prev = 1
    r = 0
    for c in range(nc):
        piv = None
        for i in range(r, nr):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(nr):
            if i == r:
                continue
            for j in range(nc):
                if j == c:
                    continue
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == nr:
            break
    return r


def random_int_matrix(rng, rows, cols, bound=5):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


class TestRref:
    def test_identity_fixed_point(self):
        m = RatMatrix.from_rows([[int(i == j) for j in range(4)] for i in range(4)])
        red, pivots = rref(m)
        assert red == m
        assert pivots == [0, 1, 2, 3]

    def test_dependent_rows(self):
        m = RatMatrix.from_rows([[1, 2], [2, 4]])
        red, pivots = rref(m)
        assert pivots == [0]
        assert red.data[1] == [0, 0]

    def test_rank_against_bareiss(self):
        rng = random.Random(0)
        for _ in range(40):
            rows = random_int_matrix(rng, rng.randint(1, 6), rng.randint(1, 7))
            m = RatMatrix.from_rows(rows)
            assert len(rref(m)[1]) == bareiss_rank(rows)

    def test_idempotent(self):
        rng = random.Random(1)
        rows = random_int_matrix(rng, 5, 6)
        red, pivots = rref(RatMatrix.from_rows(rows))
        red2, pivots2 = rref(red)
        assert red2 == red and pivots2 == pivots


class TestNullspace:
    def test_rank_nullity(self):
        rng = random.Random(2)
        for _ in range(25):
            rows = random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
            m = RatMatrix.from_rows(rows)
            assert len(rref(m)[1]) + len(nullspace_basis(m)) == m.cols

    def test_vectors_annihilated(self):
        rng = random.Random(3)
        for _ in range(25):
            rows = random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
            m = RatMatrix.from_rows(rows)
            for v in nullspace_basis(m):
                assert all(x == 0 for x in mat_vec(m, v))

    def test_zero_matrix_full_nullspace(self):
        units = [[int(i == j) for j in range(3)] for i in range(3)]
        # a matrix without rows keeps its three columns
        for m in (RatMatrix.from_rows([[0] * 3] * 3), RatMatrix([], 3)):
            assert nullspace_basis(m) == units


class TestSolveAffine:
    def test_consistent_system(self):
        rng = random.Random(4)
        for _ in range(25):
            rows = random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            m = RatMatrix.from_rows(rows)
            x = [Fraction(rng.randint(-4, 4)) for _ in range(m.cols)]
            b = mat_vec(m, x)
            sol = solve_affine(m, b)
            assert sol is not None
            assert mat_vec(m, sol) == b

    def test_inconsistent_system(self):
        m = RatMatrix.from_rows([[1, 1], [1, 1]])
        assert solve_affine(m, [Fraction(1), Fraction(2)]) is None

    def test_free_variables_are_zero(self):
        m = RatMatrix.from_rows([[1, 1]])
        sol = solve_affine(m, [Fraction(3)])
        assert sol == [Fraction(3), Fraction(0)]
        # a system without rows keeps its two unknowns, both free
        assert solve_affine(RatMatrix([], 2), []) == [0, 0]


rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)


class TestScalars:
    @given(rationals, rationals, rationals)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(rationals)
    def test_wire_format_round_trip(self, a):
        assert parse_rational(format_rational(a)) == a

    def test_wire_format_examples(self):
        assert format_rational(Fraction(-2, 3)) == "-2/3"
        assert format_rational(Fraction(4, 2)) == "2"
        assert parse_rational("16/15") == Fraction(16, 15)

    def test_bad_literal_rejected(self):
        with pytest.raises(ValueError):
            parse_rational("1/0")
        with pytest.raises(ValueError):
            parse_rational("two")

    # the fast path reads -?digits and -?digits/digits; everything else
    # must parse exactly as Fraction parses it
    @pytest.mark.parametrize("text", [" 3 ", "+3", "1_0", "1.5", "1e2", "\u0663", "-0",
                                      "0/5", "6/3", "-4/6", "007/014", "-12",
                                      "1/\u0663\u0663"])
    def test_parse_agrees_with_fraction(self, text):
        value = parse_rational(text)
        expected = Fraction(text)
        assert value == expected
        assert type(value) is (int if expected.denominator == 1 else Fraction)

    @pytest.mark.parametrize("text", ["1/0", "3/-4", "", "/", "1/", "--1", "-", "1/00",
                                      "1//2", "\u00b2"])
    def test_bad_literal_is_a_value_error(self, text):
        # never ZeroDivisionError or AttributeError
        with pytest.raises(ValueError, match="bad rational literal"):
            parse_rational(text)

    # MAX_DIGITS = 4300: the numerator or denominator a literal writes out,
    # counted from its mantissa digits and exponent, may have that many digits
    @pytest.mark.parametrize("text,value", [
        ("1e4299", 10 ** 4299), ("1e-4299", Fraction(1, 10 ** 4299)),
        ("12.5e4298", 125 * 10 ** 4297), ("-0.5e-4298", Fraction(-1, 2 * 10 ** 4298)),
        ("9" * 4299 + ".5", Fraction(10 ** 4300 - 5, 10)),
    ])
    def test_digit_limit_reached(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", ["1e4300", "1e-4300", "12.5e4299", "-0.5e-4299",
                                      "9" * 4300 + ".5", "1e-999999999", "1E999999999",
                                      "1e" + "9" * 5000])
    def test_digit_limit_passed(self, text):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="bad rational literal"):
            parse_rational(text)
        assert time.perf_counter() - start < 1

    # the fast path's plain digit strings obey the same limit, counted
    # before int() reads them: CPython's own limit names an API, not the input
    @pytest.mark.parametrize("text,value", [
        ("7" * 4300, int("7" * 4300)), ("-" + "7" * 4300, -int("7" * 4300)),
        ("1/" + "3" * 4300, Fraction(1, int("3" * 4300))),
        ("-" + "7" * 4300 + "/" + "3" * 4300, Fraction(-int("7" * 4300), int("3" * 4300))),
    ], ids=["p", "-p", "1/q", "-p/q"])
    def test_plain_digits_at_limit(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", ["7" * 4301, "-" + "7" * 4301, "7" * 4301 + "/3",
                                      "1/" + "3" * 4301, "7" * 5000],
                             ids=["p", "-p", "p/q-numerator", "p/q-denominator", "5000"])
    def test_plain_digits_past_limit(self, text):
        with pytest.raises(ValueError, match="bad rational literal") as info:
            parse_rational(text)
        message = str(info.value)
        assert "set_int_max_str_digits" not in message
        assert len(message) < 200

    @pytest.mark.parametrize("value", [True, False, 0.1, 2.0, None, [1], Fraction(1, 2)])
    def test_only_strings_and_ints(self, value):
        with pytest.raises(ValueError, match="not an exact rational"):
            parse_rational(value)

    def test_int_passes_through(self):
        assert parse_rational(-7) == -7 and type(parse_rational(-7)) is int

    @given(st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 6))
    def test_round_trip_keeps_ints_integral(self, p, q):
        value = parse_rational(format_rational(Fraction(p, q)))
        assert value == Fraction(p, q)
        assert (type(value) is int) == (p % q == 0)
        assert type(value) in (int, Fraction)

    @given(st.one_of(st.integers(-1000, 1000), rationals), st.integers(1, 60))
    def test_exact_quotient(self, num, den):
        value = exact_quotient(num, den)
        assert value == Fraction(num) / den
        assert (type(value) is int) == ((Fraction(num) / den).denominator == 1)
