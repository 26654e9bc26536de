"""Exact rational scalars and dense linear algebra over them.

Scalars are ``int`` or ``fractions.Fraction``; integral values are
ints, so arithmetic on them never builds a ``Fraction``.  The wire format
is the plain ``p/q`` (or ``p``) string that ``Fraction`` already parses
and prints; ``parse_rational`` reads the common forms ``-?digits`` and
``-?digits/digits`` without ``Fraction``'s regular expression and hands
anything else to ``Fraction``, so the accepted literals are ``Fraction``'s,
less those whose numerator or denominator would pass ``MAX_DIGITS``
digits: those are counted from the text and refused before any int or
power of ten is built from it.  ``exact_quotient`` is the division that
keeps an integral quotient an int.

Matrices are small and dense.  Reduction is classical Gauss-Jordan with
exact pivots, which is plenty here because every large system in the
package is split into tiny blocks before it reaches this module.
"""

from __future__ import annotations

from fractions import Fraction

# CPython's default int-to-string digit limit
MAX_DIGITS = 4300


def _normalized(value: Fraction):
    """value, as an int when it is integral."""
    return value.numerator if value.denominator == 1 else value


def exact_quotient(num, den: int):
    """num / den for a positive int den: an int when that is integral."""
    if type(num) is int:
        q, r = divmod(num, den)
        if not r:
            return q
    return _normalized(Fraction(num, den))


def parse_rational(text):
    """The exact value of a wire-format scalar: a ``p/q`` string or an int.

    Integral values come back as ints.  Floats and bools are refused:
    JSON's 0.1 is not one tenth, and true is not a number.
    """
    if type(text) is int:
        return text
    if type(text) is not str:
        raise ValueError(f"not an exact rational: {text!r}")
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    try:
        if digits.isascii() and digits.isdigit():
            if len(digits) > MAX_DIGITS or len(den) > MAX_DIGITS:
                raise ValueError(f"more than {MAX_DIGITS} digits")
            if not slash:
                return int(num)
            if den.isascii() and den.isdigit() and (d := int(den)):
                return exact_quotient(int(num), d)
        if not slash and _written_digits(text) > MAX_DIGITS:
            raise ValueError(f"more than {MAX_DIGITS} digits")
        return _normalized(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        shown = repr(text) if len(text) <= 64 else f"{text[:32]!r}... ({len(text)} characters)"
        raise ValueError(f"bad rational literal: {shown}") from exc


def _written_digits(text):
    """Digits of the longer of the numerator and denominator of a decimal
    literal, counted from its mantissa and exponent without building either."""
    mantissa, _, exponent = text.lower().partition("e")
    digits = sum(map(str.isdecimal, mantissa))
    places = sum(map(str.isdecimal, mantissa.partition(".")[2]))
    # the value is int(mantissa digits) * 10**shift
    shift = (int(exponent) if exponent else 0) - places
    return digits + shift if shift >= 0 else max(digits, 1 - shift)


def format_rational(value) -> str:
    """Render as ``p/q``, or ``p`` when the denominator is one."""
    return str(value if type(value) in (int, Fraction) else Fraction(value))


class RatMatrix:
    """Dense matrix of rationals, stored row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data=None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [Fraction(0)] * (rows * cols)
        else:
            if len(data) != rows * cols:
                raise ValueError("data length does not match shape")
            # keep everything Fraction so later divisions stay exact
            self.data = [x if type(x) is Fraction else Fraction(x) for x in data]

    @classmethod
    def from_rows(cls, rows):
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(r, c, flat)

    @classmethod
    def identity(cls, n):
        m = cls(n, n)
        for i in range(n):
            m.data[i * n + i] = Fraction(1)
        return m

    def at(self, i, j):
        return self.data[i * self.cols + j]

    def set_at(self, i, j, value):
        self.data[i * self.cols + j] = value if type(value) is Fraction else Fraction(value)

    def row(self, i):
        return self.data[i * self.cols:(i + 1) * self.cols]

    def iter_rows(self):
        for i in range(self.rows):
            yield self.row(i)

    def __eq__(self, other):
        return (isinstance(other, RatMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __repr__(self):
        return f"RatMatrix({self.rows}x{self.cols})"


def rref(m: RatMatrix):
    """Reduced row echelon form.

    Returns ``(reduced, pivot_cols)``.  Pivots are the first nonzero
    entry in each column sweep; with exact arithmetic no pivoting
    strategy is needed for correctness.
    """
    rows = [list(r) for r in m.iter_rows()]
    nr, nc = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(nc):
        pr = None
        for i in range(r, nr):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        if pv != 1:
            rows[r] = [x / pv for x in rows[r]]
        rr = rows[r]
        for i in range(nr):
            f = rows[i][c]
            if i != r and f:
                ri = rows[i]
                rows[i] = [a - f * b for a, b in zip(ri, rr)]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    flat = [x for row in rows for x in row]
    return RatMatrix(nr, nc, flat), pivots


def rank(m: RatMatrix) -> int:
    _, pivots = rref(m)
    return len(pivots)


def nullspace_basis(m: RatMatrix):
    """Basis of the right nullspace, one vector per free column.

    The basis is canonical: free variable ``f`` is set to one in its own
    vector and zero in the others, so results are deterministic.
    """
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red.at(i, f)
        basis.append(v)
    return basis


def solve_affine(a: RatMatrix, b):
    """One exact solution of ``a x = b``, or None if inconsistent.

    Free variables are set to zero, so the returned solution is
    canonical.
    """
    if len(b) != a.rows:
        raise ValueError("rhs length does not match row count")
    aug = RatMatrix(a.rows, a.cols + 1)
    for i in range(a.rows):
        row = a.row(i)
        for j in range(a.cols):
            aug.set_at(i, j, row[j])
        aug.set_at(i, a.cols, Fraction(b[i]))
    red, pivots = rref(aug)
    if pivots and pivots[-1] == a.cols:
        return None
    x = [Fraction(0)] * a.cols
    for i, p in enumerate(pivots):
        x[p] = red.at(i, a.cols)
    return x

