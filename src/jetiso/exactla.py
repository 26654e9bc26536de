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

Matrices are small and dense, held as lists of rows.  Reduction is classical Gauss-Jordan with
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
    """Dense matrix of rationals: its shape and a list of rows."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols):
        """The matrix whose rows are the lists ``rows``, each of ``cols``
        entries; no rows make a 0 x cols matrix."""
        # keep everything Fraction so later divisions stay exact
        self.data = [[x if type(x) is Fraction else Fraction(x) for x in row] for row in rows]
        if any(len(row) != cols for row in self.data):
            raise ValueError("ragged rows")
        self.rows = len(self.data)
        self.cols = cols

    @classmethod
    def from_rows(cls, rows):
        """The matrix with these rows; its width is the first row's."""
        return cls(rows, len(rows[0]) if rows else 0)

    def __eq__(self, other):
        return (isinstance(other, RatMatrix) and self.cols == other.cols
                and self.data == other.data)

    def __repr__(self):
        return f"RatMatrix({self.rows}x{self.cols})"


def rref(m: RatMatrix):
    """Reduced row echelon form.

    Returns ``(reduced, pivot_cols)``.  Pivots are the first nonzero
    entry in each column sweep; with exact arithmetic no pivoting
    strategy is needed for correctness.  Each step replaces whole rows,
    so the rows of ``m`` are never written.
    """
    rows = list(m.data)
    nr = m.rows
    pivots = []
    r = 0
    for c in range(m.cols):
        if r == nr:
            break
        for pr in range(r, nr):
            if rows[pr][c]:
                break
        else:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        if pv != 1:
            rows[r] = [x / pv for x in rows[r]]
        rr = rows[r]
        for i in range(nr):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rr)]
        pivots.append(c)
        r += 1
    return RatMatrix(rows, m.cols), pivots


def nullspace_basis(m: RatMatrix):
    """Basis of the right nullspace, one vector per free column.

    The basis is canonical: free variable ``f`` is set to one in its own
    vector and zero in the others, so results are deterministic.
    """
    red, pivots = rref(m)
    basis = []
    for f in sorted(set(range(m.cols)) - set(pivots)):
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for row, p in zip(red.data, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis

