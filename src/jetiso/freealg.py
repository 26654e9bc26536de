"""The free graded algebra on noncommuting generators X2, X3, ... and
the universal polynomials of normal-coordinate geometry.

A word is a tuple of integer letters, each at least 2; its weighted
degree is the sum of its letters.  Elements are finite rational linear
combinations of words.  The star involution reverses words; it is the
formal adjoint once letters are substituted by self-adjoint operators.

Two families of homogeneous elements are built here:

* ``qtilde_poly(k)``: the degree-k coefficient of backwards parallel
  transport along radial geodesics, as a universal expression in the
  operators X_j = (curvature derivative of order j-2, radially
  contracted).  It satisfies the recursion

      qtilde_poly(k) = -1/(k(k+1)) * sum_{l=2..k} C(k,l) (l-1) l
                        * X_l * qtilde_poly(k-l)

  with qtilde_poly(0) = 1, and equivalently the closed form summing
  ``(k! / pi_product(word)) * star(word)`` over compositions of k into
  parts >= 2, with each letter j carrying a factor -1/(j-2)!.

* ``q_poly(k)``: the degree-k Taylor coefficient of the metric in
  normal coordinates, ``sum_l C(k,l) star(qtilde_poly(l)) *
  qtilde_poly(k-l)``, reflecting that the metric is the square of the
  transport factor.

Substitution into any associative algebra is done by ``evaluate``,
which only needs the target's unit, addition, multiplication, and
scalar action.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .exactla import format_rational
from .poly import Sparse

Word = tuple

_MAX_CACHED_DEGREE = 64


def weighted_degree(word) -> int:
    """Sum of the letters; the empty word has degree 0."""
    return sum(word)


def _check_word(word):
    for letter in word:
        if letter < 2:
            raise ValueError(f"letters must be >= 2, got {letter} in {word}")
    return tuple(word)


class FreeElement(Sparse):
    """A finite rational combination of words, kept zero-free."""

    __slots__ = ()

    def __init__(self, terms=None):
        self.coeffs = {_check_word(word): Fraction(c) for word, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(): 1})

    @classmethod
    def generator(cls, letter):
        return cls({(letter,): 1})

    def coeff(self, word) -> Fraction:
        return self.coeffs.get(tuple(word), Fraction(0))

    def __mul__(self, other):
        if not isinstance(other, FreeElement):
            return self.scaled(other)
        out = {}
        for wa, ca in self.coeffs.items():
            for wb, cb in other.coeffs.items():
                w = wa + wb
                s = out.get(w, 0) + ca * cb
                if s:
                    out[w] = s
                else:
                    del out[w]
        return self._with(out)

    def star(self):
        """Reverse every word; an anti-automorphism and involution."""
        return self._with({tuple(reversed(w)): c for w, c in self.coeffs.items()})

    def is_homogeneous(self):
        degs = {weighted_degree(w) for w in self.coeffs}
        return len(degs) <= 1

    def degree(self):
        """Weighted degree, or -1 for zero."""
        if not self.coeffs:
            return -1
        return max(weighted_degree(w) for w in self.coeffs)

    def sorted_terms(self):
        # Degree first, then word length, then the letters themselves.
        # Shorter words use bigger letters, so X4 prints before X2*X2.
        return sorted(self.coeffs.items(),
                      key=lambda item: (weighted_degree(item[0]), len(item[0]), item[0]))

    def to_text(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for word, c in self.sorted_terms():
            factors = [format_rational(c)] + [f"X{letter}" for letter in word]
            parts.append("*".join(factors))
        return " + ".join(parts)

    def to_json_obj(self):
        return [{"word": list(w), "coeff": format_rational(c)}
                for w, c in self.sorted_terms()]

    @classmethod
    def from_json_obj(cls, obj):
        terms = {}
        for entry in obj:
            w = tuple(entry["word"])
            terms[w] = terms.get(w, 0) + Fraction(entry["coeff"])
        return cls(terms)

    def __repr__(self):
        return f"FreeElement({self.to_text()})"


def pi_product(word) -> int:
    """Product of partial sums s_1 (s_1+1) s_2 (s_2+1) ... over the word.

    Here s_m = word[0] + ... + word[m-1].  The empty word is rejected:
    the closed-form sum only ranges over nonempty compositions.
    """
    word = tuple(word)
    if not word:
        raise ValueError("pi_product is undefined for the empty word")
    _check_word(word)
    total = 0
    out = 1
    for letter in word:
        total += letter
        out *= total * (total + 1)
    return out


def compositions(k, min_part=2):
    """Compositions of k into ordered parts >= min_part, lexicographic."""
    if k == 0:
        yield ()
        return
    for first in range(min_part, k + 1):
        for rest in compositions(k - first, min_part):
            yield (first,) + rest


@lru_cache(maxsize=None)
def qtilde_recursive(k: int) -> FreeElement:
    """Transport coefficient of degree k via the recursion."""
    if k < 0:
        return FreeElement.zero()
    if k == 0:
        return FreeElement.one()
    if k > _MAX_CACHED_DEGREE:
        raise ValueError(f"degree {k} above supported bound {_MAX_CACHED_DEGREE}")
    acc = FreeElement.zero()
    for letter in range(2, k + 1):
        weight = comb(k, letter) * (letter - 1) * letter
        acc = acc + (FreeElement.generator(letter) * qtilde_recursive(k - letter)).scaled(weight)
    return acc.scaled(Fraction(-1, k * (k + 1)))


def qtilde_explicit(k: int) -> FreeElement:
    """Transport coefficient of degree k via the closed-form sum."""
    if k < 0:
        return FreeElement.zero()
    if k == 0:
        return FreeElement.one()
    terms = {}
    for word in compositions(k):
        sign_scale = Fraction(1)
        for letter in word:
            sign_scale *= Fraction(-1, factorial(letter - 2))
        coeff = Fraction(factorial(k), pi_product(word)) * sign_scale
        reversed_word = tuple(reversed(word))
        terms[reversed_word] = terms.get(reversed_word, 0) + coeff
    return FreeElement(terms)


def qtilde_poly(k: int) -> FreeElement:
    return qtilde_recursive(k)


@lru_cache(maxsize=None)
def q_poly(k: int) -> FreeElement:
    """Metric Taylor coefficient of degree k.

    The square of the transport series under the star pairing:
    sum_l C(k,l) star(qtilde_poly(l)) * qtilde_poly(k-l).
    """
    if k < 0:
        return FreeElement.zero()
    acc = FreeElement.zero()
    for el in range(k + 1):
        term = qtilde_recursive(el).star() * qtilde_recursive(k - el)
        acc = acc + term.scaled(comb(k, el))
    return acc


def leading_coeff(k: int) -> Fraction:
    """Coefficient of the single-letter word (k) in q_poly(k).

    Equals -2(k-1)/(k+1) for k >= 2.
    """
    if k < 2:
        raise ValueError("single-letter words need k >= 2")
    return q_poly(k).coeff((k,))


def evaluate(a: FreeElement, assign, *, unit):
    """Substitute algebra elements for generators.

    ``assign`` maps letters to elements of any associative algebra with
    the given unit, combined by the values' own ``+`` and ``*`` and scaled
    by ``c * value``.  Raises ValueError when a letter of ``a`` has no
    assignment.
    """
    total = None
    for word, c in a.sorted_terms():
        for letter in word:
            if letter not in assign:
                raise ValueError(f"no assignment for generator X{letter}")
        # a word starts from its first letter, not from a product by the unit
        value = assign[word[0]] if word else unit
        for letter in word[1:]:
            value = value * assign[letter]
        value = c * value
        total = value if total is None else total + value
    if total is None:
        return Fraction(0) * unit
    return total
