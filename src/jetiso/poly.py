"""Sparse multivariate polynomials with exact rational coefficients.

A monomial in the ``n`` variables is the sorted tuple of its variable
indices: x0^2 x2 is ``(0, 0, 2)`` and a constant is ``()``, so a term's
degree is the length of its key, the multiset key of
``tensor.SymPairTensor``.  Coefficients are ``int`` or
``fractions.Fraction``.  Zero coefficients are never stored, so
``p.is_zero()`` is just an emptiness check.  Products accept an optional
truncation degree; that is what makes these usable as truncated power
series everywhere else in the package.

``Sparse`` is the linear-combination base that ``Poly``,
``freealg.FreeElement``, ``tensor.SymPairTensor``, ``tensor.PolyEnd`` and
``tensor.MultiTensor`` share: one zero-free dict and one copy of the
vector-space operations.

A truncated product multiplies by degree: ``_graded`` groups a series'
terms by total degree once, and ``_graded_mul_into`` adds the product of
two graded operands into a coefficient dict, visiting only the pairs of
groups whose degrees sum to at most the cut.  ``Poly.mul`` grades both
factors on every call; a caller that multiplies the same series many
times (the covariant-derivative step in ``metriclab``) grades each once.

``_dilate_integral`` scales weighted linear combinations by t**weight so
that every value becomes an ``int``; validation, symmetrization, the
series route and the metric synthesis use it to run on integers and
divide once at the end, through ``exactla.exact_quotient`` (inside
``tensor.pair_average`` for the maps into Sym^k tensor Sym^2, whose one
division per value also takes out the number of arrangements), so an
integral result stays an ``int``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .exactla import format_rational


class Sparse:
    """A finite linear combination: ``coeffs`` maps keys to nonzero values.

    Values are numbers or ``Poly``.  A subclass names its shape (the
    fields beyond ``coeffs``) in its own ``__slots__``; sums, negatives
    and scalar multiples keep the shape and never store a zero.
    Every object is built once, from its entries: arithmetic returns new
    objects and no method writes in place.
    """

    __slots__ = ("coeffs",)

    @classmethod
    def zero(cls, *shape):
        """The empty combination of this type and shape."""
        return cls(*shape)

    def _with(self, coeffs):
        """A new object of this type and shape holding ``coeffs``."""
        res = object.__new__(type(self))
        for name in self.__slots__:
            setattr(res, name, getattr(self, name))
        res.coeffs = coeffs
        return res

    def _shape(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __bool__(self):
        return bool(self.coeffs)

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (type(other) is type(self) and self._shape() == other._shape()
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self._shape(), frozenset(self.coeffs.items())))

    def __add__(self, other):
        out = dict(self.coeffs)
        for key, v in other.coeffs.items():
            s = out.get(key)
            s = v if s is None else s + v
            if s:
                out[key] = s
            else:
                del out[key]
        return self._with(out)

    def __neg__(self):
        return self._with({key: -v for key, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, factor):
        """Every value times ``factor``, a number or (for Poly values) a Poly."""
        return self._with({key: p for key, v in self.coeffs.items() if (p := v * factor)})

    def __rmul__(self, factor):
        return self.scaled(factor)

    def sorted_terms(self):
        return sorted(self.coeffs.items())

    def components_json(self):
        """The sorted terms, each as an object of the type's ``json_fields``:
        the parts of its key (the key itself when one field comes before the
        value), then its value as a ``p/q`` string."""
        *fields, value_field = self.json_fields
        one_part = len(fields) == 1
        out = []
        for key, v in self.sorted_terms():
            entry = {name: list(part) for name, part in zip(fields, (key,) if one_part else key)}
            entry[value_field] = format_rational(v)
            out.append(entry)
        return out


class Poly(Sparse):
    __slots__ = ("n",)

    def __init__(self, n, coeffs=None):
        self.n = n
        self.coeffs = {mono: c for mono, c in (coeffs or {}).items() if c}

    @classmethod
    def const(cls, n, value):
        return cls(n, {(): value})

    @classmethod
    def variable(cls, n, i):
        return cls(n, {(i,): 1})

    def constant_term(self):
        return self.coeffs.get((), Fraction(0))

    def degree(self):
        """Total degree, or -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(map(len, self.coeffs))

    def mul(self, other, trunc=None):
        """Product, dropping monomials of total degree above ``trunc``.

        Both factors are first grouped by total degree, so with ``trunc``
        only groups whose degrees sum to at most ``trunc`` are multiplied
        and no dropped pair of terms is ever visited.
        """
        out = {}
        _graded_mul_into(out, _graded(self.coeffs, trunc), _graded(other.coeffs, trunc), trunc)
        return self._with(out)

    def __mul__(self, other):
        if isinstance(other, Poly):
            return self.mul(other)
        return self.scaled(other)

    def times_variable(self, i):
        """Product with the variable x_i: i joins every monomial, in order."""
        return self._with({tuple(sorted(m + (i,))): c for m, c in self.coeffs.items()})

    def diff(self, i):
        """d/dx_i: a monomial holding i e times loses one i, and its coefficient gains e."""
        out = {}
        for mono, c in self.coeffs.items():
            e = mono.count(i)
            if e:
                at = mono.index(i)
                out[mono[:at] + mono[at + 1:]] = e * c
        return self._with(out)

    def truncated(self, max_deg):
        return self._with({m: c for m, c in self.coeffs.items() if len(m) <= max_deg})

    def homogeneous_part(self, deg):
        return self._with({m: c for m, c in self.coeffs.items() if len(m) == deg})

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        parts = []
        for mono, c in self.sorted_terms():
            vars_ = "*".join(
                f"x{i}" + (f"^{e}" if (e := mono.count(i)) > 1 else "")
                for i in sorted(set(mono))
            )
            parts.append(f"{c}" + (f"*{vars_}" if vars_ else ""))
        return "Poly(" + " + ".join(parts) + ")"


def _graded(coeffs, max_deg):
    """The (monomial, coefficient) pairs of degree <= max_deg (all for None), by degree."""
    out = {}
    for mono, c in coeffs.items():
        d = len(mono)
        if max_deg is None or d <= max_deg:
            out.setdefault(d, []).append((mono, c))
    return out


def _negated(graded):
    """A ``_graded`` operand with every coefficient negated."""
    return {d: [(mono, -c) for mono, c in terms] for d, terms in graded.items()}


def _graded_mul_into(out, graded_a, graded_b, trunc):
    """Add the product of two ``_graded`` operands into ``out``.

    Monomials of total degree above ``trunc`` are dropped (none for None).
    ``out`` maps monomials to nonzero coefficients and stays zero-free.
    """
    for da, ta in graded_a.items():
        for db, tb in graded_b.items():
            if trunc is not None and da + db > trunc:
                continue
            for ma, ca in ta:
                for mb, cb in tb:
                    mono = tuple(sorted(ma + mb))
                    s = out.get(mono, 0) + ca * cb
                    if s:
                        out[mono] = s
                    else:
                        del out[mono]


def _dilate_integral(weighted, factor=1):
    """Dilate weighted linear combinations into ints.

    ``weighted`` is a list of (w, s) pairs, with w >= 1 and s a ``Sparse``
    of numbers.  t is ``factor`` times the least common denominator of
    every value, and each value v of s becomes the int v * t**w.  Returns
    t and the dilated copies, in order.
    """
    t = factor * lcm(1, *{v.denominator for _, s in weighted for v in s.coeffs.values()})
    out = []
    for w, s in weighted:
        tw = t ** w
        out.append(s._with({key: v.numerator * (tw // v.denominator)
                            for key, v in s.coeffs.items()}))
    return t, out
