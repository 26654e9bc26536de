"""Exact multilinear algebra over a pseudo-Euclidean space.

The space is R^n with a diagonal inner product of signs +-1.  Two tensor
containers, each a ``Tensor`` (one JSON document over its component
codec), cover everything the package needs:

* ``SymPairTensor``: an element of Sym^k V* tensor Sym^2 V*, stored
  sparsely on multiset keys.  These hold Taylor coefficients of metrics
  and symmetrized curvature data.  A multiset key is also the key of a
  ``poly.Poly`` monomial, so ``pair_matrix`` and ``end_pair_sums`` re-key.
* ``MultiTensor``: an m-linear form, stored sparsely on full index
  tuples, used for curvature tensors and their derivative jets.

The gauge space of degree k is the subspace of Sym^k tensor Sym^2
consisting of tensors h with h(v,...,v; v, .) = 0; these are exactly
the admissible degree-k Taylor coefficients of a metric in normal
coordinates.  ``gauge_basis`` computes an exact basis by splitting the
defining linear system into blocks with fixed index content, and
``gauge_dim`` gives the closed-form dimension count.

Maps into Sym^k tensor Sym^2 scatter the stored components: the
multiset weight lives in ``pair_average``, which turns sums over
arrangements into stored values with one exact division each (by the
number of arrangements times a caller's scale, so an integer dilation is
undone in the same step), and the gauge condition's keys in
``_radial_keys``, shared by ``gauge_basis`` and the one check
``_contraction_vanishes`` behind ``is_gauge_tensor`` and
``sums_are_gauge``.  The map back to multilinear forms, the Kulkarni-Nomizu
extension ``kulkarni``, scatters too: each stored component adds its
value at the distinct arrangements of its multiset and orders of its
pair, with the signs of the two antisymmetric slot pairs, so its work
follows the stored components and not the n^(k+4) output indices.
Those signs, of representatives a < b, c < d of the last four slots and
their images, have one home, ``_sign_representative`` and ``_sign_images``;
a level held on its representatives leaves them through ``_unfold``.

A signed permutation acts on both containers by one ``pullback``.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from operator import itemgetter

from .exactla import RatMatrix, exact_quotient, nullspace_basis, parse_rational
from .poly import Poly, Sparse, _graded, _graded_mul_into


@dataclass(frozen=True)
class Space:
    """R^n with the diagonal inner product given by ``signature``."""

    n: int
    signature: tuple

    def __post_init__(self):
        if type(self.n) is not int:
            raise ValueError(f"n must be an int, got {self.n!r}")
        if self.n < 1:
            raise ValueError("need n >= 1")
        if (len(self.signature) != self.n
                or any(type(s) is not int or s not in (1, -1) for s in self.signature)):
            raise ValueError("signature must be a tuple of +-1 of length n")

    @classmethod
    def euclidean(cls, n):
        return cls(n, (1,) * n)

    def eps(self, i):
        return self.signature[i]


def int_field(obj, name):
    """The size field ``name`` of a JSON object, which must be an int:
    JSON's 3.0 and true compare equal to ints but are not sizes."""
    value = obj[name]
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    return value


def list_field(obj, name):
    """The field ``name`` of a JSON object, which must be a list: a dict or
    a string there would iterate as keys or characters."""
    value = obj[name]
    if type(value) is not list:
        raise ValueError(f"{name} must be a list")
    return value


def json_obj(frame):
    """The plain JSON object of a document frame: ``frame`` with each
    component holder (a tensor in place of its components list) replaced
    by its ``components_json()``."""
    if isinstance(frame, dict):
        return {key: json_obj(value) for key, value in frame.items()}
    if isinstance(frame, list):
        return [json_obj(value) for value in frame]
    return frame.components_json() if isinstance(frame, Sparse) else frame


def _all_indices(tuples, length, n):
    """True when every tuple holds ``length`` ints in range(n).

    JSON's true and 1.0 equal the int 1, so the types are checked apart
    from the values."""
    flat = list(itertools.chain.from_iterable(tuples))
    return (set(map(len, tuples)) <= {length} and set(map(type, flat)) <= {int}
            and frozenset(range(n)).issuperset(flat))


def _summed_values(keys, entries):
    """The parsed ``value`` of each entry summed on its key, zeros dropped;
    a key is added to only when it repeats.

    A document repeats few value strings many times, so each distinct
    string is parsed once, through a table from its text to its value.
    Any other JSON value goes through ``parse_rational`` every time, which
    takes an int and refuses a float or a bool."""
    out = {}
    parsed = {}
    for key, entry in zip(keys, entries):
        text = entry["value"]
        if type(text) is str:
            value = parsed.get(text)
            if value is None:
                value = parsed[text] = parse_rational(text)
        else:
            value = parse_rational(text)
        if key in out:
            out[key] += value
        else:
            out[key] = value
    return {key: v for key, v in out.items() if v}


def sym_indices(n, k):
    """All nondecreasing index tuples of length k over range(n)."""
    return itertools.combinations_with_replacement(range(n), k)


def multiset_count(ms) -> int:
    """Number of ordered tuples with the content of the sorted tuple ms."""
    k = len(ms)
    out = factorial(k)
    i = 0
    while i < k:
        j = i
        while j < k and ms[j] == ms[i]:
            j += 1
        out //= factorial(j - i)
        i = j
    return out


def content_of(idx, n):
    """Exponent vector of an index tuple: the content of a gauge or Bianchi block."""
    counts = [0] * n
    for i in idx:
        counts[i] += 1
    return tuple(counts)


class Tensor(Sparse):
    """A sparse tensor over a ``Space`` with one size, its ``size_field``; a
    subclass gives the component codec that every document uses: its
    ``json_fields``, which name a component's fields for
    ``components_json`` (the parts of its key, then its value), and
    ``from_components(space, size, entries)``."""

    __slots__ = ()

    def json_frame(self):
        """The document with this tensor in place of its components list."""
        space, size = self._shape()
        return {"n": space.n, "signature": list(space.signature), self.size_field: size,
                "components": self}

    def to_json_obj(self):
        return json_obj(self.json_frame())

    @classmethod
    def from_json_obj(cls, obj):
        return cls.from_components(Space(obj["n"], tuple(obj["signature"])),
                                   int_field(obj, cls.size_field),
                                   list_field(obj, "components"))

    def __repr__(self):
        space, size = self._shape()
        nnz = len(self.coeffs)
        return f"{type(self).__name__}(n={space.n}, {self.size_field}={size}, nnz={nnz})"


class SymPairTensor(Tensor):
    """Element of Sym^k V* tensor Sym^2 V*, sparse on multiset keys.

    Keys are pairs (sym, pair) of sorted index tuples; the value is the
    coefficient of the tensor evaluated on the corresponding basis
    vectors, so evaluation sums over all arrangements.
    """

    __slots__ = ("space", "k")
    size_field = "k"
    json_fields = ("sym", "pair", "value")

    def __init__(self, space, k, comps=None):
        self.space = space
        self.k = k
        out = {}
        for (sym, pair), value in (comps or {}).items():
            if len(sym) != k or len(pair) != 2:
                raise ValueError("component key does not match arity")
            if value:
                key = (tuple(sorted(sym)), tuple(sorted(pair)))
                out[key] = out.get(key, 0) + value
        self.coeffs = {key: v for key, v in out.items() if v}

    def get(self, sym, pair):
        key = (tuple(sorted(sym)), tuple(sorted(pair)))
        return self.coeffs.get(key, Fraction(0))

    @classmethod
    def from_components(cls, space, k, entries):
        """The tensor of degree k whose ``components_json`` is ``entries``;
        components on the same key add up."""
        n = space.n
        syms = [tuple(entry["sym"]) for entry in entries]
        pairs = [tuple(entry["pair"]) for entry in entries]
        if not (_all_indices(syms, k, n) and _all_indices(pairs, 2, n)):
            sym, pair = next((sym, pair) for sym, pair in zip(syms, pairs)
                             if not (_all_indices([sym], k, n) and _all_indices([pair], 2, n)))
            raise ValueError(f"bad component index sym={list(sym)} pair={list(pair)}")
        keys = [(tuple(sorted(sym)), (p, q) if p <= q else (q, p))
                for sym, (p, q) in zip(syms, pairs)]
        return cls(space, k)._with(_summed_values(keys, entries))


def _radial_keys(sym, pair):
    """Where the component at (sym, pair) lands in h(v,...,v; v, e_i).

    A list of (alpha, i), one for each order (j, i) of the pair: the
    component adds multiset_count(sym) (the arrangements of sym) times
    its value to the coefficient of the monomial alpha = sorted(sym + (j,))
    in entry i.
    """
    p, q = pair
    orders = ((p, q),) if p == q else ((p, q), (q, p))
    return [(tuple(sorted(sym + (j,))), i) for j, i in orders]


def _contraction_vanishes(weighted) -> bool:
    """Whether h(v,...,v; v, .) vanishes, given ``weighted``: (sym, pair, w)
    for each stored key of h, where w is multiset_count(sym) times the
    stored value, all times one nonzero factor.  Every w is scattered
    through ``_radial_keys`` and each coefficient of the contraction must
    be 0."""
    totals = defaultdict(int)
    for sym, pair, w in weighted:
        for key in _radial_keys(sym, pair):
            totals[key] += w
    return not any(totals.values())


def is_gauge_tensor(h: SymPairTensor) -> bool:
    """True when h(v,...,v; v, .) vanishes identically; checked exactly."""
    return _contraction_vanishes((sym, pair, multiset_count(sym) * v)
                                 for (sym, pair), v in h.coeffs.items())


def sums_are_gauge(sums) -> bool:
    """``is_gauge_tensor(pair_average(space, k, sums, scale))``, read off the sums.

    The stored value v at (sym, pair) has the arrangement sum
    multiset_count(sym) * multiset_count(pair) * scale * v; times
    2 / multiset_count(pair) that is 2 * scale * multiset_count(sym) * v,
    the weight ``_contraction_vanishes`` takes, up to its common factor:
    the sum itself for a pair of distinct indices, doubled for an equal
    pair.  The check runs in the sums' own arithmetic, before any division.
    """
    return _contraction_vanishes((sym, pair, total if pair[0] != pair[1] else 2 * total)
                                 for (sym, pair), total in sums.items())


def gauge_dim(n: int, k: int) -> int:
    """Dimension of the gauge space in Sym^k tensor Sym^2, for k >= 1."""
    if k < 1:
        raise ValueError("gauge dimension formula needs k >= 1")
    return (n * (n + 1) // 2) * comb(k + n - 1, n - 1) - n * comb(k + n, n - 1)


def curvature_jet_dim_bound(n: int, k: int) -> int:
    """Dimension of the space of k-th curvature jet components.

    Matches gauge_dim(n, k+2); the closed form is n(k+1)/2 * C(k+n+1, n-2).
    """
    num = n * (k + 1) * comb(k + n + 1, n - 2)
    if num % 2:
        raise ArithmeticError("dimension formula did not produce an integer")
    return num // 2


@lru_cache(maxsize=None)
def _gauge_basis_cached(space: Space, k: int):
    n = space.n
    cols_by_content = defaultdict(list)
    for sym in sym_indices(n, k):
        for pair in sym_indices(n, 2):
            cols_by_content[content_of(sym + pair, n)].append((sym, pair))

    basis = []
    for cont in sorted(cols_by_content):
        cols = cols_by_content[cont]
        # a row per coefficient of the contraction; the row order does not
        # matter, as a row space has one reduced row echelon form
        rows = defaultdict(lambda: [0] * len(cols))
        for ci, (sym, pair) in enumerate(cols):
            weight = multiset_count(sym)
            for key in _radial_keys(sym, pair):
                rows[key][ci] += weight
        for vec in nullspace_basis(RatMatrix(list(rows.values()), len(cols))):
            comps = {cols[ci]: v for ci, v in enumerate(vec) if v}
            basis.append(SymPairTensor(space, k, comps))
    return tuple(basis)


def gauge_basis(space: Space, k: int):
    """Deterministic basis of the gauge space, blocked by index content."""
    if k < 1:
        raise ValueError("gauge space is defined for k >= 1")
    return list(_gauge_basis_cached(space, k))


class MultiTensor(Tensor):
    """m-linear form over the space, sparse on full index tuples.

    Built once from its entries, zeros dropped; ``get`` reads a missing
    component as 0.
    """

    __slots__ = ("space", "arity")
    size_field = "arity"
    json_fields = ("idx", "value")

    def __init__(self, space, arity, comps=None):
        self.space = space
        self.arity = arity
        self.coeffs = {idx: v for idx, v in (comps or {}).items() if v}

    def get(self, idx):
        return self.coeffs.get(idx, 0)

    def iter_indices(self):
        """Every index tuple, zeros included, in lexicographic order."""
        return itertools.product(range(self.space.n), repeat=self.arity)

    def permuted(self, sigma):
        """Slot permutation: out[idx] = self[idx composed with sigma]."""
        if self.arity < 2:
            # the only permutation; itemgetter of one slot would return a scalar
            return self._with(dict(self.coeffs))
        inverse = [0] * self.arity
        for s, target in enumerate(sigma):
            inverse[target] = s
        key = itemgetter(*inverse)
        return self._with({key(idx): v for idx, v in self.coeffs.items()})

    def swapped(self, s1, s2):
        sigma = list(range(self.arity))
        sigma[s1], sigma[s2] = sigma[s2], sigma[s1]
        return self.permuted(sigma)

    @classmethod
    def from_components(cls, space, arity, entries):
        """The tensor of this arity whose ``components_json`` is ``entries``;
        components on the same index add up."""
        keys = [tuple(entry["idx"]) for entry in entries]
        if not _all_indices(keys, arity, space.n):
            idx = next(idx for idx in keys if not _all_indices([idx], arity, space.n))
            raise ValueError(f"bad component index {idx}")
        return cls(space, arity)._with(_summed_values(keys, entries))


def _sign_representative(idx):
    """Move idx to the representative with idx[-4] < idx[-3] and idx[-2] < idx[-1].

    Returns (representative, sign of the move), or None when one of the
    two antisymmetric pairs holds equal indices, where the component is 0.
    """
    a, b, c, d = idx[-4:]
    if a == b or c == d:
        return None
    sign = 1
    if a > b:
        a, b, sign = b, a, -sign
    if c > d:
        c, d, sign = d, c, -sign
    return idx[:-4] + (a, b, c, d), sign


def _sign_images(idx):
    """The four images of idx under the swaps of its last two slot pairs,
    with their signs: (a,b,c,d)+, (b,a,c,d)-, (a,b,d,c)-, (b,a,d,c)+."""
    head, (a, b, c, d) = idx[:-4], idx[-4:]
    return ((head + (a, b, c, d), 1), (head + (b, a, c, d), -1),
            (head + (a, b, d, c), -1), (head + (b, a, d, c), 1))


def _unfold(reps):
    """The entries of the level whose sign representatives are ``reps``:
    each nonzero value at its four ``_sign_images``, with their signs;
    a zero writes nothing."""
    return {image: sign * v for idx, v in reps.items() if v for image, sign in _sign_images(idx)}


def kulkarni(h: SymPairTensor):
    """Kulkarni-Nomizu style extension of h to a curvature-type tensor.

    For h in Sym^(k+2) tensor Sym^2 the result is a (k+4)-linear tensor
    with k derivative slots followed by four curvature slots: two of the
    symmetric slots absorb one index from each antisymmetric pair,

        (x; a, b, c, d) -> h(x, a, c; b, d) - h(x, b, c; a, d)
                           - h(x, a, d; b, c) + h(x, b, d; a, c).

    That is F - F.swap(a,b) - F.swap(c,d) + F.swap(a,b).swap(c,d) for
    F(x; a, b, c, d) = h(x, a, c; b, d), so it is a scatter: a stored
    component at (sym, pair) adds its value at every distinct arrangement
    (x, a, c) of sym and order (b, d) of pair, once on each of the four
    sign images of (a, b, c, d).
    """
    k = h.k - 2
    if k < 0:
        raise ValueError("need a tensor with at least two symmetric slots")
    out = defaultdict(int)
    for (sym, (p, q)), v in h.coeffs.items():
        for arrangement in set(itertools.permutations(sym)):
            lead, a, c = arrangement[:k], arrangement[k], arrangement[k + 1]
            for b, d in {(p, q), (q, p)}:
                for image, sign in _sign_images(lead + (a, b, c, d)):
                    out[image] += sign * v
    return MultiTensor(h.space, k + 4, out)


class PolyEnd(Sparse):
    """n x n matrix of polynomials: an endomorphism-valued series.

    Entry (i, j) is the coefficient polynomial of e_i in the image of
    e_j, so the product is composition.  Entries may mix degrees; a
    truncated series is one whose entries are cut at a total degree,
    and ``mul`` keeps products within such a cut.  ``scaled`` takes a
    number or a Poly.
    """

    __slots__ = ("space",)

    def __init__(self, space, entries=None):
        self.space = space
        self.coeffs = {key: p for key, p in (entries or {}).items() if p}

    @classmethod
    def diagonal(cls, space, values):
        n = space.n
        return cls(space, {(i, i): Poly.const(n, v) for i, v in enumerate(values)})

    @classmethod
    def identity(cls, space):
        return cls.diagonal(space, (1,) * space.n)

    def entry(self, i, j) -> Poly:
        return self.coeffs.get((i, j), Poly.zero(self.space.n))

    def _map(self, fn):
        """Apply fn to every entry, dropping entries that become zero."""
        return self._with({key: q for key, p in self.coeffs.items() if (q := fn(p))})

    def truncated(self, max_deg):
        return self._map(lambda p: p.truncated(max_deg))

    def homogeneous_part(self, deg):
        return self._map(lambda p: p.homogeneous_part(deg))

    def diff(self, i):
        return self._map(lambda p: p.diff(i))

    def times_variable(self, i):
        return self._map(lambda p: p.times_variable(i))

    def mul(self, other, trunc=None):
        """Composition self(other(v)), dropping degrees above ``trunc``.

        Each entry with a partner is graded by degree once, and each output
        entry accumulates its products in one dict (``poly._graded_mul_into``).
        """
        rows = defaultdict(list)
        for (m, j), q in other.coeffs.items():
            rows[m].append((j, _graded(q.coeffs, trunc)))
        out = defaultdict(dict)
        for (i, m), p in self.coeffs.items():
            row = rows.get(m)
            if row is None:
                continue
            graded = _graded(p.coeffs, trunc)
            for j, q in row:
                _graded_mul_into(out[(i, j)], graded, q, trunc)
        zero = Poly.zero(self.space.n)
        return self._with({key: zero._with(coeffs) for key, coeffs in out.items() if coeffs})

    def __mul__(self, other):
        if not isinstance(other, PolyEnd):
            return self.scaled(other)
        return self.mul(other)

    def __repr__(self):
        return f"PolyEnd(n={self.space.n}, nnz={len(self.coeffs)})"


def pair_matrix(h: SymPairTensor) -> PolyEnd:
    """The symmetric matrix of polynomials v -> h(v,..,v; e_a, e_b)."""
    coeffs = defaultdict(dict)
    for (sym, (p, q)), value in h.coeffs.items():
        weight = multiset_count(sym) * value
        coeffs[(p, q)][sym] = weight
        coeffs[(q, p)][sym] = weight
    return PolyEnd(h.space, {key: Poly(h.space.n, c) for key, c in coeffs.items()})


def pair_to_end(h: SymPairTensor) -> PolyEnd:
    """Raise the pair slot: the endomorphism E with <E(v)x, y> = h(v..v; x, y).

    Entry (a, b) is eps_a times the polynomial v -> h(v,..,v; e_a, e_b).
    """
    return PolyEnd.diagonal(h.space, h.space.signature).mul(pair_matrix(h))


def pair_average(space: Space, k: int, sums, scale: int = 1) -> SymPairTensor:
    """The element of Sym^k tensor Sym^2 whose arrangements sum to ``sums``,
    divided by ``scale``.

    ``sums`` maps sorted keys (sym, pair) to a total over the distinct
    arrangements of sym and of pair; the stored value is that total over
    their number, multiset_count(sym), times 2 when the pair's two
    indices differ, times the positive int ``scale``.  That is one exact
    division per key, and its quotient is an int where it is integral.
    """
    return SymPairTensor(space, k)._with({
        (sym, pair): exact_quotient(total, multiset_count(sym) * multiset_count(pair) * scale)
        for (sym, pair), total in sums.items() if total})


def end_pair_sums(e: PolyEnd):
    """The arrangement sums of the pair form of a self-adjoint e, for
    ``pair_average``: eps_a times entry (a, b) is h(v,..,v; e_a, e_b),
    whose coefficient at a monomial sums h over the arrangements of its
    multiset (the monomial's key), and both orders of a pair add to its
    sorted key."""
    sums = defaultdict(int)
    for (a, b), p in e.coeffs.items():
        eps = e.space.eps(a)
        pair = (a, b) if a <= b else (b, a)
        for sym, c in p.coeffs.items():
            sums[(sym, pair)] += eps * c
    return sums


@dataclass(frozen=True)
class SignedPerm:
    """The linear map e_j -> signs[j] * e_{perm[j]}."""

    perm: tuple
    signs: tuple

    def __post_init__(self):
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("not a permutation")
        if len(self.signs) != len(self.perm) or any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +-1 of matching length")

    def preserves(self, space: Space) -> bool:
        return all(space.eps(self.perm[j]) == space.eps(j) for j in range(space.n))

    def inverse(self):
        n = len(self.perm)
        inv = [0] * n
        for j, image in enumerate(self.perm):
            inv[image] = j
        signs = tuple(self.signs[inv[i]] for i in range(n))
        return SignedPerm(tuple(inv), signs)

    def compose(self, other):
        """self after other."""
        perm = tuple(self.perm[other.perm[j]] for j in range(len(self.perm)))
        signs = tuple(other.signs[j] * self.signs[other.perm[j]] for j in range(len(self.perm)))
        return SignedPerm(perm, signs)


def pullback(t: Tensor, g: SignedPerm) -> Tensor:
    """Pullback action on covariant tensors: (g.t)(x...) = t(g^{-1} x...).

    Equivalently, the component of t at a key lands at the key's image
    under g, times the signs of the key's indices.  A ``MultiTensor`` key
    is one index tuple; a ``SymPairTensor`` key is two, (sym, pair), and
    its constructor sorts their images again.
    """
    multi = isinstance(t, MultiTensor)
    perm, signs = g.perm, g.signs
    comps = {}
    for key, v in t.coeffs.items():
        image = []
        for part in (key,) if multi else key:
            for i in part:
                v *= signs[i]
            image.append(tuple(perm[i] for i in part))
        comps[image[0] if multi else tuple(image)] = v
    return type(t)(*t._shape(), comps)


def random_signed_perm(space: Space, rng) -> SignedPerm:
    """A random signed permutation preserving the signature."""
    groups = defaultdict(list)
    for i, s in enumerate(space.signature):
        groups[s].append(i)
    perm = [0] * space.n
    for members in groups.values():
        images = members[:]
        rng.shuffle(images)
        for src, dst in zip(members, images):
            perm[src] = dst
    signs = tuple(rng.choice((1, -1)) for _ in range(space.n))
    return SignedPerm(tuple(perm), signs)
