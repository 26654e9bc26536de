"""The algebraic route by linear solve: the oracle of ``jets.jet_from_symjet``.

Each new level solves its Bianchi identities and its Ricci identities, whose
right sides come from the lower levels, block by block with exact Gauss-Jordan
elimination (``solve_affine``).  The solutions form an affine space over the
linear jet components, on which symmetrization is a bijection: the exact
particular solution P is corrected by the linear component whose
symmetrization is h - sym(P).  The library builds each level in closed form
instead; this is the independent route it is held against.
"""

import itertools
from collections import defaultdict
from fractions import Fraction
from math import gcd

from jetiso.exactla import RatMatrix, rref
from jetiso.jets import (
    CurvatureJet,
    _canonical_curvature_index,
    _scatter,
    _symmetrize_level,
    reconstruct_linear,
    ricci_defect,
)
from jetiso.tensor import MultiTensor, content_of


def solve_affine(a: RatMatrix, b):
    """One exact solution of ``a x = b``, or None if inconsistent.

    Free variables are set to zero, so the returned solution is
    canonical.
    """
    if len(b) != a.rows:
        raise ValueError("rhs length does not match row count")
    red, pivots = rref(RatMatrix([row + [rhs] for row, rhs in zip(a.data, b)], a.cols + 1))
    if pivots and pivots[-1] == a.cols:
        return None
    x = [Fraction(0)] * a.cols
    for row, p in zip(red.data, pivots):
        x[p] = row[-1]
    return x


def bianchi_system(space, k, extra_rows=()):
    """The Bianchi identities at level k, plus ``extra_rows``, as blocked
    integer systems.

    Unknowns are the classes of (k+4)-index tuples under the curvature sign
    group (``_canonical_curvature_index``).  Rows are the first and second
    Bianchi identities with zero right side, plus ``extra_rows``, an iterable
    of ([(index, coeff), ...], rhs) pairs.  Each row is reduced to primitive
    integer form with its first coefficient positive, its right side scaled
    alike, and duplicates are dropped; every row is content-homogeneous, so
    the system splits by index content.

    Returns (canon, blocks): canon maps each index tuple to (class, sign) or
    None, and blocks holds one (classes, RatMatrix, rhs) per content.
    """
    n = space.n
    canon = {}
    classes = defaultdict(set)
    for idx in itertools.product(range(n), repeat=k + 4):
        res = canon[idx] = _canonical_curvature_index(idx)
        if res is not None:
            classes[content_of(res[0], n)].add(res[0])

    rows = defaultdict(set)

    def add_row(index_terms, rhs):
        terms = defaultdict(int)
        for idx, coeff in index_terms:
            res = canon[idx]
            if res is not None:
                terms[res[0]] += res[1] * coeff
        items = sorted((key, c) for key, c in terms.items() if c)
        if not items:
            if rhs:
                raise ArithmeticError("inconsistent forced-zero constraint")
            return
        g = gcd(*(c for _, c in items))
        if items[0][1] < 0:
            g = -g
        row = tuple((key, c // g) for key, c in items)
        rows[content_of(items[0][0], n)].add((row, Fraction(rhs) / g))

    for idx in itertools.product(range(n), repeat=k + 4):
        lead = idx[:k]
        a, b, c, d = idx[k:]
        add_row([(lead + (a, b, c, d), 1), (lead + (b, c, a, d), 1), (lead + (c, a, b, d), 1)], 0)
        if k >= 1:
            rest, x = lead[:-1], lead[-1]
            add_row([(rest + (x, a, b, c, d), 1), (rest + (a, b, x, c, d), 1),
                     (rest + (b, x, a, c, d), 1)], 0)
    for index_terms, rhs in extra_rows:
        add_row(index_terms, rhs)

    blocks = []
    for cont in sorted(classes):
        cols = sorted(classes[cont])
        system = sorted(rows[cont])
        dense = [[dict(row).get(key, 0) for key in cols] for row, _ in system]
        blocks.append((cols, RatMatrix(dense, len(cols)), [rhs for _, rhs in system]))
    return canon, blocks


def solve_extend(jet, h):
    """Extend a valid jet by the one valid level that symmetrizes to h, by solve.

    The unknown top tensor satisfies inhomogeneous Ricci identities (right
    sides from the lower levels) plus the Bianchi and curvature symmetries.
    """
    space = jet.space
    k1 = jet.order + 1
    # The defect formula only reads levels <= k1 - 2, all known.
    padded = CurvatureJet(space, jet.levels + [MultiTensor.zero(space, k1 + 4)])

    def ricci_rows():
        # defect = (T - T.swap) - rhs_of_lower_levels = -rhs here, so the
        # constraint on the unknown T is T - T.swap = -defect
        for i in range(1, k1):
            rhs_tensor = ricci_defect(padded, k1, i).scaled(-1)
            for idx in rhs_tensor.iter_indices():
                swapped = idx[:i - 1] + (idx[i], idx[i - 1]) + idx[i + 1:]
                if swapped > idx:
                    yield [(idx, 1), (swapped, -1)], rhs_tensor.get(idx)

    canon, blocks = bianchi_system(space, k1, extra_rows=ricci_rows())
    solution = {}
    for cols, matrix, rhs in blocks:
        x = solve_affine(matrix, rhs)
        if x is None:
            raise ArithmeticError("extension system is inconsistent")
        solution.update(zip(cols, x))
    top = _scatter(space, k1, canon, solution)
    top = top + reconstruct_linear(h - _symmetrize_level(top, k1))
    return CurvatureJet(space, jet.levels + [top])


def solve_jet_from_symjet(s):
    """The curvature jet with symmetrization s, one solve per level."""
    jet = CurvatureJet(s.space, [])
    for h in s.levels:
        jet = solve_extend(jet, h)
    return jet
