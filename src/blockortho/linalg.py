"""Small dense linear algebra over exact rationals and floats.

Matrices are lists (or tuples) of rows.  Exact determinants use
fraction-free Bareiss elimination after clearing row denominators, so
intermediate swell stays bounded, and one such pass gives all the bordered
minors of a Gram block; float determinants delegate to numpy.
Rank decisions in the exact backend are genuinely discrete; the float path
reports the singular-value gap it used.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm, nan

import numpy as np

from .scalars import EXACT, FLOAT, kind_of, one, zero


_KIND_OF_TYPE = {Fraction: EXACT, int: EXACT, float: FLOAT}


def matrix_kind(matrix):
    """EXACT or FLOAT for a matrix of one scalar kind; EXACT when empty.

    Entries are classified by their set of types, so a matrix costs one pass
    of ``type`` calls.  Any other type (bool, numpy scalars, subclasses)
    sends the matrix through ``kind_of`` entry by entry, which accepts or
    rejects it as it does a single scalar.
    """
    kinds = {_KIND_OF_TYPE.get(t) for t in set(map(type, chain.from_iterable(matrix)))}
    if None in kinds:
        kinds = {kind_of(x) for row in matrix for x in row}
    if not kinds:
        return EXACT
    if len(kinds) > 1:
        from .errors import KindMismatch

        raise KindMismatch("matrix mixes exact and float entries")
    return kinds.pop()


def lift(values):
    """Integers ``ints`` and a positive integer ``scale`` with
    values[k] = ints[k] / scale, for rational ``values``.

    ``scale`` is the lcm of the denominators, and each entry is taken as
    ``numerator * (scale // denominator)``, so no Fraction arithmetic is done.
    """
    scale = lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values], scale


def _lift(rows):
    """Integer rows and the product of their scales, each row :func:`lift`-ed."""
    int_rows = []
    scale = 1
    for row in rows:
        ints, den = lift(row)
        scale *= den
        int_rows.append(ints)
    return int_rows, scale


def _det_bareiss_int(rows):
    """Determinant of a square integer matrix by fraction-free elimination."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _cofactors_int(top):
    """Signed maximal minors c_k = (-1)^(n+k) det(top without column k).

    ``top`` is an n x (n+1) integer matrix.  One Bareiss pass (row swaps
    among these n rows) makes it upper triangular; c_n is the leading minor
    and the others follow from U c = 0 by fraction-free back substitution,
    whose divisions are exact because the c_k are integers.  A singular
    leading block (c_n = 0) has no such pass; its minors are taken one by
    one.
    """
    n = len(top)
    m = [list(r) for r in top]
    sign = 1
    prev = 1
    for k in range(n):
        swap = next((r for r in range(k, n) if m[r][k]), None)
        if swap is None:
            return [
                (-1) ** (n + j) * _det_bareiss_int([row[:j] + row[j + 1 :] for row in top])
                for j in range(n + 1)
            ]
        if swap != k:
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot_row = m[k]
        pivot = pivot_row[k]
        for row in m[k + 1 :]:
            x = row[k]
            for j in range(k + 1, n + 1):
                row[j] = (row[j] * pivot - x * pivot_row[j]) // prev
            row[k] = 0
        prev = pivot
    c = [0] * n + [sign * prev]
    for k in range(n - 1, -1, -1):
        row = m[k]
        c[k], rest = divmod(-sum(row[j] * c[j] for j in range(k + 1, n + 1)), row[k])
        if rest:
            raise ArithmeticError(f"inexact back substitution at column {k}")
    return c


def det(matrix):
    """Determinant; exact for rational entries, numpy LU for floats.

    The empty 0x0 matrix has determinant one (null-determinant convention).
    """
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    if matrix_kind(matrix) == FLOAT:
        return float(np.linalg.det(np.array(matrix, dtype=float)))
    int_rows, scale = _lift(matrix)
    return Fraction(_det_bareiss_int(int_rows), scale)


def bordered_minors(block):
    """Signed cofactors of the last row of a square block, and its determinant.

    For an (n+1) x (n+1) ``block`` returns ``(c, det(block))`` with
    c_k = (-1)^(n+k) det(first n rows without column k), so c_n is the
    leading minor Z_n, det(block) = Z_{n+1} = sum_k block[n][k] c_k, and c
    spans the null space of the first n rows whenever Z_n != 0.

    Exact blocks are lifted to integers once and reduced by one Bareiss pass
    (:func:`_cofactors_int`).  Float blocks take the same numpy determinants
    as the minor-by-minor route, in its order: det(block), Z_n and, unless
    Z_n = 0, the other minors in one stacked call.  When Z_n = 0 those come
    back as NaN; every caller stops at a vanishing Z_n.
    """
    n = len(block) - 1
    if matrix_kind(block) == FLOAT:
        a = np.array(block, dtype=float)
        whole = float(np.linalg.det(a))
        if n == 0:
            return (1.0,), whole
        z_n = float(np.linalg.det(a[:n, :n]))
        if z_n == 0:
            return (nan,) * n + (z_n,), whole
        minors = np.linalg.det(np.stack([np.delete(a[:n], k, axis=1) for k in range(n)]))
        cofactors = tuple((-1) ** (n + k) * float(x) for k, x in enumerate(minors))
        return cofactors + (z_n,), whole
    top, top_scale = _lift(block[:n])
    (last,), last_scale = _lift(block[n:])
    c = _cofactors_int(top)
    whole = Fraction(sum(x * y for x, y in zip(last, c)), top_scale * last_scale)
    return tuple(Fraction(x, top_scale) for x in c), whole


def leading_minors(matrix):
    """Determinants of the leading k x k blocks, k = 0..n (index 0 is 1)."""
    n = len(matrix)
    return [det([row[:k] for row in matrix[:k]]) for k in range(n + 1)]


def mat_mul(a, b):
    """The product a b, every entry summed over ascending inner index.

    Zero entries of either factor are skipped, so a triangular factor costs
    only its nonzero part.  Each sum starts from the backend zero of ``a``,
    so an entry without a nonzero term is ``Fraction(0)`` or ``0.0``, and a
    float entry equals the full ascending sum bit for bit (adding a zero to
    a sum begun at +0.0 never changes it).
    """
    cols = len(b[0]) if b else 0
    start = zero(matrix_kind(a))
    b_nonzero = [[(j, y) for j, y in enumerate(row) if y != 0] for row in b]
    out = []
    for row in a:
        acc = [start] * cols
        for x, b_row in zip(row, b_nonzero):
            if x != 0:
                for j, y in b_row:
                    acc[j] += x * y
        out.append(acc)
    return out


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def identity(n, kind=EXACT):
    return [[one(kind) if i == j else zero(kind) for j in range(n)] for i in range(n)]


def rref(matrix):
    """Reduced row-echelon form over Fractions; returns (rows, pivot_columns)."""
    m = [[Fraction(x) for x in row] for row in matrix]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def rank_exact(matrix):
    if not matrix or not matrix[0]:
        return 0
    _, pivots = rref(matrix)
    return len(pivots)


def nullspace_exact(matrix):
    """Basis of the right null space (list of column vectors of Fractions)."""
    if not matrix:
        return []
    n_cols = len(matrix[0])
    rows, pivots = rref(matrix)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n_cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis


def solve_exact(matrix, rhs):
    """Particular solution of A x = rhs with free variables set to zero.

    Returns None when the system is inconsistent.
    """
    n_rows = len(matrix)
    if n_rows == 0:
        return []
    n_cols = len(matrix[0])
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    rows, pivots = rref(aug)
    if n_cols in pivots:
        return None
    x = [Fraction(0)] * n_cols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][n_cols]
    return x


def rank_float(matrix, rel_gap=1e-10):
    """(rank, gap) from singular values; gap is s[rank]/s[0] (0 when full)."""
    a = np.array(matrix, dtype=float)
    if a.size == 0:
        return 0, 0.0
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0.0:
        return 0, 0.0
    rel = s / s[0]
    rank = int(np.sum(rel > rel_gap))
    gap = float(rel[rank]) if rank < len(s) else 0.0
    return rank, gap
