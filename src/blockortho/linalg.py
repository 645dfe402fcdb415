"""Small dense linear algebra over exact rationals and floats.

Matrices are lists (or tuples) of rows.  The exact determinant uses
fraction-free Bareiss elimination after clearing row denominators, so
intermediate swell stays bounded; the float determinant delegates to numpy.
Rank decisions in the exact backend are genuinely discrete; the float path
reports the singular-value gap it used.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from .scalars import EXACT, FLOAT, kind_of, one, zero


def matrix_kind(matrix):
    kinds = {kind_of(x) for row in matrix for x in row}
    if not kinds:
        return EXACT
    if len(kinds) > 1:
        from .errors import KindMismatch

        raise KindMismatch("matrix mixes exact and float entries")
    return kinds.pop()


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


def det(matrix):
    """Determinant; exact for rational entries, numpy LU for floats.

    The empty 0x0 matrix has determinant one (null-determinant convention).
    """
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    if matrix_kind(matrix) == FLOAT:
        return float(np.linalg.det(np.array(matrix, dtype=float)))
    scale = Fraction(1)
    int_rows = []
    for row in matrix:
        row = [Fraction(x) for x in row]
        den = lcm(*(x.denominator for x in row)) if row else 1
        scale *= den
        int_rows.append([int(x * den) for x in row])
    return Fraction(_det_bareiss_int(int_rows), 1) / scale


def det_submatrix(matrix, rows, cols):
    return det([[matrix[r][c] for c in cols] for r in rows])


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
