"""Gram-Schmidt orthogonalization over an abstract Gram matrix.

Everything here is measure-agnostic: the input is the matrix of inner
products g[j][k] of some basis e_0..e_{N-1} plus the prescribed leading
factors b_{n,n}.  The output describes the unique orthogonal vectors

    E_n = (e_n - sum_{m<n} E_m b_{m,n}) / b_{n,n},   (E_j, E_k) = h_j d_{jk}

through the triangular connection matrices a (E over e) and b (e over E),
the squared norms h_n and the leading Gram determinants.

Gram-Schmidt over a Gram matrix is its LDL^T factorization: the pivots
are the ratios of consecutive leading Gram determinants, so one pass gives
the vectors, their norms and the determinants, in either backend.

Both stages of the block construction run through this module: the
kernels :func:`gram_schmidt` and :func:`parity_gram_schmidt` build the
vectors, and :func:`check_against_oracle` recomputes them from bordered
determinants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import linalg
from .errors import BadFactor, NotCheckerboard, NotPositiveDefinite, OracleMismatch
from .measures import GramMatrix
from .scalars import EXACT, one, zero

# float pivots at or below this times the magnitude of the leading block that
# produced them mean the matrix is numerically indefinite; stopping beats
# returning garbage (Hankel blocks are graded, so the scale must follow the
# block, not the whole matrix)
PIVOT_FLOOR = 1e-13

# relative agreement a float build must reach with its determinant oracle
ORACLE_RTOL = 1e-9


def _entries(gram):
    if isinstance(gram, GramMatrix):
        return gram.rows()
    return [list(row) for row in gram]


@dataclass(frozen=True)
class OrthogonalizationResult:
    """Connection data of one orthogonalization pass.

    ``coeffs[m][n]``         a_{m,n}: coefficient of e_m in E_n (upper triangular)
    ``inverse_coeffs[m][n]`` b_{m,n}: coefficient of E_m in e_n
    ``norms[n]``             h_n = (E_n, E_n)
    ``factors[n]``           the prescribed b_{n,n}
    ``gram_dets[k]``         determinant of the leading k x k block (index 0 is 1)
    """

    coeffs: tuple
    inverse_coeffs: tuple
    norms: tuple
    factors: tuple
    gram_dets: tuple

    @property
    def size(self):
        return len(self.norms)

    def vector(self, n):
        """Coefficient column of E_n on the input basis."""
        return tuple(self.coeffs[m][n] for m in range(self.size))


def gram_determinants(gram):
    """Leading principal minors: Z[0] = 1, Z[k] = det of the k x k block."""
    return tuple(linalg.leading_minors(_entries(gram)))


def gram_schmidt(gram, leading_factors) -> OrthogonalizationResult:
    """Orthogonalize against a Gram matrix with prescribed leading factors.

    One LDL^T pass g = B^T D B (B unit upper triangular) in the scalars of
    the matrix: h_n = D_n / f_n^2, b = diag(f) B, a = B^{-1} diag(1/f), and
    the leading Gram determinants are the prefix products of D.
    """
    g = _entries(gram)
    n_dim = len(g)
    if len(leading_factors) != n_dim:
        raise BadFactor(f"need {n_dim} leading factors, got {len(leading_factors)}")
    kind = linalg.matrix_kind(g) if n_dim else EXACT
    for f in leading_factors:
        if f == 0 or (isinstance(f, float) and not math.isfinite(f)):
            raise BadFactor("leading factors must be nonzero and finite")
    unit = [[zero(kind)] * n_dim for _ in range(n_dim)]  # B
    scaled = [[zero(kind)] * n_dim for _ in range(n_dim)]  # D B
    norms = []
    dets = [one(EXACT)]
    block_max = zero(kind)
    for col in range(n_dim):
        block_max = max(block_max, max(abs(g[col][k]) for k in range(col + 1)))
        scaled[col][col:] = [
            g[col][j] - sum(unit[m][col] * scaled[m][j] for m in range(col))
            for j in range(col, n_dim)
        ]
        pivot = scaled[col][col]
        h = pivot / leading_factors[col] ** 2
        if kind == EXACT:
            if h <= 0:
                raise NotPositiveDefinite(f"pivot h_{col} = {h} is not positive")
        elif h <= PIVOT_FLOOR * float(block_max):
            raise NotPositiveDefinite(
                f"float pivot h_{col} = {h} below conditioning floor"
            )
        unit[col][col:] = [x / pivot for x in scaled[col][col:]]
        norms.append(h)
        dets.append(dets[-1] * pivot)
    # a = B^{-1} by back-substitution, column n scaled by 1/f_n
    a = [[zero(kind)] * n_dim for _ in range(n_dim)]
    for n in range(n_dim):
        a[n][n] = one(kind)
        for m in range(n - 1, -1, -1):
            a[m][n] = -sum(unit[m][j] * a[j][n] for j in range(m + 1, n + 1))
        for m in range(n + 1):
            a[m][n] /= leading_factors[n]
    return OrthogonalizationResult(
        tuple(map(tuple, a)),
        tuple(tuple(f * x for x in r) for f, r in zip(leading_factors, unit)),
        tuple(norms),
        tuple(leading_factors),
        tuple(dets),
    )


def parity_gram_schmidt(gram, leading_factors) -> OrthogonalizationResult:
    """:func:`gram_schmidt` for a checkerboard Gram matrix, one parity at a time.

    When g[j][k] vanishes for every odd j + k, the even- and odd-indexed
    vectors never mix: each sector is orthogonalized on its own and the two
    results are interleaved.  The leading Gram determinants are products of
    the sector determinants.  Same signature and result as the full kernel.
    """
    g = _entries(gram)
    n_dim = len(g)
    if len(leading_factors) != n_dim:
        raise BadFactor(f"need {n_dim} leading factors, got {len(leading_factors)}")
    if any(g[j][k] != 0 for j in range(n_dim) for k in range(n_dim) if (j + k) % 2):
        raise NotCheckerboard("parity split needs g[j][k] = 0 for odd j + k")
    kind = linalg.matrix_kind(g)
    a = [[zero(kind)] * n_dim for _ in range(n_dim)]
    b = [[zero(kind)] * n_dim for _ in range(n_dim)]
    norms = [zero(kind)] * n_dim
    sector_dets = []
    for idx in (range(0, n_dim, 2), range(1, n_dim, 2)):
        res = gram_schmidt(
            [[g[j][k] for k in idx] for j in idx], [leading_factors[j] for j in idx]
        )
        for c, col in enumerate(idx):
            norms[col] = res.norms[c]
            for r, row in enumerate(idx):
                a[row][col] = res.coeffs[r][c]
                b[row][col] = res.inverse_coeffs[r][c]
        sector_dets.append(res.gram_dets)
    even, odd = sector_dets
    return OrthogonalizationResult(
        tuple(map(tuple, a)),
        tuple(map(tuple, b)),
        tuple(norms),
        tuple(leading_factors),
        tuple(even[(k + 1) // 2] * odd[k // 2] for k in range(n_dim + 1)),
    )


def determinant_oracle_vector(gram, n, leading_factor):
    """Coefficients of E_n on e_0..e_n from the bordered-determinant formula.

    The determinant with Gram rows 0..n-1 and the symbolic basis row is
    expanded along its last row; dividing by Z_{n-1} and by the leading
    factor gives the same column that gram_schmidt produces.
    """
    g = _entries(gram)
    if not 0 <= n < len(g):
        raise IndexError(f"column {n} outside matrix of size {len(g)}")
    if leading_factor == 0:
        raise BadFactor("leading factor must be nonzero")
    z_prev = linalg.det([row[:n] for row in g[:n]])
    if z_prev == 0:
        raise NotPositiveDefinite(f"leading minor of size {n} vanishes")
    rows = list(range(n))
    coeffs = []
    for k in range(n + 1):
        cols = [c for c in range(n + 1) if c != k]
        minor = linalg.det_submatrix(g, rows, cols)
        coeffs.append((-1) ** (n + k) * minor / z_prev / leading_factor)
    return tuple(coeffs)


def oracle_norm(gram, n, leading_factor):
    """h_n = b_{n,n}^{-2} Z_{n+1}/Z_n in size-indexed determinants."""
    g = _entries(gram)
    z_prev = linalg.det([row[:n] for row in g[:n]])
    z_here = linalg.det([row[: n + 1] for row in g[: n + 1]])
    return z_here / z_prev / leading_factor**2


def oracle_connection_b(gram, m, n, leading_factor):
    """b_{m,n} = b_{m,m} * (bordered determinant with last row g[n]) / Z_{m+1}."""
    g = _entries(gram)
    bordered = [row[: m + 1] for row in g[:m]]
    bordered.append(list(g[n][: m + 1]))
    z_m = linalg.det([row[: m + 1] for row in g[: m + 1]])
    return leading_factor * linalg.det(bordered) / z_m


def connection_b(gram, result: OrthogonalizationResult, m, n):
    """b_{m,n} of ``result`` from its bordered determinant.

    Must reproduce the inverse of the a-matrix; this closed form is the
    cross-check for the inductive loop.
    """
    if not (0 <= m <= n < result.size):
        raise IndexError(f"require 0 <= m <= n < {result.size}")
    return oracle_connection_b(gram, m, n, result.factors[m])


def check_against_oracle(gram, result: OrthogonalizationResult, basis, stage):
    """Recompute every vector of ``result`` from bordered determinants.

    ``basis`` is the monomial coefficient matrix of the vectors the Gram
    matrix is taken over (column k holds e_k).  Exact results must agree
    exactly, norms and leading Gram determinants included; the connection
    columns are compared directly, which is the same test as comparing
    monomial coefficients because the basis columns are independent.  Float
    results are compared as monomial coefficients: within ORACLE_RTOL times
    the largest oracle coefficient, and norms within ORACLE_RTOL of the
    oracle norm.  The oracle reads the Gram matrix and the prescribed
    leading factors only, never the coefficients it checks.  A disagreement
    raises OracleMismatch naming ``stage`` and the degree of the basis
    vector.
    """
    g = _entries(gram)
    kind = linalg.matrix_kind(g)
    z_prev = linalg.det([])  # the empty leading minor, 1
    for n in range(result.size):
        factor = result.factors[n]
        z_here = linalg.det([row[: n + 1] for row in g[: n + 1]])
        oracle = determinant_oracle_vector(g, n, factor)
        oracle += (zero(kind),) * (result.size - n - 1)
        stored = result.vector(n)
        h_oracle = z_here / z_prev / factor**2
        if kind == EXACT:
            ok = (
                oracle == stored
                and h_oracle == result.norms[n]
                and z_here == result.gram_dets[n + 1]
            )
        else:
            pairs = linalg.mat_mul(basis, list(zip(oracle, stored)))
            scale = max(abs(o) for o, _ in pairs)
            ok = all(
                abs(o - s) <= ORACLE_RTOL * scale for o, s in pairs
            ) and abs(h_oracle - result.norms[n]) <= ORACLE_RTOL * abs(h_oracle)
        if not ok:
            degree = max(k for k, row in enumerate(basis) if row[n] != 0)
            raise OracleMismatch(f"{stage} at degree {degree}")
        z_prev = z_here


def _checkerboard_blocks(matrix):
    n = len(matrix)
    even_idx = list(range(0, n, 2))
    odd_idx = list(range(1, n, 2))
    even = [[matrix[j][k] for k in even_idx] for j in even_idx]
    odd = [[matrix[j][k] for k in odd_idx] for j in odd_idx]
    return even, odd


def checkerboard_det(matrix, last_row_exempt=False):
    """Factor the determinant of a checkerboard matrix into parity blocks.

    The matrix must vanish wherever the row+column index sum is odd, except
    possibly in the last row when ``last_row_exempt``.  Returns
    (det, even_block_det, odd_block_det); the factorization det = even * odd
    holds regardless of the exempt entries.
    """
    m = _entries(matrix)
    n = len(m)
    for j, row in enumerate(m):
        if len(row) != n:
            raise NotCheckerboard("matrix must be square")
        for k, x in enumerate(row):
            if (j + k) % 2 and x != 0 and not (last_row_exempt and j == n - 1):
                raise NotCheckerboard(f"entry ({j},{k}) breaks the parity structure")
    even, odd = _checkerboard_blocks(m)
    return linalg.det(m), linalg.det(even), linalg.det(odd)
