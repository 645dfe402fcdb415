"""Gram-Schmidt orthogonalization over an abstract Gram matrix.

Everything here is measure-agnostic: the input is the matrix of inner
products g[j][k] of some basis e_0..e_{N-1} plus the prescribed leading
factors b_{n,n}.  The output describes the unique orthogonal vectors

    E_n = (e_n - sum_{m<n} E_m b_{m,n}) / b_{n,n},   (E_j, E_k) = h_j d_{jk}

through the triangular connection matrices a (E over e) and b (e over E),
the squared norms h_n and the leading Gram determinants.

Gram-Schmidt over a Gram matrix is its LDL^T factorization: the pivots
are the ratios of consecutive leading Gram determinants, so one pass gives
the vectors, their norms and the determinants, in either backend.  Exact
matrices run the pass in integers (:func:`_exact_ldl`): the upper triangle
is lifted by one common scale, its rows are freed of their contents, it is
eliminated fraction-free, and each output entry is formed as one Fraction.  Float matrices run a float loop
(:func:`_float_ldl`).

The exact second stage of the block construction, in both its builds, and
the Hankel first-stage oracle (:func:`standard.hankel_build`) run
:func:`gram_schmidt`; :func:`parity_gram_schmidt` is the kernel of the
parity first stage (:func:`standard.parity_split_build`), the only float
caller besides that oracle.  The float second stage factors its weighted
connection by QR in :mod:`block` instead.  The bordered-determinant oracle, which never reads
the kernel's factorization, has one entry point per quantity:

* :func:`bordered_oracle` gives the column of E_n, h_n and Z_{n+1};
* :func:`oracle_connection_column` gives b_{m,n} for every m <= n;
* :func:`check_against_oracle` checks a whole result: exact ones against
  one :class:`linalg.LiftedElimination` of the Gram matrix, compared in
  integers, float ones degree by degree against :func:`bordered_oracle`.

Exact cofactors come from :mod:`linalg`'s fraction-free elimination, which
lifts each full row by its own scale and eliminates all of every row; the
kernel shares none of its code.
Float cofactors have one route, an LU solve for the last column of the
inverse of a leading block (:func:`_inverse_last_column`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import linalg
from ._numpy import np
from .errors import BadFactor, NotCheckerboard, NotPositiveDefinite, OracleMismatch
from .measures import GramMatrix
from .scalars import EXACT, FLOAT, one, zero

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
    ``inverse_coeffs[m][n]`` b_{m,n}: coefficient of E_m in e_n (empty from
                             the recurrence route, which does not form it)
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


def gram_schmidt(gram, leading_factors) -> OrthogonalizationResult:
    """Orthogonalize against a Gram matrix with prescribed leading factors.

    One LDL^T pass g = B^T D B (B unit upper triangular) in the scalars of
    the matrix: h_n = D_n / f_n^2, b = diag(f) B, a = B^{-1} diag(1/f), and
    the leading Gram determinants are the prefix products of D.  Exact
    matrices run it in integers (:func:`_exact_ldl`), float ones as a
    float loop (:func:`_float_ldl`).
    """
    g = _entries(gram)
    n_dim = len(g)
    if len(leading_factors) != n_dim:
        raise BadFactor(f"need {n_dim} leading factors, got {len(leading_factors)}")
    kind = linalg.matrix_kind(g) if n_dim else EXACT
    for f in leading_factors:
        if f == 0 or (isinstance(f, float) and not math.isfinite(f)):
            raise BadFactor("leading factors must be nonzero and finite")
    ldl = _exact_ldl if kind == EXACT else _float_ldl
    a, b, norms, dets = ldl(g, leading_factors)
    return OrthogonalizationResult(
        tuple(map(tuple, a)), tuple(map(tuple, b)), tuple(norms), tuple(leading_factors),
        tuple(dets),
    )


def _exact_ldl(g, leading_factors):
    """The LDL^T pass over the exact matrix ``g`` as a symmetric
    fraction-free elimination of its upper triangle.

    The triangle is lifted to integers by one common scale L, so the lifted
    matrix A stays symmetric, and row r of A is divided by its content
    (the gcd of the row, read off the triangle) g_r; the lifted minors of a
    Gram matrix share large per-row factors, so this keeps every integer
    below far smaller.  The rows are eliminated in place without swaps.
    Row k of S then holds, in each column j >= k, the minor of A on rows
    0..k and columns 0..k-1, j over g_0 ... g_k; an entry below the diagonal
    is never stored, as by the symmetry of A it is the entry S[k][i] of row
    k times g_k / g_i.  The pivot S[k][k] is M_{k+1} = L^{k+1} Z_{k+1} /
    (g_0 ... g_k).  With f_k = fp / fq,

        h_k = M_{k+1} g_k / (L M_k f_k^2),   Z_k = M_k g_0 ... g_{k-1} / L^k,
        b_{k,j} = f_k S[k][j] / S[k][k],      a_{m,n} = c_m / (M_n f_n),

    c the integers of the fraction-free back substitution of rows 0..n-1
    with c_n = M_n (the last-row cofactors of the leading (n+1)-column
    block of the scaled rows).  Every division inside is exact, and each
    output entry is one Fraction.  A pivot that is not positive raises
    NotPositiveDefinite at its degree.  Returns (a, b, h, Z) as lists.
    """
    n_dim = len(g)
    flat, scale = linalg.lift([x for k, row in enumerate(g) for x in row[k:]])
    s, start = [], 0
    for k in range(n_dim):
        s.append([0] * k + flat[start : start + n_dim - k])
        start += n_dim - k
    content = [math.gcd(*(row[k] for row in s[:k]), *s[k][k:]) or 1 for k in range(n_dim)]
    for k, (row, g_k) in enumerate(zip(s, content)):
        if g_k > 1:
            row[k:] = [y // g_k for y in row[k:]]
    ratios = [f.as_integer_ratio() for f in leading_factors]
    empty = Fraction(0)
    norms, dets, b = [], [Fraction(1)], []
    minors, spanned, power = [1], 1, 1  # M_0 .. M_k, g_0 ... g_k and L^k
    for k, ((fp, fq), g_k) in enumerate(zip(ratios, content)):
        top = s[k]
        pivot, prev = top[k], minors[-1]
        h = Fraction(pivot * g_k * fq * fq, scale * prev * fp * fp)
        if pivot <= 0:
            raise NotPositiveDefinite(f"pivot h_{k} = {h} is not positive", degree=k)
        for i in range(k + 1, n_dim):
            row, x = s[i], top[i] * g_k // content[i]
            if x:
                row[i:] = [(pivot * y - x * t) // prev for y, t in zip(row[i:], top[i:])]
            else:
                row[i:] = [pivot * y // prev for y in row[i:]]
        norms.append(h)
        minors.append(pivot)
        spanned *= g_k
        power *= scale
        dets.append(Fraction(pivot * spanned, power))
        b.append([empty] * k + [Fraction(fp * y, fq * pivot) for y in top[k:]])
    a = [[empty] * n_dim for _ in range(n_dim)]
    for n, (fp, fq) in enumerate(ratios):
        c = [0] * n + [minors[n]]
        for m in range(n - 1, -1, -1):
            c[m] = -sum(map(mul, s[m][m + 1 : n + 1], c[m + 1 :])) // s[m][m]
        den = minors[n] * fp
        for m in range(n + 1):
            a[m][n] = Fraction(c[m] * fq, den)
    return a, b, norms, dets


def _float_ldl(g, leading_factors):
    """The LDL^T pass over the float matrix ``g``, column by column.

    A pivot at or below PIVOT_FLOOR times the largest entry of its leading
    block raises NotPositiveDefinite at its degree.  Returns (a, b, h, Z)
    as lists.
    """
    kind = FLOAT
    n_dim = len(g)
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
        if h <= PIVOT_FLOOR * float(block_max):
            raise NotPositiveDefinite(
                f"float pivot h_{col} = {h} below conditioning floor", degree=col
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
    return a, [[f * x for x in r] for f, r in zip(leading_factors, unit)], norms, dets


def require_checkerboard(g, what):
    """Raise NotCheckerboard, naming ``what`` and the entry, at the first
    g[j][k] != 0 with j + k odd."""
    for j, row in enumerate(g):
        for k in range(1 - j % 2, len(row), 2):
            if row[k] != 0:
                raise NotCheckerboard(f"{what}: entry ({j},{k}) breaks the parity structure")


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
    require_checkerboard(g, "parity split")
    kind = linalg.matrix_kind(g)
    a = [[zero(kind)] * n_dim for _ in range(n_dim)]
    b = [[zero(kind)] * n_dim for _ in range(n_dim)]
    norms = [zero(kind)] * n_dim
    sector_dets = []
    for idx in (range(0, n_dim, 2), range(1, n_dim, 2)):
        try:
            res = gram_schmidt(
                [[g[j][k] for k in idx] for j in idx], [leading_factors[j] for j in idx]
            )
        except NotPositiveDefinite as exc:
            exc.degree = idx[exc.degree]
            raise
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


def _inverse_last_column(block):
    """x = B^-1 e_n, the last column of B^-1, for a float (n+1) x (n+1) block B.

    By Cramer's rule x holds the last-row cofactors of B divided by det(B),
    so x_n = Z_n / Z_{n+1}; one LU solve gives all of them, with errors that
    follow the condition of B rather than that of each bordered minor.  A
    vanishing Z_{n+1} (a singular LU) or Z_n (x_n = 0) raises
    NotPositiveDefinite at degree n.
    """
    n = len(block) - 1
    try:
        x = np.linalg.solve(np.array(block, dtype=float), np.eye(n + 1)[:, n])
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(f"leading minor of size {n + 1} vanishes", degree=n) from None
    if x[n] == 0:
        raise NotPositiveDefinite(f"leading minor of size {n} vanishes", degree=n)
    return x


def bordered_oracle(gram, n, leading_factor):
    """E_n, h_n and Z_{n+1} from the bordered determinants of ``gram``.

    The determinant with Gram rows 0..n-1 and the symbolic basis row is
    expanded along its last row; dividing its cofactors by Z_n and by the
    leading factor gives the column of E_n on e_0..e_n that gram_schmidt
    produces, and h_n = b_{n,n}^{-2} Z_{n+1} / Z_n.  Exact blocks take all
    of it from one :func:`linalg.bordered_minors` call on the leading
    (n+1) x (n+1) block B.  Float blocks take the cofactors over Z_{n+1} as
    x = :func:`_inverse_last_column` of B: the column is x / x_n and
    h_n = 1 / x_n.  Nothing here reads the kernel's factorization.
    Returns (column, h_n, Z_{n+1}).
    """
    g = _entries(gram)
    if not 0 <= n < len(g):
        raise IndexError(f"column {n} outside matrix of size {len(g)}")
    if leading_factor == 0:
        raise BadFactor("leading factor must be nonzero")
    block = [row[: n + 1] for row in g[: n + 1]]
    if linalg.matrix_kind(block) == FLOAT:
        x = _inverse_last_column(block)
        column = tuple(float(v / x[n]) / leading_factor for v in x)
        return column, float(1.0 / x[n]) / leading_factor**2, float(np.linalg.det(block))
    cofactors, z_here = linalg.bordered_minors(block)
    z_prev = cofactors[n]
    if z_prev == 0:
        raise NotPositiveDefinite(f"leading minor of size {n} vanishes", degree=n)
    column = tuple(c / z_prev / leading_factor for c in cofactors)
    return column, z_here / z_prev / leading_factor**2, z_here


def oracle_connection_column(gram, n, leading_factors):
    """b_{m,n}, m = 0..n: the coefficients of e_n on E_0..E_n.

    b_{m,n} = f_m (g[n] . c^(m)) / Z_{m+1}, the bordered determinant with
    Gram rows 0..m-1 and last row g[n] over the leading minor, where c^(m)
    are the last-row cofactors of the leading (m+1) x (m+1) block.  Exact
    matrices take every m from one :class:`linalg.LiftedElimination` of the
    leading (n+1) x (n+1) block: in its lifted rows R (row r scaled by the
    rational d_r) b_{m,n} = f_m (R[n] . c) d_m / (d_n Z_{m+1}), with c and
    Z_{m+1} the lifted cofactors and minor of degree m.  Float matrices take
    c^(m) / Z_{m+1} as :func:`_inverse_last_column` of each leading block,
    one LU solve per m and no determinant.
    """
    g = _entries(gram)
    block = [row[: n + 1] for row in g[: n + 1]]
    if linalg.matrix_kind(block) == FLOAT:
        leading = ([row[: m + 1] for row in block[: m + 1]] for m in range(n + 1))
        return tuple(
            f * float(sum(map(mul, block[n], _inverse_last_column(b))))
            for f, b in zip(leading_factors, leading)
        )
    elim = linalg.LiftedElimination(block)
    last, d = elim.rows[n], elim.scales
    return tuple(
        f * Fraction(sum(map(mul, last, elim.cofactors(m))) * d[m], d[n] * elim.minor(m + 1))
        for m, f in enumerate(leading_factors)
    )


def check_against_oracle(gram, result: OrthogonalizationResult, basis, stage):
    """Recompute every vector of ``result`` from bordered determinants.

    ``basis`` is the monomial coefficient matrix of the vectors the Gram
    matrix is taken over (column k holds e_k).  Exact results must agree
    exactly, column by column: the connection a, the norm h, the leading
    Gram determinant Z and the inverse connection b
    (:func:`_exact_mismatch`).  Comparing connection columns is the same test
    as comparing monomial coefficients because the basis columns are
    independent.  Float results are compared as monomial coefficients:
    within ORACLE_RTOL times the largest oracle coefficient, and norms within
    ORACLE_RTOL of the oracle norm.  The oracle reads the Gram matrix and the
    prescribed leading factors only, never the coefficients it checks.  A
    disagreement raises OracleMismatch naming ``stage`` and the degree of the
    basis vector.
    """
    g = _entries(gram)
    if linalg.matrix_kind(g) == EXACT:
        bad = _exact_mismatch(g, result)
    else:
        bad = next((n for n in range(result.size) if not _float_agrees(g, result, basis, n)), None)
    if bad is not None:
        degree = max(k for k, row in enumerate(basis) if row[bad] != 0)
        raise OracleMismatch(f"{stage} at degree {degree}", degree=degree)


def _equals(value, num, den):
    """Whether the rational (or float) ``value`` equals num / den, for
    integers num and den != 0, by cross-multiplication."""
    p, q = value.as_integer_ratio()
    return p * den == num * q


def _exact_mismatch(g, result):
    """The first index n whose column of ``result`` leaves the bordered
    determinants of the exact Gram matrix ``g``, or None.

    One :class:`linalg.LiftedElimination` of ``g`` gives, for every n, the
    lifted cofactors c of the leading (n+1)-column block and the lifted
    minor z = Z_{n+1} s_0 ... s_n (s_r = dp / dq the rational scale of row
    r, R the lifted rows).  With f_n = fp / fq the prescribed factor, the
    oracle values are

        a_{m,n} = c_m fq / (c_n fp),      h_n = z fq^2 / (s_n c_n fp^2),
        Z_{n+1} = z / (s_0 ... s_n),      b_{m,n} = f_m (R[n] . c^(m)) s_m / (s_n z_m)

    (z_m the lifted Z_{m+1}), and each stored value p / q is compared with
    its ratio num / den of integers as p den == num q, without Fraction
    arithmetic.  Entries below the diagonal of a and b must vanish.
    """
    elim = linalg.LiftedElimination(g)
    rows = elim.rows
    size = result.size
    cofactors, b_ratios = [], []  # c^(m), and f_m s_m / z_m as (num, den)
    for n in range(size):
        f = result.factors[n]
        if f == 0:
            raise BadFactor("leading factor must be nonzero")
        c = elim.cofactors(n)
        if c[n] == 0:
            raise NotPositiveDefinite(f"leading minor of size {n} vanishes", degree=n)
        z = elim.minor(n + 1)
        fp, fq = f.as_integer_ratio()
        dp, dq = elim.scales[n].as_integer_ratio()
        zp, zq = elim.prefix[n + 1].as_integer_ratio()
        cofactors.append(c)
        b_ratios.append((fp * dp, fq * dq * z))
        a_den = c[n] * fp
        ok = (
            all(_equals(result.coeffs[m][n], c[m] * fq, a_den) for m in range(n + 1))
            and _equals(result.norms[n], z * fq * fq * dq, dp * a_den * fp)
            and _equals(result.gram_dets[n + 1], z * zq, zp)
            and all(
                _equals(result.inverse_coeffs[m][n], bp * sum(map(mul, rows[n], c_m)) * dq, bq * dp)
                for m, ((bp, bq), c_m) in enumerate(zip(b_ratios, cofactors))
            )
            and all(
                result.coeffs[m][n] == 0 and result.inverse_coeffs[m][n] == 0
                for m in range(n + 1, size)
            )
        )
        if not ok:
            return n
    return None


def _float_agrees(g, result, basis, n):
    """Whether float column n of ``result`` matches :func:`bordered_oracle`
    as monomial coefficients, and its norm the oracle norm, to ORACLE_RTOL."""
    oracle, h_oracle, _ = bordered_oracle(g, n, result.factors[n])
    oracle += (0.0,) * (result.size - n - 1)
    pairs = linalg.mat_mul(basis, list(zip(oracle, result.vector(n))))
    scale = max(abs(o) for o, _ in pairs)
    return all(abs(o - s) <= ORACLE_RTOL * scale for o, s in pairs) and abs(
        h_oracle - result.norms[n]
    ) <= ORACLE_RTOL * abs(h_oracle)


def checkerboard_det(matrix, last_row_exempt=False):
    """Factor the determinant of a checkerboard matrix into parity blocks.

    The matrix must vanish wherever the row+column index sum is odd, except
    possibly in the last row when ``last_row_exempt``.  Returns
    (det, even_block_det, odd_block_det); the factorization det = even * odd
    holds regardless of the exempt entries.
    """
    m = _entries(matrix)
    if any(len(row) != len(m) for row in m):
        raise NotCheckerboard("matrix must be square")
    require_checkerboard(m[:-1] if last_row_exempt else m, "matrix")
    even, odd = ([row[p::2] for row in m[p::2]] for p in (0, 1))
    return linalg.det(m), linalg.det(even), linalg.det(odd)
