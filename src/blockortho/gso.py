"""Gram-Schmidt orthogonalization over an abstract Gram matrix.

Everything here is measure-agnostic: the input is the matrix of inner
products g[j][k] of some basis e_0..e_{N-1} plus the prescribed leading
factors b_{n,n}.  The output describes the unique orthogonal vectors

    E_n = (e_n - sum_{m<n} E_m b_{m,n}) / b_{n,n},   (E_j, E_k) = h_j d_{jk}

through the triangular connection matrices a (E over e) and b (e over E),
the squared norms h_n and the leading Gram determinants.  An exact pass
forms a, h and Z, and b, the inverse of a, is formed from a when read; a
float pass keeps the b its factorization gives.

Gram-Schmidt over a Gram matrix is its LDL^T factorization: the pivots
are the ratios of consecutive leading Gram determinants, so one pass gives
the vectors, their norms and the determinants, in either backend.  Exact
matrices run the pass in integers (:func:`_exact_ldl`): the upper triangle
is lifted by one common scale, its rows are freed of their contents, it is
eliminated fraction-free, and each output entry is formed as one Fraction.
Float matrices run a float loop (:func:`_float_ldl`).

Every exact stage of :mod:`block` and the Hankel first-stage oracle
(:func:`standard.hankel_build`) run :func:`gram_schmidt`, and
:func:`parity_gram_schmidt` is the kernel of the parity first stage; float
stages of :mod:`block` factor by QR instead.  The checks never read the
kernel's factorization:

* :func:`bordered_oracle` gives the column of E_n, h_n and Z_{n+1};
* :func:`oracle_connection_column` gives b_{m,n} for every m <= n;
* :func:`check_against_oracle` checks a whole result: exact ones by an
  LDL^T certificate (:func:`_exact_mismatch`), which reads g and the values
  it checks and shares no code with the kernel; float ones degree by degree
  against :func:`bordered_oracle`.

Exact cofactors come from :mod:`linalg`'s fraction-free elimination; float
ones from an LU solve for the last column of the inverse of a leading block
(:func:`_inverse_last_column`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
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
    ``inverse_coeffs[m][n]`` b_{m,n}: coefficient of E_m in e_n, the inverse
                             of ``coeffs``: a float pass gives diag(f) B from
                             its factorization, as accurate as a (an inverse
                             of the float a would add the condition of B to
                             its error); otherwise formed from a on first read
    ``norms[n]``             h_n = (E_n, E_n)
    ``factors[n]``           the prescribed b_{n,n}
    ``gram_dets[k]``         determinant of the leading k x k block (index 0 is 1)
    """

    coeffs: tuple
    norms: tuple
    factors: tuple
    gram_dets: tuple
    _inverse: tuple = field(default=None, repr=False, compare=False)

    @property
    def size(self):
        return len(self.norms)

    @cached_property
    def inverse_coeffs(self):
        if self._inverse is not None:
            return self._inverse
        # exact columns the check or the P product has lifted are not lifted again
        return linalg.inverse_upper(self.coeffs, columns=vars(self).get("_lifted_columns"))

    @cached_property
    def _lifted_columns(self):
        """The columns of exact ``coeffs`` as :func:`linalg._lifted_span` gives
        them, lifted once for the check and for P."""
        return [linalg._lifted_span(col) for col in zip(*self.coeffs)]

    def vector(self, n):
        """Coefficient column of E_n on the input basis."""
        return tuple(self.coeffs[m][n] for m in range(self.size))


def gram_schmidt(gram, leading_factors) -> OrthogonalizationResult:
    """Orthogonalize against a Gram matrix with prescribed leading factors.

    One LDL^T pass g = B^T D B (B unit upper triangular) in the scalars of
    the matrix: h_n = D_n / f_n^2, a = B^{-1} diag(1/f), b = diag(f) B, and
    the leading Gram determinants are the prefix products of D.  Exact
    matrices run it in integers (:func:`_exact_ldl`), with b formed from a
    when read; float ones run a float loop (:func:`_float_ldl`).
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
    a, norms, dets, b = ldl(g, leading_factors)
    return OrthogonalizationResult(
        tuple(map(tuple, a)), tuple(norms), tuple(leading_factors), tuple(dets), b
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
        a_{m,n} = c_m / (M_n f_n),

    c the integers of the fraction-free back substitution of rows 0..n-1
    with c_n = M_n (the last-row cofactors of the leading (n+1)-column
    block of the scaled rows).  Every division inside is exact, and each
    output entry is one Fraction.  A pivot that is not positive raises
    NotPositiveDefinite at its degree.  Returns (a, h, Z) as lists and None
    for b.
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
    norms, dets = [], [Fraction(1)]
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
    a = [[Fraction(0)] * n_dim for _ in range(n_dim)]
    for n, (fp, fq) in enumerate(ratios):
        c = [0] * n + [minors[n]]
        for m in range(n - 1, -1, -1):
            c[m] = -sum(map(mul, s[m][m + 1 : n + 1], c[m + 1 :])) // s[m][m]
        den = minors[n] * fp
        for m in range(n + 1):
            a[m][n] = Fraction(c[m] * fq, den)
    return a, norms, dets, None


def _float_ldl(g, leading_factors):
    """The LDL^T pass over the float matrix ``g``, column by column.

    A pivot at or below PIVOT_FLOOR times the largest entry of its leading
    block raises NotPositiveDefinite at its degree.  Returns (a, h, Z) as
    lists and b as row tuples.
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
    return a, norms, dets, tuple(tuple(f * x for x in r) for f, r in zip(leading_factors, unit))


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
        sector_dets.append(res.gram_dets)
    even, odd = sector_dets
    return OrthogonalizationResult(
        tuple(map(tuple, a)),
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


def bordered_oracle(gram, n, leading_factor, elimination=None):
    """E_n, h_n and Z_{n+1} from the bordered determinants of ``gram``.

    The determinant with Gram rows 0..n-1 and the symbolic basis row is
    expanded along its last row; dividing its cofactors by Z_n and by the
    leading factor gives the column of E_n on e_0..e_n that gram_schmidt
    produces, and h_n = b_{n,n}^{-2} Z_{n+1} / Z_n.  Exact blocks take all
    of it from one :func:`linalg.bordered_minors` call on the leading
    (n+1) x (n+1) block B, read off ``elimination`` when the caller holds
    one of ``gram`` (one elimination then serves every n).  Float blocks
    take the cofactors over Z_{n+1} as x = :func:`_inverse_last_column` of
    B: the column is x / x_n and h_n = 1 / x_n.  Nothing here reads the kernel's factorization.
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
    cofactors, z_here = linalg.bordered_minors(block, elimination)
    z_prev = cofactors[n]
    if z_prev == 0:
        raise NotPositiveDefinite(f"leading minor of size {n} vanishes", degree=n)
    scale = z_prev * leading_factor
    return tuple(c / scale for c in cofactors), z_here / (scale * leading_factor), z_here


def oracle_connection_column(gram, n, leading_factors, elimination=None):
    """b_{m,n}, m = 0..n: the coefficients of e_n on E_0..E_n.

    b_{m,n} = f_m (g[n] . c^(m)) / Z_{m+1}, the bordered determinant with
    Gram rows 0..m-1 and last row g[n] over the leading minor, where c^(m)
    are the last-row cofactors of the leading (m+1) x (m+1) block.  Exact
    matrices take every m from one :class:`linalg.LiftedElimination`, of
    the leading (n+1) x (n+1) block or the ``elimination`` of any matrix
    that has it as its leading block (by the prefix property its cofactors
    serve every leading block, so one elimination serves every column): in
    its lifted rows R (row r scaled by the rational d_r)
    b_{m,n} = f_m (R[n] . c) d_m / (d_n Z_{m+1}), with c and Z_{m+1} the
    lifted cofactors and minor of degree m.  Float matrices take
    c^(m) / Z_{m+1} as :func:`_inverse_last_column` of each leading block,
    one LU solve per m and no determinant.
    """
    elim = elimination
    if elim is None:
        g = _entries(gram)
        block = [row[: n + 1] for row in g[: n + 1]]
        if linalg.matrix_kind(block) == FLOAT:
            leading = ([row[: m + 1] for row in block[: m + 1]] for m in range(n + 1))
            return tuple(
                f * float(sum(map(mul, block[n], _inverse_last_column(b))))
                for f, b in zip(leading_factors, leading)
            )
        elim = linalg.LiftedElimination(block)
    last, (np_, nq) = elim.rows[n], elim.scales[n].as_integer_ratio()
    out = []
    for m, (f, d_m) in enumerate(zip(leading_factors, elim.scales)):
        (fp, fq), (dp, dq) = f.as_integer_ratio(), d_m.as_integer_ratio()
        dot = sum(map(mul, last, elim.cofactors(m)))
        out.append(Fraction(fp * dot * dp * nq, fq * dq * np_ * elim.minor(m + 1)))
    return tuple(out)


def check_against_oracle(gram, result: OrthogonalizationResult, basis, stage):
    """Check every vector of ``result`` against the Gram matrix alone.

    ``basis`` is the monomial coefficient matrix of the vectors the Gram
    matrix is taken over (column k holds e_k).  Exact results must pass the
    LDL^T certificate of :func:`_exact_mismatch`, column by column: the
    connection a, the norm h and the leading Gram determinant Z (b, formed
    from a when read, is not checked).  Float results are compared with
    :func:`bordered_oracle` as monomial coefficients (the same test as
    comparing connection columns, the basis columns being independent):
    within ORACLE_RTOL times the largest oracle coefficient, and norms
    within ORACLE_RTOL of the oracle norm.  Neither route reads the kernel's
    factorization.  A failure raises OracleMismatch naming ``stage`` and the
    degree of the basis vector.
    """
    g = _entries(gram)
    if linalg.matrix_kind(g) == EXACT:
        bad = _exact_mismatch(g, result)
    else:
        bad = next((n for n in range(result.size) if not _float_agrees(g, result, basis, n)), None)
    if bad is not None:
        degree = max(k for k, row in enumerate(basis) if row[bad] != 0)
        raise OracleMismatch(f"{stage} at degree {degree}", degree=degree)


def _exact_mismatch(g, result):
    """The first index n whose column of ``result`` fails the LDL^T
    certificate over the exact Gram matrix ``g``, or None.

    Column n, f_n its prescribed factor (zero raises BadFactor), passes when
    a_{m,n} = 0 for m > n, a_{n,n} = 1 / f_n, (g a)[j][n] = 0 for j < n,
    (g a)[n][n] = f_n h_n with h_n > 0, and Z_{n+1} = Z_n h_n f_n^2
    (Z_0 = 1).  This is complete: certified columns 0..n-1 give
    a^T g a = diag(h) on the leading block, so that block is positive
    definite and column n is the unique solution, the bordered
    determinants' one.  With g[r] = R[r] / d_r and a[:, n] = u / s
    (nonzero on lo..hi-1), each lifted once, (g a)[j][n] is one integer dot
    product R[j] . u over d_j s, about N^3 / 3 in all, and each identity is
    compared as p den == num q.  It reads g and the values it checks and
    shares no code with the kernel.
    """
    rows = [linalg.lift(row) for row in g]
    columns = result._lifted_columns
    z_prev = result.gram_dets[0].as_integer_ratio()
    for n, (f, h, z) in enumerate(zip(result.factors, result.norms, result.gram_dets[1:])):
        if f == 0:
            raise BadFactor("leading factor must be nonzero")
        u, s, lo, hi = columns[n]
        r_n, d_n = rows[n]
        span = u[lo:hi]
        (fp, fq), (hp, hq), (zp, zq) = f.as_integer_ratio(), h.as_integer_ratio(), z.as_integer_ratio()
        ok = (
            hi <= n + 1
            and u[n] * fp == s * fq
            and not any(sum(map(mul, r[lo:hi], span)) for r, _ in rows[:n])
            and hp > 0
            and sum(map(mul, r_n[lo:hi], span)) * fq * hq == fp * hp * d_n * s
            and (n or z_prev == (1, 1))
            and zp * z_prev[1] * hq * fq * fq == z_prev[0] * hp * fp * fp * zq
        )
        if not ok:
            return n
        z_prev = zp, zq
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
