"""Gram-Schmidt orthogonalization over an abstract Gram matrix.

Everything here is measure-agnostic: the input is the matrix of inner
products g[j][k] of some basis e_0..e_{N-1} plus the prescribed leading
factors b_{n,n}.  The output describes the unique orthogonal vectors

    E_n = (e_n - sum_{m<n} E_m b_{m,n}) / b_{n,n},   (E_j, E_k) = h_j d_{jk}

through the triangular connection matrices a (E over e) and b (e over E),
the squared norms h_n and the leading Gram determinants; b, the inverse
of a, is formed from a when read.

Gram-Schmidt over a Gram matrix is its LDL^T factorization: the pivots
are the ratios of consecutive leading Gram determinants, so one pass gives
the vectors, their norms and the determinants.  It runs in integers
(:func:`_exact_ldl`): the upper triangle is lifted by one common scale
(or comes lifted, :class:`linalg.LiftedGram`), its rows are freed of their
contents, it is eliminated fraction-free, and the connection a stays
lifted until it is read.  Everything here is exact: a float entry or
factor is read as the dyadic rational it holds (as :func:`linalg.lift`
reads it), and a float caller rounds the results once.

Every exact stage of :mod:`block`, and in both backends the Hankel
first-stage oracle (:func:`standard.hankel_build`) and the parity first
stage (:func:`parity_gram_schmidt`), run :func:`gram_schmidt`; float
stages of :mod:`block` factor by QR instead.  The checks never read the
kernel's factorization:

* :func:`bordered_oracle` gives the column of E_n, h_n and Z_{n+1};
* :func:`oracle_connection_column` gives b_{m,n} for every m <= n;
* :func:`check_against_oracle` checks a whole result by an LDL^T
  certificate (:func:`_exact_mismatch`), which reads g and the values it
  checks and shares no code with the kernel.

The cofactors come from :mod:`linalg`'s fraction-free elimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul

from . import linalg
from .errors import BadFactor, NotCheckerboard, NotPositiveDefinite, OracleMismatch
from .measures import GramMatrix
from .scalars import EXACT, as_kind, one, zero

# relative agreement a float build must reach with its checks
ORACLE_RTOL = 1e-9


def _entries(gram):
    if isinstance(gram, GramMatrix):
        return gram.rows()
    return [list(row) for row in gram]


def _lifted(gram):
    """``gram`` as a :class:`linalg.LiftedGram`: itself, the one a
    GramMatrix holds, or else its upper triangle lifted by one scale."""
    if isinstance(gram, linalg.LiftedGram):
        return gram
    return linalg.lifted(gram, "entries") or linalg.LiftedGram.of(_entries(gram))


@dataclass(frozen=True)
class OrthogonalizationResult:
    """Connection data of one orthogonalization pass.

    ``coeffs[m][n]``         a_{m,n}: coefficient of e_m in E_n (upper triangular);
                             exact kernels give it as lifted columns
                             (:class:`linalg.LiftedColumns`), formed on read
    ``inverse_coeffs[m][n]`` b_{m,n}: coefficient of E_m in e_n, the inverse
                             of ``coeffs``: a float QR stage gives diag(f) B,
                             as accurate as a (an inverse of the float a
                             would add the condition of B to its error);
                             otherwise formed from a on first read
    ``norms[n]``             h_n = (E_n, E_n)
    ``factors[n]``           the prescribed b_{n,n}
    ``gram_dets[k]``         determinant of the leading k x k block (index 0 is 1)
    """

    coeffs: tuple = linalg.LiftedField(linalg.LiftedColumns.rows)
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
        # an exact kernel's lifted columns are read as they are
        return linalg.inverse_upper(linalg.lifted(self, "coeffs") or self.coeffs)

    def vector(self, n):
        """Coefficient column of E_n on the input basis."""
        return tuple(self.coeffs[m][n] for m in range(self.size))


def gram_schmidt(gram, leading_factors) -> OrthogonalizationResult:
    """Orthogonalize against a Gram matrix with prescribed leading factors.

    One LDL^T pass g = B^T D B (B unit upper triangular) in integers
    (:func:`_exact_ldl`): h_n = D_n / f_n^2, a = B^{-1} diag(1/f),
    b = diag(f) B, formed from a when read, and the leading Gram
    determinants are the prefix products of D.  A GramMatrix may hold its
    entries lifted; otherwise the upper triangle is lifted here, a float
    entry or factor read as the dyadic rational it holds.  a comes as
    lifted columns, h and Z as Fractions.
    """
    g = _lifted(gram)
    n_dim = len(g.upper)
    if len(leading_factors) != n_dim:
        raise BadFactor(f"need {n_dim} leading factors, got {len(leading_factors)}")
    for f in leading_factors:
        if f == 0 or (isinstance(f, float) and not math.isfinite(f)):
            raise BadFactor("leading factors must be nonzero and finite")
    a, norms, dets = _exact_ldl(g, leading_factors)
    return OrthogonalizationResult(linalg.Lifted(a), tuple(norms), tuple(leading_factors), tuple(dets))


def _exact_ldl(g, leading_factors):
    """The LDL^T pass over the :class:`linalg.LiftedGram` ``g`` as a symmetric
    fraction-free elimination of its upper triangle.

    The triangle is integers over one common scale L, so the lifted
    matrix A is symmetric, and row r of A is divided by its content
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
    block of the scaled rows).  Every division inside is exact.  Column n
    of a is kept as the integers c_m fq over M_n fp, reduced
    (:func:`linalg.reduced`), and h and Z are one Fraction each.  A pivot
    that is not positive raises NotPositiveDefinite at its degree.  Returns
    (a, h, Z): a as :class:`linalg.LiftedColumns`, h and Z as lists.
    """
    n_dim, scale = len(g.upper), g.scale
    s = [[0] * k + row for k, row in enumerate(g.upper)]
    content = [math.gcd(*(row[k] for row in s[:k]), *s[k][k:]) or 1 for k in range(n_dim)]
    for k, (row, g_k) in enumerate(zip(s, content)):
        if g_k > 1:
            row[k:] = [y // g_k for y in row[k:]]
    ratios = [f.as_integer_ratio() for f in leading_factors]
    norms, dets = [], [one(EXACT)]
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
    a = []
    for n, (fp, fq) in enumerate(ratios):
        c = [0] * n + [minors[n]]
        for m in range(n - 1, -1, -1):
            c[m] = -sum(map(mul, s[m][m + 1 : n + 1], c[m + 1 :])) // s[m][m]
        a.append(linalg.reduced([x * fq for x in c] if fq != 1 else c, minors[n] * fp))
    return linalg.LiftedColumns(a, n_dim), norms, dets


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
    a = [[zero(EXACT)] * n_dim for _ in range(n_dim)]
    norms = [zero(EXACT)] * n_dim
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


def bordered_oracle(gram, n, leading_factor, elimination=None):
    """E_n, h_n and Z_{n+1} from the bordered determinants of ``gram``.

    The determinant with Gram rows 0..n-1 and the symbolic basis row is
    expanded along its last row; dividing its cofactors by Z_n and by the
    leading factor gives the column of E_n on e_0..e_n that gram_schmidt
    produces, and h_n = b_{n,n}^{-2} Z_{n+1} / Z_n.  All of it comes from
    one :func:`linalg.bordered_minors` call on the leading (n+1) x (n+1)
    block, read off ``elimination`` when the caller holds one of ``gram``
    (one elimination then serves every n).  Nothing here reads the kernel's
    factorization.  Returns (column, h_n, Z_{n+1}) as Fractions.
    """
    g = _entries(gram)
    if not 0 <= n < len(g):
        raise IndexError(f"column {n} outside matrix of size {len(g)}")
    if leading_factor == 0:
        raise BadFactor("leading factor must be nonzero")
    block = [row[: n + 1] for row in g[: n + 1]]
    cofactors, z_here = linalg.bordered_minors(block, elimination)
    z_prev = cofactors[n]
    if z_prev == 0:
        raise NotPositiveDefinite(f"leading minor of size {n} vanishes", degree=n)
    f = as_kind(leading_factor, EXACT)
    scale = z_prev * f
    return tuple(c / scale for c in cofactors), z_here / (scale * f), z_here


def oracle_connection_column(gram, n, leading_factors, elimination=None):
    """b_{m,n}, m = 0..n: the coefficients of e_n on E_0..E_n.

    b_{m,n} = f_m (g[n] . c^(m)) / Z_{m+1}, the bordered determinant with
    Gram rows 0..m-1 and last row g[n] over the leading minor, where c^(m)
    are the last-row cofactors of the leading (m+1) x (m+1) block.  Every m
    comes from one :class:`linalg.LiftedElimination`, of the leading
    (n+1) x (n+1) block or the ``elimination`` of any matrix that has it as
    its leading block (by the prefix property its cofactors serve every
    leading block, so one elimination serves every column): in its lifted
    rows R (row r scaled by the rational d_r)
    b_{m,n} = f_m (R[n] . c) d_m / (d_n Z_{m+1}), with c and Z_{m+1} the
    lifted cofactors and minor of degree m.  A vanishing Z_{m+1} raises
    NotPositiveDefinite at degree m.
    """
    elim = elimination
    if elim is None:
        elim = linalg.LiftedElimination([row[: n + 1] for row in _entries(gram)[: n + 1]])
    last, (np_, nq) = elim.rows[n], elim.scales[n].as_integer_ratio()
    out = []
    for m, (f, d_m) in enumerate(zip(leading_factors, elim.scales)):
        minor = elim.minor(m + 1)
        if not minor:
            raise NotPositiveDefinite(f"leading minor of size {m + 1} vanishes", degree=m)
        (fp, fq), (dp, dq) = f.as_integer_ratio(), d_m.as_integer_ratio()
        dot = sum(map(mul, last, elim.cofactors(m)))
        out.append(Fraction(fp * dot * dp * nq, fq * dq * np_ * minor))
    return tuple(out)


def check_against_oracle(gram, result: OrthogonalizationResult, basis, stage):
    """Check every vector of ``result`` against the Gram matrix alone.

    ``basis`` is the monomial coefficient matrix of the vectors the Gram
    matrix is taken over (column k holds e_k).  The result must pass the
    LDL^T certificate of :func:`_exact_mismatch`, column by column: the
    connection a, the norm h and the leading Gram determinant Z (b, formed
    from a when read, is not checked).  It does not read the kernel's
    factorization.  A failure raises OracleMismatch naming ``stage`` and the
    degree of the basis vector.
    """
    bad = _exact_mismatch(_lifted(gram), result)
    if bad is not None:
        degree = max(k for k, row in enumerate(basis) if row[bad] != 0)
        raise OracleMismatch(f"{stage} at degree {degree}", degree=degree)


def _exact_mismatch(g, result):
    """The first index n whose column of ``result`` fails the LDL^T
    certificate over the Gram matrix of the :class:`linalg.LiftedGram`
    ``g``, or None.

    Column n, f_n its prescribed factor (zero raises BadFactor), passes when
    a_{m,n} = 0 for m > n, a_{n,n} = 1 / f_n, (g a)[j][n] = 0 for j < n,
    (g a)[n][n] = f_n h_n with h_n > 0, and Z_{n+1} = Z_n h_n f_n^2
    (Z_0 = 1).  This is complete: certified columns 0..n-1 give
    a^T g a = diag(h) on the leading block, so that block is positive
    definite and column n is the unique solution, the bordered
    determinants' one.  With g = R / d and a[:, n] = u / s, the kernel's
    lifted column or else the column lifted here, (g a)[j][n] is one integer
    dot product R[j] . u over d s, about N^3 / 3 in all, and each identity
    is compared as p den == num q.  It reads g and the values it checks and
    shares no code with the kernel.
    """
    rows, d = g.int_rows(), g.scale
    columns = linalg.columns(result, "coeffs").cols
    z_prev = result.gram_dets[0].as_integer_ratio()
    for n, (f, h, z) in enumerate(zip(result.factors, result.norms, result.gram_dets[1:])):
        if f == 0:
            raise BadFactor("leading factor must be nonzero")
        u, s = columns[n]
        (fp, fq), (hp, hq), (zp, zq) = f.as_integer_ratio(), h.as_integer_ratio(), z.as_integer_ratio()
        ok = (
            len(u) > n
            and not any(u[n + 1 :])
            and u[n] * fp == s * fq
            and not any(sum(map(mul, r, u)) for r in rows[:n])
            and hp > 0
            and sum(map(mul, rows[n], u)) * fq * hq == fp * hp * d * s
            and (n or z_prev == (1, 1))
            and zp * z_prev[1] * hq * fq * fq == z_prev[0] * hp * fp * fp * zq
        )
        if not ok:
            return n
        z_prev = zp, zq
    return None


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
