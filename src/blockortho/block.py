"""Block orthogonal polynomial bases for a pair of measures.

``build_sbos`` runs the two-step construction for a set of indices i, and
``build_sbo`` for one: first the standard orthogonal polynomials Q_n of the
first measure, then a second orthogonalization of {Q_i, ..., Q_{N-1}} under
the second measure.  The resulting P_{i;n} have exact degree n, are
orthogonal to every polynomial of degree < i under the first measure, and are
mutually orthogonal under the second.

Internally the basis always stores the monic data (polynomials, norms,
connection matrices); normalization modes are exact rescalings of that core.
The gamma matrix gamma[j][k] = (Q_j, Q_k)_2 of a gaussian or gamma second
measure comes from that measure's recurrence in both backends
(:func:`gamma_matrix`).  Every build is cross-checked against the
bordered-determinant formulas over gamma unless ``check=False``, and exact
builds also check gamma itself against the second measure's moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial, reduce
from operator import add, mul

from . import gso, linalg, scalars, standard
from ._numpy import np
from .errors import (
    ConditioningError,
    DependentConstraints,
    MeasureMismatch,
    NotSymmetric,
    OracleMismatch,
    stage,
)
from .gso import ORACLE_RTOL
from .measures import GramMatrix, Measure, MomentSequence, gram_of, moments
from .polynomials import Polynomial, columns_of, combine, from_columns, monomial
from .scalars import EXACT, FLOAT, as_kind, one, zero
from .standard import (  # the normalization names are re-exported here
    DET_NORMALIZED,
    MONIC,
    ORTHONORMAL,
    StandardBasis,
    build_standard,
    has_closed_recurrence,
    monic_recurrence,
    normalization_factors,
    parity_split_build,
)

SECOND_STAGE = "second_stage"

# A checked float second stage is refused when the 2-norm condition number
# of its diagonally scaled gamma matrix times the unit roundoff exceeds this.
# Measured over every benchmark-deck pair at N 4-20 and every i
# (BENCH_float_error.json): below it every build passes its oracle and agrees
# with the exact backend within 3.4e-10; the first build that disagrees with
# exact by more than ORACLE_RTOL is at 2.7e-9, the first oracle mismatch at
# 3.3e-9.
GAMMA_CONDITION_LIMIT = 1e-9
UNIT_ROUNDOFF = 2.0**-53


@dataclass(frozen=True)
class SboBasis:
    """Second-stage basis P_{i;n}, n = i..N-1, for a measure pair.

    ``p_in_q[m][n]`` is the monic connection (coefficient of Q_m in the monic
    P_{i;n}) and ``q_in_p[m][n]`` its inverse (coefficient of the monic
    P_{i;m} in Q_n); both are degree-indexed N x N with support i <= m <= n.
    ``gamma_dets[s]`` is the leading s x s minor of the gamma matrix, so the
    degree-indexed determinant is ``Z(n) = gamma_dets[n - i + 1]``.
    ``scale[n - i]`` holds the normalization factor applied to the monic core.
    """

    i: int
    size: int
    measure1: Measure
    measure2: Measure
    q_basis: StandardBasis
    mu2: MomentSequence
    gamma: GramMatrix
    gamma_dets: tuple
    monic_polys: tuple
    monic_norms: tuple
    p_in_q: tuple
    q_in_p: tuple
    scale: tuple
    normalization: str
    backend: str

    def degrees(self):
        return range(self.i, self.size)

    def poly(self, n) -> Polynomial:
        """P_{i;n} in the basis' normalization (the monic one itself when its
        factor is one)."""
        factor = self.scale[n - self.i]
        monic = self.monic_polys[n - self.i]
        return monic if factor == 1 else monic.scale(factor)

    def monic_poly(self, n) -> Polynomial:
        return self.monic_polys[n - self.i]

    def norm(self, n):
        """(P_{i;n}, P_{i;n})_2 in the basis' normalization (units of c_{2;0})."""
        return self.scale[n - self.i] ** 2 * self.monic_norms[n - self.i]

    def monic_norm(self, n):
        return self.monic_norms[n - self.i]

    def Z(self, n):
        """Gamma-matrix determinant through degree n (Z(i-1) = 1)."""
        return self.gamma_dets[n - self.i + 1]

    def leading_factor(self, n):
        """K_{i;n}: leading coefficient of P_{i;n}."""
        return self.scale[n - self.i]

    def connection_a(self, m, n):
        """A_{i;m,n} in the basis' normalization."""
        return self.scale[n - self.i] * self.p_in_q[m][n]

    def subleading(self, n):
        return self.monic_poly(n).coeff(n - 1)

    def subsubleading(self, n):
        return self.monic_poly(n).coeff(n - 2)


def gamma_matrix(q_basis: StandardBasis, measure2, i: int) -> GramMatrix:
    """Gram matrix of Q_i..Q_{N-1} under the second measure.

    ``measure2`` is a measure or its moment sequence.  A second measure of
    closed-form recurrence integrates by its N-node Gauss rule, in either
    backend, which takes gamma[j][k] = e_0^T Q_j(J) Q_k(J) e_0 h_0 with J the
    Jacobi matrix of that recurrence (Golub-Welsch) and needs no nodes: in
    the monic form of J, the column T_j = Q_j(J) e_0 holds the coefficients
    of Q_j on the second measure's monic orthogonal polynomials R_m, run by
    the recurrence of Q, and gamma = T^T diag(h) T with the norms h_m of the
    R_m.  The rule is exact for the degrees of gamma, so exact entries are
    the inner products themselves; exact T is run in integers and comes as
    lifted columns, each entry of gamma one integer sum and one Fraction.
    No Hankel matrix is formed, every step is rational, and float sums run
    over ascending m, so each trailing block is bit-identical to its own
    assembly.  Otherwise gamma is the congruence
    A^T H_2 A (``gram_of``), with A the columns i.. of ``q_in_x`` and H_2 the
    second measure's Hankel matrix.  The lower triangle mirrors the upper
    one, so float entries stay exactly symmetric.
    """
    n = q_basis.size
    if not 0 <= i <= n:
        raise ValueError(f"constraint index {i} outside 0..{n}")
    mu2 = measure2 if isinstance(measure2, MomentSequence) else None
    measure2 = mu2.measure if mu2 is not None else measure2
    if measure2 is not None and has_closed_recurrence(measure2):
        full = _gram_by_connection(q_basis, monic_recurrence(measure2, n), i)
    else:
        if mu2 is None:
            mu2 = moments(measure2, max(2 * (n - 1), 0), backend=q_basis.backend)
        full = gram_of(mu2, [row[i:] for row in q_basis.q_in_x])
    entries = [[full[min(j, k)][max(j, k)] for k in range(n - i)] for j in range(n - i)]
    return GramMatrix(tuple(map(tuple, entries)), f"Q_{i}..Q_{n - 1}")


def _gram_by_connection(q_basis: StandardBasis, rec2, i):
    """The upper triangle of T^T diag(h) T over the columns i.. of T, entry
    [j][k] summed over the support m <= j.  Exact columns of T come lifted
    from :func:`_connection_to_second` and are taken as they are; with h
    lifted once, each entry is one integer sum over m and one Fraction.
    Float entries are summed in ascending m as sum_m (h_m T[m][j]) T[m][k],
    zero terms skipped."""
    n = q_basis.size
    kind = q_basis.backend
    t = _connection_to_second(q_basis, rec2)
    h = [one(kind)]
    for _, c_m in rec2[1:]:
        h.append(h[-1] * as_kind(c_m, kind))
    if kind == EXACT:
        h_ints, h_scale = linalg.lift(h)
        cols = t[i:]
        full = []
        for j, (col_j, s_j) in enumerate(cols):
            weighted = list(map(mul, h_ints, col_j))
            full.append([zero(kind)] * j + [
                Fraction(sum(map(mul, weighted, col_k)), h_scale * s_j * s_k)
                for col_k, s_k in cols[j:]
            ])
        return full
    full = [[zero(kind)] * (n - i) for _ in range(n - i)]
    for j in range(i, n):
        scaled = [(m, h[m] * t[m][j]) for m in range(j + 1) if t[m][j]]
        for k in range(j, n):
            terms = [x * t[m][k] for m, x in scaled if t[m][k]]
            if terms:
                full[j - i][k - i] = reduce(add, terms)
    return full


def _connection_to_second(q_basis: StandardBasis, rec2):
    """T[m][j]: coefficient of R_m in Q_j, R the monic orthogonal polynomials
    of the recurrence ``rec2``, in the scalars of the basis.

    x R_m = R_{m+1} + b_m R_m + c_m R_{m-1}, so multiplying a column by x is
    b_m t_m + t_{m-1} + c_{m+1} t_{m+1}; Q's own recurrence
    Q_{n+1} = (A_n x + B_n) Q_n - C_n Q_{n-1} then builds column n + 1.
    T is upper triangular.  Exact bases run this in integers
    (:func:`standard._recurrence_columns`) and return T as its lifted
    columns: column j is ``(ints, den)`` with T[m][j] = ints[m] / den,
    m = 0..j.  Float bases return the matrix T, with only its support
    touched and zero terms skipped, so a float entry equals the full sum in
    the same order.
    """
    n = q_basis.size
    kind = q_basis.backend
    if kind == EXACT:
        return standard._recurrence_columns(q_basis.recurrence, rec2, q_basis.leading[0])
    b = [as_kind(b_m, kind) for b_m, _ in rec2]
    c = [as_kind(c_m, kind) for _, c_m in rec2]
    t = [[zero(kind)] * n for _ in range(n)]
    t[0][0] = as_kind(q_basis.leading[0], kind)
    for k, coeffs in enumerate(q_basis.recurrence):
        a_k, b_k, c_k = (as_kind(x, kind) for x in coeffs)
        for m in range(k + 2):
            x_terms = []
            if b[m] and m <= k and t[m][k]:
                x_terms.append(b[m] * t[m][k])
            if m and t[m - 1][k]:
                x_terms.append(t[m - 1][k])
            if m < k and t[m + 1][k]:
                x_terms.append(c[m + 1] * t[m + 1][k])
            x_t = reduce(add, x_terms) if x_terms else None
            terms = [] if x_t is None else [x_t if a_k == 1 else a_k * x_t]
            if b_k and m <= k and t[m][k]:
                terms.append(b_k * t[m][k])
            if c_k and m < k and t[m][k - 1]:
                terms.append(-(c_k * t[m][k - 1]))
            if terms:
                t[m][k + 1] = reduce(add, terms)
    return t


def _check_gamma(gamma, mu2, q_cols, first_degree):
    """Exact gamma against the second measure's moments in O(N^2).

    gamma is the congruence A^T H_2 A of the coefficient columns A, so its
    row sums are A^T (H_2 (A u)), u all ones: three matrix-vector products,
    run over integers with A and the moments each lifted by the lcm of its
    denominators.  The check reads neither T nor the Gauss rule, and a
    wrong entry of T moves the row sums of every row it enters.
    """
    size = len(q_cols)
    mu, mu_scale = linalg.lift(mu2.mu[: 2 * size - 1])
    flat, a_scale = linalg.lift([x for row in q_cols for x in row])
    width = len(gamma)
    a = [flat[r * width : (r + 1) * width] for r in range(size)]
    sums = [sum(row) for row in a]
    h_sums = [sum(mu[r + c] * s_c for c, s_c in enumerate(sums) if s_c) for r in range(size)]
    for j, row in enumerate(gamma):
        expect = sum(a_r[j] * w_r for a_r, w_r in zip(a, h_sums) if a_r[j])
        ints, scale = linalg.lift(row)
        if sum(ints) * a_scale**2 * mu_scale != expect * scale:
            degree = first_degree + j
            raise OracleMismatch(
                f"gamma matrix and second-measure moments disagree at degree {degree}",
                degree=degree,
            )


def gamma_condition(gamma: GramMatrix) -> float:
    """2-norm condition number of the diagonally scaled gamma matrix times
    the unit roundoff: the relative accuracy to expect from a float second
    stage.  Infinite when the scaled matrix is not numerically positive
    definite or not finite."""
    g = np.array(gamma.entries, dtype=float)
    diag = np.diag(g)
    if not (np.all(np.isfinite(g)) and np.all(diag > 0)):
        return math.inf
    d = 1.0 / np.sqrt(diag)
    eigenvalues = np.linalg.eigvalsh(g * d[:, None] * d[None, :])
    if not eigenvalues[0] > 0:
        return math.inf
    return float(eigenvalues[-1] / eigenvalues[0]) * UNIT_ROUNDOFF


def _gate(gamma, i):
    """Refuse a float second stage whose scaled gamma is too ill-conditioned."""
    condition = gamma_condition(gamma)
    if not condition <= GAMMA_CONDITION_LIMIT:
        raise ConditioningError(
            f"float second stage refused at i={i}: condition of the scaled gamma "
            f"matrix times unit roundoff is {condition:.3g} > {GAMMA_CONDITION_LIMIT:g}",
            stage=SECOND_STAGE,
            condition=condition,
            limit=GAMMA_CONDITION_LIMIT,
        )


def _scale(normalization, q_basis, i, gamma_dets):
    """Normalization factors K_{i;n} applied to the monic polynomials.

    The gamma matrix is taken over Q's with leading coefficients k_n, so the
    ``det`` and ``orthonormal`` factors of its determinants carry k_n.
    """
    factors = normalization_factors(normalization, gamma_dets, q_basis.backend)
    if normalization == MONIC:
        return tuple(factors)
    return tuple(q_basis.leading[i + s] * f for s, f in enumerate(factors))


def _sbo_bases(kernel, first_stage, measure2, i_values, n_polys, normalization, check):
    """Q_0..Q_{N-1} from ``first_stage()``, then Q_i..Q_{N-1} orthogonalized
    under the second measure with ``kernel`` for every i in ``i_values``, all
    from one gamma matrix over Q_lo..Q_{N-1}, lo = min(i_values): gamma_i is
    its trailing block from row i - lo on.
    """
    # checked before the first stage, so a bad i is reported even where Q fails
    for i in i_values:
        if not 0 <= i <= n_polys:
            raise ValueError(f"need 0 <= i <= N, got i={i}, N={n_polys}")
    q_basis = first_stage()
    backend = q_basis.backend
    mu2 = moments(measure2, 2 * n_polys - 2, backend=backend)
    lo = min(i_values, default=n_polys)
    gamma_lo = gamma_matrix(q_basis, mu2, lo).entries
    if check and backend == EXACT:
        with stage(SECOND_STAGE):
            _check_gamma(gamma_lo, mu2, [row[lo:] for row in q_basis.q_in_x], lo)
    # what every i shares is made once: Q's lifted rows and the identities' Q data
    if backend == EXACT:
        q_rows = [linalg._lifted_span(row) for row in q_basis.q_in_x]
    lead = _leading_data(q_basis) if check else None
    bases = {}
    for i in i_values:
        rows = tuple(row[i - lo :] for row in gamma_lo[i - lo :])
        gamma = GramMatrix(rows, f"Q_{i}..Q_{n_polys - 1}")
        block = n_polys - i
        q_cols = [row[i:] for row in q_basis.q_in_x]
        # second-stage leading factors k_n make the output monic: A_{i;n,n} = 1/k_n
        leading = list(q_basis.leading[i:])
        with stage(SECOND_STAGE, first_degree=i):
            if backend == FLOAT:
                result = _float_second_stage(kernel, gamma, leading, q_cols, i, check)
            else:
                result = kernel(gamma, leading)
                if check and block:
                    gso.check_against_oracle(
                        gamma, result, q_cols, "second-stage determinant oracle disagrees"
                    )
        if backend == EXACT:
            p_cols = linalg._lifted_mat_mul(q_rows, result.coeffs, i)
        else:
            p_cols = linalg.mat_mul(q_cols, result.coeffs)
        p_in_q = [[scalars.zero(backend)] * n_polys for _ in range(n_polys)]
        q_in_p = [[scalars.zero(backend)] * n_polys for _ in range(n_polys)]
        for row in range(block):
            for col in range(row, block):
                p_in_q[i + row][i + col] = result.coeffs[row][col]
                q_in_p[i + row][i + col] = result.inverse_coeffs[row][col]
        bases[i] = SboBasis(
            i=i,
            size=n_polys,
            measure1=q_basis.measure,
            measure2=measure2,
            q_basis=q_basis,
            mu2=mu2,
            gamma=gamma,
            gamma_dets=result.gram_dets,
            monic_polys=from_columns(p_cols),
            monic_norms=result.norms,
            p_in_q=tuple(map(tuple, p_in_q)),
            q_in_p=tuple(map(tuple, q_in_p)),
            scale=_scale(normalization, q_basis, i, result.gram_dets),
            normalization=normalization,
            backend=backend,
        )
        if check and block:
            _check_leading_identities(bases[i], lead)
    return bases


def _float_second_stage(kernel, gamma, leading, q_cols, i, check):
    """A float second stage, run on the diagonally scaled gamma matrix.

    With s_j the power of two nearest sqrt(gamma[j][j]), the matrix
    G[j][k] = gamma[j][k] / (s_j s_k) is the Gram matrix of Q_j / s_j and
    has its diagonal in [1/2, 2).  The gate, the kernel (with unit leading
    factors) and the determinant oracle all see G, whose minors no longer
    span the grading of gamma; the result is then carried back to Q and the
    leading factors k.  Powers of two scale without rounding, so the kernel
    rounds exactly as it would on gamma itself.  A diagonal entry that is
    not positive is left unscaled.
    """
    block = len(leading)
    s = [
        math.ldexp(1.0, math.frexp(x)[1] // 2) if x > 0 and math.isfinite(x) else 1.0
        for x in (gamma.entries[j][j] for j in range(block))
    ]
    unit = GramMatrix(
        tuple(
            tuple(x / (s_j * s_k) for x, s_k in zip(row, s))
            for row, s_j in zip(gamma.entries, s)
        )
    )
    if check and block:
        _gate(unit, i)
    result = kernel(unit, [1.0] * block)
    if check and block:
        scaled_cols = [[x / s_k for x, s_k in zip(row, s)] for row in q_cols]
        gso.check_against_oracle(
            unit, result, scaled_cols, "second-stage determinant oracle disagrees"
        )
    # the unit-leading E~_n over Q_m / s_m is (k_n / s_n) E_n, and
    # Q_n = s_n sum_m E~_m b~_{m,n} = sum_m E_m (s_n k_m / s_m) b~_{m,n}
    ratio = [s_n / k_n for s_n, k_n in zip(s, leading)]
    dets = list(result.gram_dets[:1])
    grading = 1.0
    for det, s_j in zip(result.gram_dets[1:], s):
        grading *= s_j * s_j
        dets.append(det * grading)
    return gso.OrthogonalizationResult(
        tuple(
            tuple(a * r_n / s_m for a, r_n in zip(row, ratio))
            for row, s_m in zip(result.coeffs, s)
        ),
        tuple(
            tuple(b * s_n * k_m / s_m for b, s_n in zip(row, s))
            for row, s_m, k_m in zip(result.inverse_coeffs, s, leading)
        ),
        tuple(h * r * r for h, r in zip(result.norms, ratio)),
        tuple(leading),
        tuple(dets),
    )


def build_sbos(
    measure1: Measure,
    measure2: Measure,
    i_values,
    n_polys: int,
    normalization: str = MONIC,
    backend: str = EXACT,
    q_leading=None,
    check: bool = True,
) -> dict:
    """Two-step construction of ``{i: SboBasis}`` for every i in ``i_values``.

    ``q_leading`` optionally sets the leading coefficients of the first-stage
    polynomials; the monic P_{i;n} do not depend on that choice, which the
    oracle checks confirm on every build.
    """
    first_stage = partial(
        build_standard, measure1, n_polys, backend=backend, leading=q_leading, check=check
    )
    return _sbo_bases(gso.gram_schmidt, first_stage, measure2, i_values, n_polys, normalization, check)


def build_sbo(
    measure1: Measure,
    measure2: Measure,
    i: int,
    n_polys: int,
    normalization: str = MONIC,
    backend: str = EXACT,
    q_leading=None,
    check: bool = True,
) -> SboBasis:
    """The block orthogonal basis for one constraint index i; see :func:`build_sbos`."""
    return build_sbos(measure1, measure2, [i], n_polys, normalization, backend, q_leading, check)[i]


def _close(a, b, scale):
    return abs(a - b) <= ORACLE_RTOL * max(abs(scale), 1e-300)


def _leading_data(q_basis: StandardBasis):
    """What the subleading identities of every i read from Q, made once per
    build: for each n, the monic subleading and subsubleading coefficients
    r_n and s_n of Q_n, and the ratios u_n = k_{n-1} / k_n and
    v_n = k_{n-2} / k_n of its leading coefficients (zero where the index
    falls below 0).  Exact values are each one Fraction of integers; float
    ones are taken as ``StandardBasis.subleading`` and ``subsubleading``
    take them, so they round alike."""
    size, ks, kind = q_basis.size, q_basis.leading, q_basis.backend
    nil = zero(kind)
    if kind == EXACT:
        def over_k(x, n):
            k = ks[n]
            return Fraction(x.numerator * k.denominator, x.denominator * k.numerator)

        q = q_basis.q_in_x
        r = [over_k(q[n - 1][n], n) if n else nil for n in range(size)]
        s = [over_k(q[n - 2][n], n) if n > 1 else nil for n in range(size)]
        u = [over_k(ks[n - 1], n) if n else nil for n in range(size)]
        v = [over_k(ks[n - 2], n) if n > 1 else nil for n in range(size)]
    else:
        r = [q_basis.subleading(n) for n in range(size)]
        s = [q_basis.subsubleading(n) for n in range(size)]
        u = [ks[n - 1] / ks[n] if n else nil for n in range(size)]
        v = [ks[n - 2] / ks[n] if n > 1 else nil for n in range(size)]
    return r, s, u, v


def _vanishes(terms):
    """Whether the sum over ``terms`` of the product of each term's rationals
    is zero, summed over integers with no Fraction made."""
    num, den = 0, 1
    for term in terms:
        t_num, t_den = 1, 1
        for x in term:
            t_num *= x.numerator
            t_den *= x.denominator
        num = num * t_den + den * t_num
        den *= t_den
    return num == 0


def _check_leading_identities(basis: SboBasis, lead):
    """Monic subleading coefficients recomputed from the connections.

    The monic P_{i;n} is sum_m a_{m,n} Q_m, so its coefficients of x^(n-1)
    and x^(n-2) are r_n + rho u_n and s_n + rho u_n r_{n-1} + sigma v_n, with
    rho = a_{n-1,n} / a_{n,n} and sigma = a_{n-2,n} / a_{n,n} (terms with
    an index below i left out) and ``lead`` = (r, s, u, v), the per-build Q
    data of :func:`_leading_data`.  Exact identities are checked multiplied
    by a_{n,n}, as one integer sum each; float ones within ORACLE_RTOL.
    """
    r, s, u, v = lead
    p = basis.p_in_q
    for n in basis.degrees():
        a_nn = p[n][n]
        if basis.backend == EXACT:
            r_terms = [(a_nn, basis.subleading(n)), (-1, a_nn, r[n])]
            s_terms = [(a_nn, basis.subsubleading(n)), (-1, a_nn, s[n])]
            if n - 1 >= basis.i:
                r_terms.append((-1, p[n - 1][n], u[n]))
                s_terms.append((-1, p[n - 1][n], u[n], r[n - 1]))
            if n - 2 >= basis.i:
                s_terms.append((-1, p[n - 2][n], v[n]))
            ok_r = _vanishes(r_terms)
            ok_s = n < 2 or _vanishes(s_terms)
        else:
            r_expect, s_expect = r[n], s[n]
            if n - 1 >= basis.i:
                ratio = u[n] * (p[n - 1][n] / a_nn)
                r_expect = r_expect + ratio
                s_expect = s_expect + ratio * r[n - 1]
            if n - 2 >= basis.i:
                s_expect = s_expect + v[n] * (p[n - 2][n] / a_nn)
            ok_r = _close(r_expect, basis.subleading(n), r_expect)
            ok_s = n < 2 or _close(s_expect, basis.subsubleading(n), s_expect)
        if not (ok_r and ok_s):
            raise OracleMismatch(
                f"subleading-coefficient identities fail at degree {n}",
                stage=SECOND_STAGE,
                degree=n,
            )


@dataclass(frozen=True)
class SboOracleResult:
    """Monic P_{i;n} and its data from the bordered determinants of ``gamma``.

    ``leading`` holds the first-stage leading coefficients k_i..k_n.
    """

    poly: Polynomial
    gram_det: object
    norm: object
    a_column: tuple
    gamma: GramMatrix
    leading: tuple

    @property
    def b_column(self):
        """Monic connection column b_{m,n}, m = i..n, computed when read."""
        return gso.oracle_connection_column(self.gamma, len(self.a_column) - 1, self.leading)


def sbo_determinant_oracle(
    q_basis: StandardBasis, measure2, i: int, n: int, gamma: GramMatrix = None
) -> SboOracleResult:
    """Monic P_{i;n} and its data straight from the bordered determinants.

    Expands the determinant with gamma rows i..n-1 and last row (Q_k) along
    that last row, divides by the previous gamma determinant, and scales by
    1/k_n.  Returns the polynomial together with the degree-n determinant,
    the monic norm and the monic connection columns.  ``gamma`` is gamma_i
    when the caller holds it (a basis stores its own); otherwise it is
    assembled from ``measure2``.
    """
    if not q_basis.size > n >= i >= 0:
        raise ValueError(f"need i <= n < N, got i={i}, n={n}, N={q_basis.size}")
    if gamma is None:
        gamma = gamma_matrix(q_basis, measure2, i)
    a_col, norm, gram_det = gso.bordered_oracle(gamma, n - i, q_basis.leading[n])
    return SboOracleResult(
        poly=combine(a_col, q_basis.polys[i:]),
        gram_det=gram_det,
        norm=norm,
        a_column=a_col,
        gamma=gamma,
        leading=tuple(q_basis.leading[i : n + 1]),
    )


def normalize_sbo(basis: SboBasis, normalization: str) -> SboBasis:
    """The same basis with a different normalization of each polynomial."""
    return replace(
        basis,
        scale=_scale(normalization, basis.q_basis, basis.i, basis.gamma_dets),
        normalization=normalization,
    )


def sbo_parity_build(
    measure1: Measure,
    measure2: Measure,
    i: int,
    n_polys: int,
    backend: str = EXACT,
) -> SboBasis:
    """Independent parity-split construction for a symmetric measure pair.

    The gamma matrix is checkerboard, so even and odd degrees decouple into
    two smaller orthogonalizations whose interleaving must reproduce
    :func:`build_sbo` exactly.
    """
    if not (measure1.symmetric and measure2.symmetric):
        raise NotSymmetric("parity build needs both measures symmetric")
    first_stage = partial(parity_split_build, measure1, n_polys, backend=backend)
    return _sbo_bases(gso.parity_gram_schmidt, first_stage, measure2, [i], n_polys, MONIC, False)[i]


def monomial_connection(basis: SboBasis):
    """Matrix C with C[l][n] = coefficient of x^l in P_{i;n} via the chain
    of connections (first stage times second stage); columns n < i are zero.

    No closed form is known for these coefficients; they are computed, not
    looked up.
    """
    zero = scalars.zero(basis.backend)
    scaled = [
        [basis.connection_a(m, n) if n >= basis.i else zero for n in range(basis.size)]
        for m in range(basis.size)
    ]
    return tuple(map(tuple, linalg.mat_mul(basis.q_basis.q_in_x, scaled)))


def cross_i_connection(basis_i: SboBasis, basis_j: SboBasis):
    """Triangular matrix expanding the j-constrained basis in the i-one.

    C[l][n] = sum_m q_in_p_i[l][m] * p_in_q_j[m][n], so that the monic
    P_{j;n} equals sum_l P_{i;l} C[l][n].  Requires i <= j, the same measure
    pair and the same size.
    """
    if basis_i.i > basis_j.i:
        raise ValueError("need i <= j")
    if basis_i.size != basis_j.size:
        raise MeasureMismatch("bases have different sizes")
    if (
        basis_i.measure1 != basis_j.measure1
        or basis_i.measure2 != basis_j.measure2
        or basis_i.q_basis.leading != basis_j.q_basis.leading
    ):
        raise MeasureMismatch("bases were built from different measure pairs")
    return tuple(map(tuple, linalg.mat_mul(basis_i.q_in_p, basis_j.p_in_q)))


@dataclass(frozen=True)
class XExpansion:
    """Expansion of x * P_{i;n} over the basis plus one leftover Q term.

    ``constraint_coeff`` multiplies Q_{i-1} (zero when i = 0); ``eta[m]``
    multiplies the monic P_{i;m} for m = i..n+1.  ``low_order_nonzero`` lists
    every index strictly below n-1 carrying a nonzero coefficient; for a
    plain three-term recurrence that list would be empty.
    """

    n: int
    i: int
    constraint_coeff: object
    eta: dict
    low_order_nonzero: tuple


def expand_x_times_p(basis: SboBasis, n: int) -> XExpansion:
    """Write x * P_{i;n} as constraint_coeff * Q_{i-1} + sum_m eta_m P_{i;m}.

    Uses the first-stage three-term recurrence to shift degrees, then folds
    the Q's back into the block basis.  Demonstrates why no fixed-length
    recurrence exists: coefficients below n-1 are generically nonzero.
    """
    if not basis.i <= n <= basis.size - 2:
        raise ValueError(f"need i <= n <= N-2, got n={n}")
    q = basis.q_basis
    zero = scalars.zero(basis.backend)
    beta = {m: zero for m in range(basis.i - 1, n + 2)}
    for m in range(basis.i, n + 1):
        a_coef = basis.p_in_q[m][n]
        if a_coef == 0:
            continue
        a_m, b_m, c_m = q.recurrence[m]
        beta[m + 1] += a_coef / a_m
        beta[m] -= a_coef * b_m / a_m
        if m - 1 >= basis.i - 1 and m >= 1:
            beta[m - 1] += a_coef * c_m / a_m
    constraint = beta.pop(basis.i - 1, zero) if basis.i > 0 else zero
    degrees = range(basis.i, n + 2)
    folded = linalg.mat_mul(
        [[basis.q_in_p[ell][m] for m in degrees] for ell in degrees],
        [[beta[m]] for m in degrees],
    )
    eta = {ell: row[0] for ell, row in zip(degrees, folded)}
    low = tuple(
        m
        for m in sorted(set(list(eta) + ([basis.i - 1] if basis.i > 0 else [])))
        if m < n - 1
        and (eta.get(m, zero) != 0 or (m == basis.i - 1 and constraint != 0))
    )
    return XExpansion(n=n, i=basis.i, constraint_coeff=constraint, eta=eta, low_order_nonzero=low)


@dataclass(frozen=True)
class GeneralBoBasis:
    """Orthogonal basis of the complement of an arbitrary constraint subspace.

    ``first_stage`` spans the complement under the first measure;
    ``second_stage`` re-orthogonalizes it under the second.  Degrees are not
    guaranteed to be exact for arbitrary subspaces.
    """

    subspace: tuple
    completion_degrees: tuple
    first_stage: tuple
    first_norms: tuple
    second_stage: tuple
    second_norms: tuple
    backend: str


def build_general_bo(
    measure1: Measure,
    measure2: Measure,
    subspace_polys,
    n_dim: int,
    backend: str = EXACT,
) -> GeneralBoBasis:
    """Block orthogonal basis for an arbitrary constraint subspace.

    The supplied polynomials are completed to a basis of the full space by
    appending monomials in degree order, skipping any that would make the
    first measure's Gram determinant vanish.  Two orthogonalizations follow:
    under the first measure to split off the complement, then under the
    second measure inside it.
    """
    subspace = tuple(subspace_polys)
    n1 = len(subspace)
    if not 0 < n1 < n_dim:
        raise ValueError("subspace dimension must be strictly between 0 and N")
    if any(p.degree >= n_dim for p in subspace):
        raise ValueError("subspace polynomials must live inside the space")
    mu1 = moments(measure1, 2 * (n_dim - 1), backend=backend)
    mu2 = moments(measure2, 2 * (n_dim - 1), backend=backend)

    def independent(polys):
        gram = gram_of(mu1, columns_of(polys, n_dim))
        if backend == EXACT:
            return linalg.det(gram) != 0
        return linalg.rank_float(gram)[0] == len(polys)

    if not independent(subspace):
        raise DependentConstraints("constraint polynomials are linearly dependent")

    basis = list(subspace)
    completion = []
    degree = 0
    while len(basis) < n_dim:
        if degree >= n_dim:
            raise DependentConstraints("could not complete the basis with monomials")
        candidate = monomial(degree) if backend == EXACT else monomial(degree).to_float()
        if independent(basis + [candidate]):
            basis.append(candidate)
            completion.append(degree)
        degree += 1

    one = scalars.one(backend)
    basis_cols = columns_of(basis, n_dim)
    res1 = gso.gram_schmidt(gram_of(mu1, basis_cols), [one] * n_dim)
    first = linalg.mat_mul(basis_cols, [row[n1:] for row in res1.coeffs])
    res2 = gso.gram_schmidt(gram_of(mu2, first), [one] * (n_dim - n1))
    return GeneralBoBasis(
        subspace=subspace,
        completion_degrees=tuple(completion),
        first_stage=from_columns(first),
        first_norms=res1.norms[n1:],
        second_stage=from_columns(linalg.mat_mul(first, res2.coeffs)),
        second_norms=res2.norms,
        backend=backend,
    )
