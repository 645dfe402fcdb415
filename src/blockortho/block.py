"""Block orthogonal polynomial bases for a pair of measures.

``build_sbos`` runs the two-step construction for a set of indices i, and
``build_sbo`` for one: first the standard orthogonal polynomials Q_n of the
first measure, then a second orthogonalization of {Q_i, ..., Q_{N-1}} under
the second measure.  The resulting P_{i;n} have exact degree n, are
orthogonal to every polynomial of degree < i under the first measure, and are
mutually orthogonal under the second.  ``build_general_bo`` takes any
constraint subspace E_i in place of pi_{i-1}.  Bases store the monic data.

Every stage orthogonalizes weighted columns V, coordinates on a measure's
monic orthogonal polynomials with norms h, Gram matrix V^T diag(h) V;
gamma[j][k] = (Q_j, Q_k)_2 is that of Q's coordinates on the second
measure's (:func:`gamma_matrix`).  Exact stages run :func:`gso.gram_schmidt`
with a g.a certificate on Gram matrices checked against the moments
(:func:`_exact_stage`); float stages run one QR of diag(sqrt h) V, gated by
its condition and checked by Gauss-rule residuals (:func:`_float_stage`).
The parity build (:func:`sbo_parity_build`) is the parity first stage, that
second stage and a checkerboard check of gamma.  ``check=False`` turns the
checks and the gate off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from itertools import accumulate, chain
from math import gcd, lcm
from operator import mul

from . import gso, linalg, scalars, standard
from ._numpy import np
from .errors import (
    ConditioningError,
    DependentConstraints,
    KindMismatch,
    MeasureMismatch,
    NotPositiveDefinite,
    NotSymmetric,
    OracleMismatch,
    stage,
)
from .gso import ORACLE_RTOL
from .measures import GramMatrix, Measure, MomentSequence, moments
from .polynomials import Polynomial, columns_of, combine, from_columns, from_lifted
from .scalars import EXACT, FLOAT, as_kind, one, zero
from .standard import (  # the normalization names are re-exported here
    DET_NORMALIZED,
    FIRST_STAGE,
    MONIC,
    ORTHONORMAL,
    StandardBasis,
    build_standard,
    monic_recurrence,
    normalization_factors,
    parity_split_build,
)

SECOND_STAGE = "second_stage"

# A checked float stage is refused when the condition of its weighted
# columns W with unit columns (:func:`connection_condition`) times the unit
# roundoff exceeds this: the square root of that of W^T W.  Measured over
# every benchmark-deck pair at N 4-20 and every i (BENCH_float_error.json):
# below it every build passes its checks and agrees with the exact backend
# within 1.4e-10; the first residual-check failures are above it.
CONNECTION_CONDITION_LIMIT = 1e-9
UNIT_ROUNDOFF = 2.0**-53

# A checked float stage fails when a Gauss-rule residual of its
# polynomials (:func:`_float_stage`) exceeds this.  Over every
# benchmark-deck pair at N 4-20 and every i, the largest residual of a build
# the gate admits is 6.7e-10; of 18,756 relative nudges of 1e-6 to single
# entries of T in 250 admitted builds, each one that moved the output by more
# than 2.7e-9 of its largest coefficient gave a residual above this.
QUADRATURE_RTOL = 2e-9

@dataclass(frozen=True)
class SboBasis:
    """Second-stage basis P_{i;n}, n = i..N-1, for a measure pair.

    ``p_in_q[m][n]`` is the monic connection (coefficient of Q_m in the monic
    P_{i;n}) and ``q_in_p[m][n]`` its inverse (coefficient of the monic
    P_{i;m} in Q_n); both are degree-indexed N x N with support i <= m <= n.
    ``gamma_dets[s]`` is the leading s x s minor of the gamma matrix, so the
    degree-indexed determinant is ``Z(n) = gamma_dets[n - i + 1]``.
    ``scale[n - i]`` holds the normalization factor applied to the monic core.
    An exact build keeps ``p_in_q``, ``monic_polys`` and gamma lifted
    (:class:`linalg.LiftedField`) and forms their Fractions when read.
    """

    i: int
    size: int
    measure1: Measure
    measure2: Measure
    q_basis: StandardBasis
    mu2: MomentSequence
    gamma_dets: tuple
    monic_polys: tuple = linalg.LiftedField(from_lifted)
    monic_norms: tuple
    p_in_q: tuple = linalg.LiftedField(linalg.LiftedColumns.rows)
    scale: tuple
    normalization: str
    backend: str
    _gamma: GramMatrix = field(default=None, repr=False, compare=False)
    _q_in_p: tuple = field(default=None, repr=False, compare=False)

    @property
    def gamma(self) -> GramMatrix:
        """Gram matrix of Q_i..Q_{N-1} under the second measure: stored by an
        exact build, formed by :func:`gamma_matrix` on a float one's first read."""
        if self._gamma is None:
            object.__setattr__(self, "_gamma", gamma_matrix(self.q_basis, self.measure2, self.i))
        return self._gamma

    @property
    def q_in_p(self):
        """The inverse of ``p_in_q``: kept by a float build from its
        factorization, formed from ``p_in_q`` on an exact one's first read."""
        if self._q_in_p is None:
            inverse = linalg.inverse_upper(linalg.lifted(self, "p_in_q") or self.p_in_q, self.i)
            object.__setattr__(self, "_q_in_p", inverse)
        return self._q_in_p

    def degrees(self):
        return range(self.i, self.size)

    def poly(self, n) -> Polynomial:
        """P_{i;n} in the basis' normalization (the monic one itself when its
        factor is one)."""
        factor = self.scale[n - self.i]
        monic = self.monic_polys[n - self.i]
        return monic if factor == 1 else monic.scale(factor)

    def lifted_poly(self, n):
        """The coefficients of an exact P_{i;n} in the basis' normalization
        as integers over one positive denominator, read off its lifted
        column without a Fraction."""
        data = linalg.lifted(self, "monic_polys")
        ints, den = data.cols[n - self.i] if data else linalg.lift(self.monic_poly(n).coeffs)
        kp, kq = self.scale[n - self.i].as_integer_ratio()
        return ([x * kp for x in ints] if kp != 1 else ints), den * kq

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
    """Gram matrix of Q_i..Q_{N-1} under the second measure, given as a
    measure or the moment sequence of one: T_i^T diag(h) T_i, T_i = T[:, i:],
    the second measure's N-node Gauss rule (Golub-Welsch) with no nodes, for
    T of :func:`_connection_to_second` and h the norms of the R_m.  Exact
    bases take it in integers and keep it lifted (a float second measure
    raises KindMismatch), float ones by numpy.
    """
    n = q_basis.size
    if not 0 <= i <= n:
        raise ValueError(f"constraint index {i} outside 0..{n}")
    if isinstance(measure2, MomentSequence):
        measure2 = measure2.measure
    if q_basis.backend == EXACT and not moments(measure2, 0).exact:
        raise KindMismatch("exact basis and float moments of the second measure")
    rec2 = monic_recurrence(measure2, n)
    if q_basis.backend == FLOAT:
        connection, norms = _connection_and_norms(q_basis, standard._float_terms(rec2))
        t_i = connection[:, i:]
        full = (np.triu((norms[:, None] * t_i).T @ t_i) + 0.0).tolist()  # a -0.0 sum reads 0.0
        entries = tuple(tuple(full[min(j, k)][max(j, k)] for k in range(n - i)) for j in range(n - i))
    else:
        entries = linalg.Lifted(_gram_by_connection(q_basis, rec2, i))
    return GramMatrix(entries, f"Q_{i}..Q_{n - 1}")


def _gram_by_connection(q_basis: StandardBasis, rec2, i):
    """T^T diag(h) T over the columns i.. of exact T, h the norms of the
    second measure's monic R_m, as a :class:`linalg.LiftedGram`: the columns
    of T come lifted from :func:`_connection_to_second` and are put over
    their lcm S, h is lifted once, each entry of the upper triangle is one
    integer sum over h_scale S^2, and the whole is divided by the gcd of
    its integers and that scale."""
    h = [one(EXACT)]
    for _, c_m in rec2[1:]:
        h.append(h[-1] * as_kind(c_m, EXACT))
    h_ints, h_scale = linalg.lift(h)
    cols = _connection_to_second(q_basis, rec2)[i:]
    common = lcm(*(s for _, s in cols))
    cols = [col if s == common else [x * (common // s) for x in col] for col, s in cols]
    upper = []
    for j, col_j in enumerate(cols):
        weighted = list(map(mul, h_ints, col_j))
        upper.append([sum(map(mul, weighted, col_k)) for col_k in cols[j:]])
    scale = h_scale * common * common
    g = gcd(scale, *chain.from_iterable(upper))
    if g > 1:
        upper, scale = [[x // g for x in row] for row in upper], scale // g
    return linalg.LiftedGram(upper, scale)


def _connection_and_norms(q_basis: StandardBasis, rec2):
    """T of :func:`_connection_to_second` on the monic recurrence ``rec2`` and
    h_m = c_1 ... c_m, the norms of its R_m, as float arrays."""
    h = np.cumprod([1.0] + [float(c_m) for _, c_m in rec2[1:]])
    return np.array(_connection_to_second(q_basis, rec2), dtype=float), h


def _connection_to_second(q_basis: StandardBasis, rec2):
    """T[m][j]: coefficient of R_m in Q_j, R the monic orthogonal polynomials
    of the recurrence ``rec2``, in the scalars of the basis (upper triangular).

    Column n + 1 is Q's recurrence applied to column n, x acting as the
    Jacobi matrix: (x t)_m = t_{m-1} + b_m t_m + c_{m+1} t_{m+1}.  Exact
    bases run the monic q_j in integers (:func:`standard._recurrence_columns`
    on the basis' monic terms) and return the lifted columns ``(ints, den)``
    of Q_j = k_j q_j, m = 0..j; float bases return T, each entry summed
    over its present terms in order.
    """
    n = q_basis.size
    kind = q_basis.backend
    if kind == EXACT:
        cols = standard._recurrence_columns(q_basis.monic_terms[: n - 1], rec2)
        return standard._folded(cols, q_basis.leading)
    b = [as_kind(b_m, kind) for b_m, _ in rec2]
    c = [as_kind(c_m, kind) for _, c_m in rec2]
    # column by column, each sum formed left to right over its present terms
    cols = [[zero(kind)] * n for _ in range(n)]
    cols[0][0] = as_kind(q_basis.leading[0], kind)
    for k, coeffs in enumerate(q_basis.recurrence):
        a_k, b_k, c_k = (as_kind(x, kind) for x in coeffs)
        u, w, out = cols[k], cols[k - 1], cols[k + 1]
        for m in range(k + 2):
            u_m = u[m]  # zero at m = k + 1, outside the support
            x_t = b[m] * u_m if b[m] and u_m else None
            if m and u[m - 1]:
                x_t = u[m - 1] if x_t is None else x_t + u[m - 1]
            if m < k and u[m + 1]:
                y = c[m + 1] * u[m + 1]
                x_t = y if x_t is None else x_t + y
            total = None if x_t is None else (x_t if a_k == 1 else a_k * x_t)
            if b_k and u_m:
                y = b_k * u_m
                total = y if total is None else total + y
            if c_k and m < k and w[m]:
                y = -(c_k * w[m])
                total = y if total is None else total + y
            if total is not None:
                out[m] = total
    return [list(row) for row in zip(*cols)]


def _check_gram(gram, mu, cols, degrees, what="gamma matrix and second-measure moments"):
    """An exact Gram matrix A^T H A, the :class:`linalg.LiftedGram` ``gram``,
    for the monomial coefficient columns A (``cols``, lifted) and the Hankel
    matrix H of ``mu``, checked in O(N^2) by its row sums A^T (H (A u)), u
    all ones, over integers.  It reads neither the coordinates the matrix
    was formed in nor the Gauss rule; row j that fails raises OracleMismatch
    at ``degrees[j]``.
    """
    size = max((len(ints) for ints, _ in cols), default=0)
    a, a_scale = linalg.common_rows(cols, size)
    mu_ints, mu_scale = linalg.lift(mu.mu[: 2 * size - 1])
    sums = [sum(row) for row in a]
    h_sums = [sum(mu_ints[r + c] * s_c for c, s_c in enumerate(sums) if s_c) for r in range(size)]
    for j, row in enumerate(gram.int_rows()):
        expect = sum(a_r[j] * w_r for a_r, w_r in zip(a, h_sums) if a_r[j])
        if sum(row) * a_scale**2 * mu_scale != expect * gram.scale:
            raise OracleMismatch(f"{what} disagree at degree {degrees[j]}", degree=degrees[j])


def connection_condition(connection, norms) -> float:
    """2-norm condition number of W = diag(sqrt h) V with unit columns, for
    the weighted columns ``connection`` = V and the ``norms`` h, times the
    unit roundoff: the relative accuracy of a float stage, which factors W
    and never W^T W.  Infinite when W is not finite or numerically singular."""
    w = np.sqrt(norms)[:, None] * connection
    if not np.all(np.isfinite(w)):
        return math.inf
    scale = np.linalg.norm(w, axis=0)
    if not np.all(scale > 0):
        return math.inf
    sigma = np.linalg.svd(w / scale, compute_uv=False)
    if not sigma[-1] > 0:
        return math.inf
    return float(sigma[0] / sigma[-1]) * UNIT_ROUNDOFF


def _exact_stage(gram, basis, leading, check, name):
    """One exact stage of weighted columns V: :func:`gso.gram_schmidt` of
    ``gram`` = V^T diag(h) V, checked when ``check`` by the g.a certificate
    of :func:`gso.check_against_oracle` (``basis``, the coefficients of V,
    names a failing degree)."""
    result = gso.gram_schmidt(gram, leading)
    if check and leading:
        what = f"{name.replace('_', '-')} determinant oracle disagrees"
        gso.check_against_oracle(gram, result, basis, what)
    return result


def _qr_second_stage(connection, norms, leading):
    """One QR factorization of W = diag(sqrt h) V, the weighted columns
    ``connection`` = V and the ``norms`` h: the kernel of every float stage.

    Modified Gram-Schmidt on the columns of V in <x, y> = sum_m h_m x_m y_m:
    column j is taken off each later column k with B[j][k] = <v_j, v_k> / d_j,
    d_j = R_jj^2.  For the leading factors k, h_n = d_n / k_n^2, the leading
    determinants are the prefix products of d, b = diag(k) B and
    a = B^-1 diag(1/k).  R is as accurate as a Householder R (Bjorck, BIT 7
    (1967)); no square root is taken.  A d_k that is not positive and finite
    raises NotPositiveDefinite at column k.
    """
    size = connection.shape[1]
    v = np.array(connection)
    unit = np.eye(size)
    d = np.empty(size)
    for j in range(size):
        weighted = norms * v[:, j]
        d[j] = weighted @ v[:, j]
        if not (math.isfinite(d[j]) and d[j] > 0):
            raise NotPositiveDefinite(f"float pivot h_{j} = {d[j]} is not positive", degree=j)
        if j + 1 < size:
            unit[j, j + 1 :] = (weighted @ v[:, j + 1 :]) / d[j]
            v[:, j + 1 :] -= np.outer(v[:, j], unit[j, j + 1 :])
    k = np.array(leading, dtype=float)
    a = np.triu(np.linalg.solve(unit, np.diag(1.0 / k))) if size else unit
    return gso.OrthogonalizationResult(
        tuple(map(tuple, a.tolist())),
        tuple((d / (k * k)).tolist()),
        tuple(leading),
        (one(EXACT), *accumulate(d.tolist(), mul)),
        tuple(map(tuple, (k[:, None] * unit).tolist())),
    )


def _q_at_nodes(q_basis: StandardBasis, nodes):
    """Q_0..Q_{N-1} at ``nodes`` by Q's own recurrence, one row per node.
    Q's monomial coefficients are not read: summed at a node they cancel."""
    values = np.empty((q_basis.size, len(nodes)))
    values[0] = float(q_basis.leading[0])
    for k, (a_k, b_k, c_k) in enumerate(q_basis.recurrence):
        # (A_k x + B_k) Q_k - C_k Q_{k-1}, formed in place
        row = values[k + 1]
        np.multiply(nodes, float(a_k), out=row)
        row += float(b_k)
        row *= values[k]
        if k:
            row -= float(c_k) * values[k - 1]
    return values.T


def _quadrature_rules(q_basis: StandardBasis, rec2):
    """What the Gauss-rule checks read, made once per build, from the N-node
    rules (:func:`standard.recurrence_rule`) of the second measure's monic
    recurrence ``rec2`` and of the first's float terms: Q_0..Q_{N-1} at the
    second rule's nodes times the square roots of its weights, one row per
    node, and Q_0..Q_{N-1} at the first rule's nodes with the powers x^j of
    those nodes times its weights."""
    size = q_basis.size
    rules = [standard.recurrence_rule(rec2), standard.recurrence_rule(q_basis.float_terms)]
    nodes = np.concatenate([rule_nodes for rule_nodes, _ in rules])
    values = _q_at_nodes(q_basis, nodes)
    second = np.sqrt(rules[0][1])[:, None] * values[:size]
    return second, (values[size:], rules[1][1][:, None] * nodes[size:, None] ** np.arange(size))


def _float_stage(columns, norms, leading, residual, name, i):
    """One float stage of weighted columns V, ``columns``, with weights
    ``norms`` h: one QR of W = diag(sqrt h) V (:func:`_qr_second_stage`).

    With a ``residual`` (rule, constraint, degrees) it is refused above
    CONNECTION_CONDITION_LIMIT (:func:`connection_condition`), and each
    output P_n = sum_m a_{m,n} V_m must have, within QUADRATURE_RTOL,
    (P_j, P_n) = 0 for j < n relative to the norms, (P_n, P_n) = h_n, and
    no first-measure inner product with a constraint polynomial relative to
    the bound of its rounding.  ``rule`` holds V at the stage measure's
    nodes times the roots of its weights; ``constraint`` holds V and the
    constraint polynomials times the weights at the first rule's nodes, and
    the same products taken over absolute values, whose sum bounds the
    rounding where the polynomials vanish at every node between them.  The
    first failing column n raises OracleMismatch at ``degrees[n]``.
    """
    if residual is None or not leading:
        return _qr_second_stage(columns, norms, leading)
    condition = connection_condition(columns, norms)
    if not condition <= CONNECTION_CONDITION_LIMIT:
        raise ConditioningError(
            f"float {name.replace('_', ' ')} refused at i={i}: condition of the unit-column weighted "
            f"connection times unit roundoff is {condition:.3g} > {CONNECTION_CONDITION_LIMIT:g}",
            stage=name, condition=condition, limit=CONNECTION_CONDITION_LIMIT,
        )
    result = _qr_second_stage(columns, norms, leading)
    rule, constraint, degrees = residual
    a = np.array(result.coeffs)
    h = np.array(result.norms)
    p2 = rule @ a
    gram = p2.T @ p2
    diag = np.diag(gram)
    with np.errstate(all="ignore"):
        worst = np.abs(gram) / np.sqrt(np.outer(diag, diag))
        np.fill_diagonal(worst, np.abs(diag - h) / h)
        worst = np.triu(worst).max(axis=0)
        if constraint is not None:
            values, weighted, abs_values, abs_weighted = constraint
            bound = abs_weighted.T @ (abs_values @ np.abs(a))
            moments1 = np.abs(weighted.T @ (values @ a)) / bound
            worst = np.maximum(worst, moments1.max(axis=0))
    bad = np.flatnonzero(~(worst <= QUADRATURE_RTOL))
    if bad.size:
        degree = degrees[int(bad[0])]
        raise OracleMismatch(
            f"{name.replace('_', '-')} Gauss-rule residuals exceed {QUADRATURE_RTOL:g} "
            f"at degree {degree}",
            degree=degree,
        )
    return result


def _scale(normalization, q_basis, i, gamma_dets):
    """Normalization factors K_{i;n} applied to the monic polynomials.

    The gamma matrix is taken over Q's with leading coefficients k_n, so the
    ``det`` and ``orthonormal`` factors of its determinants carry k_n.
    """
    factors = normalization_factors(normalization, gamma_dets, q_basis.backend)
    if normalization == MONIC:
        return tuple(factors)
    return tuple(q_basis.leading[i + s] * f for s, f in enumerate(factors))


def _sbo_bases(first_stage, measure2, i_values, n_polys, normalization, check):
    """Q_0..Q_{N-1} from ``first_stage()``, then Q_i..Q_{N-1} orthogonalized
    under the second measure for every i in ``i_values``: the stage of the
    weighted columns V = [0; I], constraints x^j, j < i.  Exact bases take
    every gamma_i as a trailing block of one lifted gamma over
    Q_lo..Q_{N-1} and Q's rows over one scale once, and keep a and
    P = Q[:, i:] a lifted (:func:`linalg.lifted_product`); float ones take T
    and h once, and keep q_in_p from the factorization.
    """
    # checked before the first stage, so a bad i is reported even where Q fails
    for i in i_values:
        if not 0 <= i <= n_polys:
            raise ValueError(f"need 0 <= i <= N, got i={i}, N={n_polys}")
    q_basis = first_stage()
    backend = q_basis.backend
    mu2 = moments(measure2, 2 * n_polys - 2, backend=backend)
    lo = min(i_values, default=n_polys)
    # what every i shares is made once
    if backend == EXACT:
        gamma_lo = gso._lifted(gamma_matrix(q_basis, mu2, lo))
        q_cols = linalg.columns(q_basis, "q_in_x").cols
        if check:
            with stage(SECOND_STAGE):
                _check_gram(gamma_lo, mu2, q_cols[lo:], range(lo, n_polys))
        q_rows, q_scale = linalg.common_rows(q_cols, n_polys)
    else:
        q_array = np.array(q_basis.q_in_x)
        rec2 = standard._float_terms(monic_recurrence(measure2, n_polys))
        connection, norms = _connection_and_norms(q_basis, rec2)
        if check and lo < n_polys:
            with stage(SECOND_STAGE):
                standard._check_rule_moments(rec2, mu2)
            second, first = _quadrature_rules(q_basis, rec2)
    lead = (q_cols if backend == EXACT else _leading_data(q_basis)) if check else None
    nil = (zero(backend),)
    bases = {}
    for i in i_values:
        block = n_polys - i
        pad = (nil * n_polys,) * i
        # second-stage leading factors k_n make the output monic: A_{i;n,n} = 1/k_n
        leading = list(q_basis.leading[i:])
        with stage(SECOND_STAGE, first_degree=i):
            if backend == EXACT:
                gamma_i = linalg.LiftedGram(gamma_lo.upper[i - lo :], gamma_lo.scale)
                gamma = GramMatrix(linalg.Lifted(gamma_i), f"Q_{i}..Q_{n_polys - 1}")
                # V = [0; I] on Q names the degrees Q[:, i:] names, Q_m of degree m
                v = [(zero(EXACT),) * block] * i + linalg.identity(block)
                result = _exact_stage(gamma, v, leading, check, SECOND_STAGE)
                a_cols = linalg.columns(result, "coeffs").cols
                p_cols = linalg.lifted_product(q_rows, q_scale, a_cols, i)
                p_in_q = linalg.Lifted(linalg.LiftedColumns(a_cols, n_polys, i))
                monic_polys = linalg.Lifted(linalg.LiftedColumns(p_cols, n_polys))
                q_in_p = None  # formed from p_in_q when read
            else:
                gamma, residual = None, None
                if check and block:
                    # V = [0; I], and the constraints are x^j, j < i
                    values, weighted = first[0][:, i:], first[1][:, :i]
                    constraint = (values, weighted, np.abs(values), np.abs(weighted)) if i else None
                    residual = (second[:, i:], constraint, range(i, n_polys))
                result = _float_stage(connection[:, i:], norms, leading, residual, SECOND_STAGE, i)
                p_cols = (q_array[:, i:] @ np.array(result.coeffs).reshape(block, block)).tolist()
                p_in_q = pad + tuple(nil * i + row for row in result.coeffs)
                monic_polys = from_columns(p_cols)
                q_in_p = pad + tuple(nil * i + row for row in result.inverse_coeffs)
        bases[i] = SboBasis(
            i=i,
            size=n_polys,
            measure1=q_basis.measure,
            measure2=measure2,
            q_basis=q_basis,
            mu2=mu2,
            gamma_dets=result.gram_dets,
            monic_polys=monic_polys,
            monic_norms=result.norms,
            p_in_q=p_in_q,
            scale=_scale(normalization, q_basis, i, result.gram_dets),
            normalization=normalization,
            backend=backend,
            _gamma=gamma,
            _q_in_p=q_in_p,
        )
        if check and block:
            _check_leading_identities(bases[i], lead)
    return bases


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
    return _sbo_bases(first_stage, measure2, i_values, n_polys, normalization, check)


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
    """What the float subleading identities of every i read from Q, made
    once per build: for each n, the monic subleading and subsubleading coefficients
    r_n and s_n of Q_n, and the ratios u_n = k_{n-1} / k_n and
    v_n = k_{n-2} / k_n of its leading coefficients (zero where the index
    falls below 0), taken as ``StandardBasis.subleading`` and
    ``subsubleading`` take them, so they round alike."""
    size, ks, nil = q_basis.size, q_basis.leading, 0.0
    r = [q_basis.subleading(n) for n in range(size)]
    s = [q_basis.subsubleading(n) for n in range(size)]
    u = [ks[n - 1] / ks[n] if n else nil for n in range(size)]
    v = [ks[n - 2] / ks[n] if n > 1 else nil for n in range(size)]
    return r, s, u, v


def _check_leading_identities(basis: SboBasis, lead):
    """Monic subleading coefficients recomputed from the connections.

    The monic P_{i;n} is sum_m a_{m,n} Q_m, so its coefficients of x^(n-1)
    and x^(n-2) are r_n + rho u_n and s_n + rho u_n r_{n-1} + sigma v_n, with
    rho = a_{n-1,n} / a_{n,n} and sigma = a_{n-2,n} / a_{n,n} (terms with
    an index below i left out), for ``lead`` = (r, s, u, v), the per-build
    Q data of :func:`_leading_data`, within ORACLE_RTOL.  Exact bases check
    the same two coefficients as sum_m a_{m,n} Q_m[t] = P_{i;n}[t],
    t = n - 1, n - 2, m from max(i, t) on, one integer sum each over the
    lifted columns of a, P and Q (``lead`` holds Q's).
    """
    i = basis.i
    if basis.backend == EXACT:
        a_cols, p_cols = linalg.lifted(basis, "p_in_q").cols, linalg.lifted(basis, "monic_polys").cols
        for n, (a, e), (p_n, f) in zip(basis.degrees(), a_cols, p_cols):
            for t in range(max(n - 2, 0), n):
                terms = [(a[m - i], lead[m]) for m in range(max(i, t), n + 1)]
                den = lcm(*(d for _, (_, d) in terms))
                if p_n[t] * e * den != f * sum(x * q[t] * (den // d) for x, (q, d) in terms):
                    _leading_mismatch(n)
        return
    r, s, u, v = lead
    p = basis.p_in_q
    for n in basis.degrees():
        a_nn = p[n][n]
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
            _leading_mismatch(n)


def _leading_mismatch(n):
    raise OracleMismatch(
        f"subleading-coefficient identities fail at degree {n}", stage=SECOND_STAGE, degree=n
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
    elimination: object = field(default=None, repr=False, compare=False)

    @property
    def b_column(self):
        """Monic connection column b_{m,n}, m = i..n, computed when read (off
        ``elimination``, if any), exactly, and rounded once for a float gamma."""
        n = len(self.a_column) - 1
        column = gso.oracle_connection_column(self.gamma, n, self.leading, self.elimination)
        return column if scalars.kind_of(self.norm) == EXACT else tuple(map(scalars.rounded, column))


def sbo_determinant_oracle(
    q_basis: StandardBasis, measure2, i: int, n: int, gamma: GramMatrix = None, elimination=None
) -> SboOracleResult:
    """Monic P_{i;n} and its data straight from the bordered determinants.

    Expands the determinant with gamma rows i..n-1 and last row (Q_k) along
    that last row, divides by the previous gamma determinant, and scales by
    1/k_n.  Returns the polynomial together with the degree-n determinant,
    the monic norm and the monic connection columns.  ``gamma`` is gamma_i
    when the caller holds it (a basis stores its own); otherwise it is
    assembled from ``measure2``.  A caller that runs every degree of one
    gamma_i passes its :class:`linalg.LiftedElimination` as
    ``elimination``, so the degrees and their b columns share it.  A float
    basis runs the same exact route on its gamma_i and Q as the dyadic
    rationals they hold, and each output is rounded once.
    """
    if not q_basis.size > n >= i >= 0:
        raise ValueError(f"need i <= n < N, got i={i}, n={n}, N={q_basis.size}")
    if gamma is None:
        gamma = gamma_matrix(q_basis, measure2, i)
    a_col, norm, gram_det = gso.bordered_oracle(gamma, n - i, q_basis.leading[n], elimination)
    if q_basis.backend == EXACT:
        poly = combine(a_col, q_basis.polys[i:])
    else:
        # Q's coefficients read as the dyadic rationals they hold, as gamma_i is
        rows = [row[i : n + 1] for row in q_basis.q_in_x[: n + 1]]
        column = linalg._exact_mat_mul(rows, [[c] for c in a_col])
        poly = Polynomial(tuple(scalars.rounded(x) for x, in column))
        a_col = tuple(map(scalars.rounded, a_col))
        norm, gram_det = scalars.rounded(norm), scalars.rounded(gram_det)
    return SboOracleResult(
        poly=poly,
        gram_det=gram_det,
        norm=norm,
        a_column=a_col,
        gamma=gamma,
        leading=tuple(q_basis.leading[i : n + 1]),
        elimination=elimination,
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

    The parity first stage (:func:`standard.parity_split_build`), the
    backend's one second stage, unchecked, and a check that gamma_i vanishes
    at every odd j + k (NotCheckerboard).  The even and odd degrees then
    decouple on their own, and the result must reproduce :func:`build_sbo`.
    """
    if not (measure1.symmetric and measure2.symmetric):
        raise NotSymmetric("parity build needs both measures symmetric")
    first_stage = partial(parity_split_build, measure1, n_polys, backend=backend)
    basis = _sbo_bases(first_stage, measure2, [i], n_polys, MONIC, False)[i]
    gso.require_checkerboard(basis.gamma.entries, f"second-stage gamma_{i}")
    return basis


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


def _completion(subspace, n_dim):
    """The degrees d, in order, of the monomials x^d that complete
    ``subspace`` to a basis of pi_{N-1}, skipping each x^d in E + pi_{d-1}:
    the top degrees of E's echelon form, reduced in exact rationals (a float
    as its own value).  A constraint that reduces to zero raises
    DependentConstraints naming its index."""
    pivots = {}
    for k, p in enumerate(subspace):
        col = [Fraction(c) for c in p.coeffs]
        while (top := max((d for d, x in enumerate(col) if x), default=None)) in pivots:
            col = [x - col[top] / pivots[top][top] * y for x, y in zip(col, pivots[top])]
        if top is None:
            raise DependentConstraints(f"constraint {k} depends on the constraints before it")
        pivots[top] = col
    return tuple(d for d in range(n_dim) if d not in pivots)


def _in_q(q_basis: StandardBasis, coeffs):
    """Exact coordinates on the monic Q_m, m < len(coeffs), of the columns of
    monomial coefficients ``coeffs``: x^j on the Q_m by the recurrence
    (:func:`standard._recurrence_columns`, Q's monic terms as target)."""
    size = len(coeffs)
    cols = standard._recurrence_columns([(0, 0)] * (size - 1), q_basis.monic_terms)
    in_q = [[Fraction(ints[m], den) if m < len(ints) else 0 for ints, den in cols] for m in range(size)]
    return linalg.mat_mul(in_q, [[Fraction(x) for x in row] for row in coeffs])


def build_general_bo(
    measure1: Measure,
    measure2: Measure,
    subspace_polys,
    n_dim: int,
    backend: str = EXACT,
) -> GeneralBoBasis:
    """Block orthogonal basis for an arbitrary constraint subspace E.

    E is completed by monomials (:func:`_completion`); the first stage
    orthogonalizes that basis under the first measure and keeps the
    complement, the second orthogonalizes it under the second.  Both work on
    coordinates V on the first measure's monic Q_m (:func:`_in_q`), where a
    completing x^d may stand for Q_d, as the vectors before it span their
    difference, and the Gram matrices are V^T diag(h_1) V and V^T gamma V;
    :func:`build_sbo` is E = pi_{i-1}, V = [0; I].  A Q_d above E's degrees
    is orthogonal to all before it, so the first stage runs on the leading
    block only.  Both stages are checked.
    """
    subspace = tuple(subspace_polys)
    n1 = len(subspace)
    if not 0 < n1 < n_dim:
        raise ValueError("subspace dimension must be strictly between 0 and N")
    if any(p.degree >= n_dim for p in subspace):
        raise ValueError("subspace polynomials must live inside the space")
    completion = _completion(subspace, n_dim)
    q_basis = build_standard(measure1, n_dim, backend=backend)
    top = 1 + max(p.degree for p in subspace)
    inner = [d for d in completion if d < top]  # the completing Q_d of the leading block
    e_coeffs = columns_of(subspace, top)
    v = [e + [int(m == d) for d in inner] for m, e in enumerate(_in_q(q_basis, e_coeffs))]
    degrees = [p.degree for p in subspace] + inner
    with stage(FIRST_STAGE):
        if backend == EXACT:
            weighted = [[h * x for x in row] for h, row in zip(q_basis.norms, v)]
            gram1 = linalg.LiftedGram.of(linalg.mat_mul(linalg.transpose(v), weighted))
            cols = [e + [q_basis.q_in_x[m][d] for d in inner] for m, e in enumerate(e_coeffs)]
            cols = [linalg.lift(col) for col in zip(*cols)]
            _check_gram(gram1, q_basis.moment_seq, cols, degrees, "first-stage Gram matrix and moments")
            res1 = _exact_stage(gram1, v, [one(backend)] * top, True, FIRST_STAGE)
        else:
            # the metric is diag(h1) here; the second stage checks E against the rule
            v, h1 = np.array(v, dtype=float), np.array(q_basis.norms[:top])
            residual = (np.sqrt(h1)[:, None] * v, None, degrees)
            res1 = _float_stage(v, h1, [1.0] * top, residual, FIRST_STAGE, n1)
            v = v.tolist()
    # the complement on Q_0..Q_{N-1}: the leading block's vectors, then Q_top..
    lead = linalg.mat_mul(v, [row[n1:] for row in res1.coeffs])
    f = [
        (lead[m] if m < top else [0] * len(inner)) + [int(m == d) for d in range(top, n_dim)]
        for m in range(n_dim)
    ]
    first = linalg.mat_mul(q_basis.q_in_x, f) if inner else [row[top:] for row in q_basis.q_in_x]
    mu2 = moments(measure2, 2 * n_dim - 2, backend=backend)
    with stage(SECOND_STAGE):
        if backend == EXACT:
            lo = 0 if inner else top  # F = [0; I] where E spans pi_{top-1}
            gamma = gso._lifted(gamma_matrix(q_basis, mu2, lo))
            if inner:
                gram2 = linalg.mat_mul(linalg.mat_mul(linalg.transpose(f), gamma.rows()), f)
                gamma = linalg.LiftedGram.of(gram2)
            cols = [linalg.lift(col) for col in zip(*first)]
            _check_gram(gamma, mu2, cols, completion, "second-stage Gram matrix and moments")
            res2 = _exact_stage(gamma, first, [one(backend)] * (n_dim - n1), True, SECOND_STAGE)
        else:
            rec2 = standard._float_terms(monic_recurrence(measure2, n_dim))
            standard._check_rule_moments(rec2, mu2)
            rule2, (values1, powers) = _quadrature_rules(q_basis, rec2)
            connection, h2 = _connection_and_norms(q_basis, rec2)
            f = np.array(f, dtype=float)
            powers, e_coeffs = powers[:, :top], np.array(e_coeffs, dtype=float)
            abs_products = (np.abs(values1) @ np.abs(f), np.abs(powers) @ np.abs(e_coeffs))
            constraint = (values1 @ f, powers @ e_coeffs, *abs_products)
            residual = (rule2 @ f, constraint, completion)
            res2 = _float_stage(connection @ f, h2, [1.0] * (n_dim - n1), residual, SECOND_STAGE, n1)
    return GeneralBoBasis(
        subspace=subspace,
        completion_degrees=completion,
        first_stage=from_columns(first),
        first_norms=res1.norms[n1:] + q_basis.norms[top:],
        second_stage=from_columns(linalg.mat_mul(first, res2.coeffs)),
        second_norms=res2.norms,
        backend=backend,
    )
