"""Block orthogonal polynomial bases for a pair of measures.

``build_sbo`` runs the two-step construction: first the standard orthogonal
polynomials Q_n of the first measure, then a second orthogonalization of
{Q_i, ..., Q_{N-1}} under the second measure.  The resulting P_{i;n} have
exact degree n, are orthogonal to every polynomial of degree < i under the
first measure, and are mutually orthogonal under the second.

Internally the basis always stores the monic data (polynomials, norms,
connection matrices); normalization modes are exact rescalings of that core.
Every build is cross-checked against the bordered-determinant formulas over
the gamma matrix gamma[j][k] = (Q_j, Q_k)_2 unless ``check=False``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import gso, linalg, scalars
from .errors import (
    DependentConstraints,
    MeasureMismatch,
    NotSymmetric,
    OracleMismatch,
)
from .gso import ORACLE_RTOL
from .measures import (
    GramMatrix,
    Measure,
    MomentSequence,
    hankel_matrix,
    inner_product_mu,
    moments,
)
from .polynomials import Polynomial, combine, monomial
from .scalars import EXACT
from .standard import (  # the normalization names are re-exported here
    DET_NORMALIZED,
    MONIC,
    ORTHONORMAL,
    StandardBasis,
    build_standard,
    normalization_factors,
    parity_split_build,
)


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
        """P_{i;n} in the basis' normalization."""
        return self.monic_polys[n - self.i].scale(self.scale[n - self.i])

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

    def connection_b(self, m, n):
        """B_{i;m,n} in the basis' normalization."""
        return self.q_in_p[m][n] / self.scale[m - self.i]

    def subleading(self, n):
        return self.monic_poly(n).coeff(n - 1)

    def subsubleading(self, n):
        return self.monic_poly(n).coeff(n - 2)


def gamma_matrix(q_basis: StandardBasis, measure2, i: int) -> GramMatrix:
    """Gram matrix of Q_i..Q_{N-1} under the second measure.

    The congruence A^T H_2 A, with A the columns i.. of ``q_in_x`` and H_2
    the second measure's Hankel matrix; the lower triangle mirrors the upper
    one, so float entries stay exactly symmetric.
    """
    n = q_basis.size
    if not 0 <= i <= n:
        raise ValueError(f"constraint index {i} outside 0..{n}")
    if isinstance(measure2, MomentSequence):
        mu2 = measure2
    else:
        mu2 = moments(measure2, max(2 * (n - 1), 0), backend=q_basis.backend)
    a = [row[i:] for row in q_basis.q_in_x]
    h2 = hankel_matrix(mu2, n).rows()
    full = linalg.mat_mul(linalg.mat_mul(linalg.transpose(a), h2), a)
    entries = [[full[min(j, k)][max(j, k)] for k in range(n - i)] for j in range(n - i)]
    return GramMatrix(tuple(map(tuple, entries)), f"Q_{i}..Q_{n - 1}")


def _scale(normalization, q_basis, i, gamma_dets):
    """Normalization factors K_{i;n} applied to the monic polynomials.

    The gamma matrix is taken over Q's with leading coefficients k_n, so the
    ``det`` and ``orthonormal`` factors of its determinants carry k_n.
    """
    factors = normalization_factors(normalization, gamma_dets, q_basis.backend)
    if normalization == MONIC:
        return tuple(factors)
    return tuple(q_basis.leading[i + s] * f for s, f in enumerate(factors))


def _second_stage(kernel, q_basis, measure2, i, normalization, check):
    """Orthogonalize Q_i..Q_{N-1} under the second measure with ``kernel``."""
    backend = q_basis.backend
    n_polys = q_basis.size
    mu2 = moments(measure2, 2 * n_polys - 2, backend=backend)
    gamma = gamma_matrix(q_basis, mu2, i)
    block = n_polys - i
    q_cols = [row[i:] for row in q_basis.q_in_x]
    # second-stage leading factors k_n make the output monic: A_{i;n,n} = 1/k_n
    result = kernel(gamma, list(q_basis.leading[i:]))
    monic = linalg.mat_mul(q_cols, result.coeffs)
    p_in_q = [[scalars.zero(backend)] * n_polys for _ in range(n_polys)]
    q_in_p = [[scalars.zero(backend)] * n_polys for _ in range(n_polys)]
    for row in range(block):
        for col in range(row, block):
            p_in_q[i + row][i + col] = result.coeffs[row][col]
            q_in_p[i + row][i + col] = result.inverse_coeffs[row][col]
    basis = SboBasis(
        i=i,
        size=n_polys,
        measure1=q_basis.measure,
        measure2=measure2,
        q_basis=q_basis,
        mu2=mu2,
        gamma=gamma,
        gamma_dets=result.gram_dets,
        monic_polys=tuple(Polynomial(col) for col in zip(*monic)),
        monic_norms=result.norms,
        p_in_q=tuple(map(tuple, p_in_q)),
        q_in_p=tuple(map(tuple, q_in_p)),
        scale=_scale(normalization, q_basis, i, result.gram_dets),
        normalization=normalization,
        backend=backend,
    )
    if check and block:
        gso.check_against_oracle(
            gamma, result, q_cols, "second-stage determinant oracle disagrees"
        )
        _check_leading_identities(basis)
    return basis


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
    """Two-step construction of the block orthogonal basis.

    ``q_leading`` optionally sets the leading coefficients of the first-stage
    polynomials; the monic P_{i;n} do not depend on that choice, which the
    oracle checks confirm on every build.
    """
    if not 0 <= i <= n_polys:
        raise ValueError(f"need 0 <= i <= N, got i={i}, N={n_polys}")
    q_basis = build_standard(
        measure1, n_polys, backend=backend, leading=q_leading, check=check
    )
    return _second_stage(gso.gram_schmidt, q_basis, measure2, i, normalization, check)


def _close(a, b, backend, scale=1):
    if backend == EXACT:
        return a == b
    return abs(a - b) <= ORACLE_RTOL * max(abs(scale), 1e-300)


def _check_leading_identities(basis: SboBasis):
    """Monic subleading coefficients recomputed from the connections."""
    q = basis.q_basis
    for n in basis.degrees():
        r_expect = q.subleading(n)
        s_expect = q.subsubleading(n)
        a_nn = basis.p_in_q[n][n]
        if n - 1 >= basis.i:
            ratio = (q.leading[n - 1] / q.leading[n]) * (basis.p_in_q[n - 1][n] / a_nn)
            r_expect = r_expect + ratio
            s_expect = s_expect + ratio * q.subleading(n - 1)
        if n - 2 >= basis.i:
            s_expect = s_expect + (q.leading[n - 2] / q.leading[n]) * (
                basis.p_in_q[n - 2][n] / a_nn
            )
        ok_r = _close(r_expect, basis.subleading(n), basis.backend, r_expect)
        ok_s = n < 2 or _close(s_expect, basis.subsubleading(n), basis.backend, s_expect)
        if not (ok_r and ok_s):
            raise OracleMismatch(
                f"subleading-coefficient identities fail at degree {n}"
            )


@dataclass(frozen=True)
class SboOracleResult:
    poly: Polynomial
    gram_det: object
    norm: object
    a_column: tuple
    b_column: tuple


def sbo_determinant_oracle(
    q_basis: StandardBasis, measure2, i: int, n: int
) -> SboOracleResult:
    """Monic P_{i;n} and its data straight from the bordered determinants.

    Expands the determinant with gamma rows i..n-1 and last row (Q_k) along
    that last row, divides by the previous gamma determinant, and scales by
    1/k_n.  Returns the polynomial together with the degree-n determinant,
    the monic norm, and the monic connection columns.
    """
    if not q_basis.size > n >= i >= 0:
        raise ValueError(f"need i <= n < N, got i={i}, n={n}, N={q_basis.size}")
    gamma = gamma_matrix(q_basis, measure2, i)
    s = n - i
    k_n = q_basis.leading[n]
    a_col = gso.determinant_oracle_vector(gamma, s, k_n)
    return SboOracleResult(
        poly=combine(a_col, q_basis.polys[i:]),
        gram_det=linalg.det([row[: s + 1] for row in gamma.rows()[: s + 1]]),
        norm=gso.oracle_norm(gamma, s, k_n),
        a_column=a_col,
        b_column=tuple(
            gso.oracle_connection_b(gamma, m, s, q_basis.leading[i + m])
            for m in range(s + 1)
        ),
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
    if not 0 <= i <= n_polys:
        raise ValueError(f"need 0 <= i <= N, got i={i}, N={n_polys}")
    q_basis = parity_split_build(measure1, n_polys, backend=backend)
    return _second_stage(gso.parity_gram_schmidt, q_basis, measure2, i, MONIC, False)


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

    def gram_of(polys):
        return [[inner_product_mu(mu1, p, q) for q in polys] for p in polys]

    def independent(polys):
        gram = gram_of(polys)
        if backend == EXACT:
            return linalg.det(gram) != 0
        return linalg.rank_float(gram)[0] == len(polys)

    if not independent(list(subspace)):
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
    res1 = gso.gram_schmidt(gram_of(basis), [one] * n_dim)
    first = [combine(res1.vector(col), basis) for col in range(n1, n_dim)]

    gram2 = [[inner_product_mu(mu2, p, q) for q in first] for p in first]
    res2 = gso.gram_schmidt(gram2, [one] * len(first))
    second = [combine(res2.vector(col), first) for col in range(len(first))]
    return GeneralBoBasis(
        subspace=subspace,
        completion_degrees=tuple(completion),
        first_stage=tuple(first),
        first_norms=res1.norms[n1:],
        second_stage=tuple(second),
        second_norms=res2.norms,
        backend=backend,
    )
