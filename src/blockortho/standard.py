"""Standard orthogonal polynomials of a single measure.

Exact builds, and float builds of measures without a closed-form
recurrence, run Gram-Schmidt on the monomial Hankel matrix, cross-checked
against the closed bordered-determinant formulas for the coefficients and
norms, so a silent disagreement between the inductive and the determinant
route cannot survive construction.  Float builds of the gaussian and gamma
families never form a Hankel matrix: they run the three-term recurrence of
:func:`monic_recurrence`, whose closed forms are checked against the
closed-form moments through the Gauss rule they define.

Normalization modes:

* ``monic``        leading coefficient 1 (the default; exact-friendly)
* ``orthonormal``  unit norms, positive leading coefficients; in the exact
                   backend this requires every norm ratio to be a perfect
                   square and raises NotRepresentable otherwise
* ``det``          leading coefficient equal to the previous Gram determinant,
                   which clears all determinant denominators
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import gso, linalg
from .errors import ConditioningError, NotRepresentable, NotSymmetric, OracleMismatch, stage
from .gso import ORACLE_RTOL, OrthogonalizationResult
from .measures import (
    GammaFamilyWeight,
    GaussianWeight,
    Measure,
    MomentSequence,
    hankel_matrix,
    moments,
)
from .polynomials import Polynomial, monomial
from .scalars import EXACT, FLOAT, one, sqrt_exact, zero

MONIC = "monic"
ORTHONORMAL = "orthonormal"
DET_NORMALIZED = "det"

# float builds are refused beyond this size: the conditioning gate of the
# second stage is measured only up to it
FLOAT_SIZE_LIMIT = 20

FIRST_STAGE = "first_stage"


@dataclass(frozen=True)
class StandardBasis:
    """Orthogonal polynomials Q_0..Q_{N-1} of one measure.

    ``q_in_x[m][n]`` is the coefficient of x^m in Q_n and ``x_in_q[m][n]``
    the coefficient of Q_m in x^n.  ``gram_dets[k]`` is the k x k leading
    Hankel determinant.  Norms are in units of the measure's zeroth moment.
    """

    measure: Measure
    moment_seq: MomentSequence
    polys: tuple
    leading: tuple
    norms: tuple
    q_in_x: tuple
    x_in_q: tuple
    gram_dets: tuple
    recurrence: tuple
    normalization: str
    backend: str

    @property
    def size(self):
        return len(self.polys)

    def Z(self, n):
        """Degree-indexed Gram determinant (Z(-1) = 1)."""
        return self.gram_dets[n + 1]

    def _monic_coeff(self, m, n):
        """Coefficient of x^m in the monic version of Q_n (zero for m < 0)."""
        if m < 0:
            return zero(self.backend)
        # times 1/k_n, as Polynomial.monic scales, so floats round alike
        return self.q_in_x[m][n] * (one(self.backend) / self.leading[n])

    def subleading(self, n):
        """Coefficient of x^(n-1) in the monic version of Q_n."""
        return self._monic_coeff(n - 1, n)

    def subsubleading(self, n):
        """Coefficient of x^(n-2) in the monic version of Q_n."""
        return self._monic_coeff(n - 2, n)


def normalization_factors(normalization, dets, backend):
    """Leading coefficients of the requested normalization.

    ``dets`` are the leading Gram determinants of the vectors (``dets[0]`` is
    1, one entry more than vectors), taken over a basis whose vectors have
    leading coefficient one.  ``det`` gives the vector of index s the
    leading coefficient dets[s], ``orthonormal`` sqrt(dets[s] / dets[s+1]).
    """
    out = []
    for s in range(len(dets) - 1):
        if normalization == MONIC:
            out.append(one(backend))
        elif normalization == DET_NORMALIZED:
            out.append(dets[s])
        elif normalization == ORTHONORMAL:
            ratio = dets[s] / dets[s + 1]
            root = sqrt_exact(ratio) if backend == EXACT else math.sqrt(ratio)
            if root is None:
                raise NotRepresentable(f"orthonormal needs sqrt({ratio}); not rational")
            out.append(root)
        else:
            raise ValueError(f"unknown normalization {normalization!r}")
    return out


def _check_size(n_polys, backend):
    if n_polys < 1:
        raise ValueError("need at least one polynomial")
    if backend == FLOAT and n_polys > FLOAT_SIZE_LIMIT:
        raise ConditioningError(
            f"float Hankel pipeline refused beyond size {FLOAT_SIZE_LIMIT}",
            stage=FIRST_STAGE,
        )


def _hankel(measure, n_polys, backend):
    _check_size(n_polys, backend)
    seq = moments(measure, 2 * n_polys - 2, backend=backend)
    if backend == EXACT and not seq.exact:
        raise NotRepresentable("exact backend requires rational moments")
    return seq, hankel_matrix(seq, n_polys)


def _assemble(measure, seq, result, normalization, backend, leading=None, rec=None):
    """The basis from a monic orthogonalization (of the Hankel matrix, or
    of the monic recurrence ``rec``, which then gives the basis' recurrence
    directly instead of through its coefficients)."""
    if leading is None:
        ks = normalization_factors(normalization, result.gram_dets, backend)
    else:
        ks = list(leading)
    n = result.size
    q_in_x = tuple(
        tuple(result.coeffs[m][d] * ks[d] for d in range(n)) for m in range(n)
    )
    basis = StandardBasis(
        measure=measure,
        moment_seq=seq,
        polys=tuple(
            Polynomial(tuple(q_in_x[m][d] for m in range(d + 1))) for d in range(n)
        ),
        leading=tuple(ks),
        norms=tuple(ks[d] ** 2 * result.norms[d] for d in range(n)),
        q_in_x=q_in_x,
        x_in_q=tuple(
            tuple(result.inverse_coeffs[m][d] / ks[m] for d in range(n))
            for m in range(n)
        ),
        gram_dets=result.gram_dets,
        recurrence=(),
        normalization=normalization if leading is None else "custom",
        backend=backend,
    )
    if rec is None:
        return replace(basis, recurrence=_recurrence_from(basis))
    # Q_m = k_m q_m: A_m = k_{m+1}/k_m, B_m = -A_m b_m, C_m = k_{m+1} c_m / k_{m-1}
    scaled = []
    for m, (b_m, c_m) in enumerate(rec[: n - 1]):
        a_m = ks[m + 1] / ks[m]
        scaled.append((a_m, -a_m * float(b_m), ks[m + 1] * float(c_m) / ks[m - 1] if m else 0.0))
    return replace(basis, recurrence=tuple(scaled))


def build_standard(
    measure: Measure,
    n_polys: int,
    normalization: str = MONIC,
    backend: str = EXACT,
    leading=None,
    check: bool = True,
) -> StandardBasis:
    """Construct Q_0..Q_{N-1}, cross-checked unless ``check=False``.

    Float builds of the gaussian and gamma families run the closed-form
    recurrence; every other build orthogonalizes the Hankel matrix and checks
    the result against the bordered determinants.
    """
    if backend == FLOAT and has_closed_recurrence(measure):
        _check_size(n_polys, backend)
        seq = moments(measure, 2 * n_polys - 1, backend=FLOAT)
        rec = monic_recurrence(measure, n_polys)
        if check:
            with stage(FIRST_STAGE):
                _check_rule_moments(rec, seq)
        result = _recurrence_result(rec)
        return _assemble(measure, seq, result, normalization, backend, leading, rec)
    seq, gram = _hankel(measure, n_polys, backend)
    with stage(FIRST_STAGE):
        result = gso.gram_schmidt(gram, [one(backend)] * n_polys)
        if check:
            gso.check_against_oracle(
                gram,
                result,
                linalg.identity(n_polys, backend),
                "inductive and determinant routes disagree",
            )
    return _assemble(measure, seq, result, normalization, backend, leading)


def has_closed_recurrence(measure: Measure) -> bool:
    """Whether :func:`monic_recurrence` has closed forms for the measure."""
    return isinstance(measure.weight, (GaussianWeight, GammaFamilyWeight))


def monic_recurrence(measure: Measure, count: int):
    """(b_n, c_n), n = 0..count-1, with q_{n+1} = (x - b_n) q_n - c_n q_{n-1}.

    The one source of recurrence coefficients (c_0 = 0).  The gaussian
    family has b_n = 0, c_n = n / (2 alpha) and the gamma family
    b_n = (2n + z) / alpha, c_n = n (n + z - 1) / alpha^2, as Fractions.
    Any other measure takes the recurrence of its unchecked Hankel build,
    exact when its moments are rational and float otherwise.
    """
    w = measure.weight
    if isinstance(w, GaussianWeight):
        return tuple((Fraction(0), n / (2 * w.alpha)) for n in range(count))
    if isinstance(w, GammaFamilyWeight):
        return tuple(
            ((2 * n + w.z) / w.alpha, n * (n + w.z - 1) / w.alpha**2) for n in range(count)
        )
    backend = EXACT if moments(measure, 0).exact else FLOAT
    basis = build_standard(measure, count + 1, MONIC, backend=backend, check=False)
    return tuple((-b_n, c_n) for _, b_n, c_n in basis.recurrence)


def _recurrence_result(rec):
    """Monic orthogonalization data of q_0..q_{N-1} from N recurrence terms.

    The coefficient matrix runs the recurrence column by column, its inverse
    the dual recurrence x q_m = q_{m+1} + b_m q_m + c_m q_{m-1}; the norms
    h_n = c_1 ... c_n (in units of mu_0) and the Hankel determinants are
    prefix products.
    """
    n = len(rec)
    b = np.array([float(b_n) for b_n, _ in rec])
    c = np.array([float(c_n) for _, c_n in rec])
    q = np.zeros((n, n))
    x_in_q = np.zeros((n, n))
    q[0, 0] = x_in_q[0, 0] = 1.0
    for k in range(n - 1):
        q[1:, k + 1] = q[:-1, k]
        q[:, k + 1] -= b[k] * q[:, k]
        x_in_q[1:, k + 1] = x_in_q[:-1, k]
        x_in_q[:, k + 1] += b * x_in_q[:, k]
        x_in_q[:-1, k + 1] += c[1:] * x_in_q[1:, k]
        if k:
            q[:, k + 1] -= c[k] * q[:, k - 1]
    norms = [1.0]
    for c_n in c[1:].tolist():
        norms.append(norms[-1] * c_n)
    dets = [1.0]
    for h in norms:
        dets.append(dets[-1] * h)
    return OrthogonalizationResult(
        tuple(map(tuple, q.tolist())),
        tuple(map(tuple, x_in_q.tolist())),
        tuple(norms),
        (1.0,) * n,
        tuple(dets),
    )


def _check_rule_moments(rec, seq):
    """The Gauss rule of ``rec`` must reproduce mu_0..mu_{2N-1} of ``seq``.

    The N-node rule integrates x^k to e_0^T J^k e_0, J the N x N Jacobi
    matrix of the recurrence (Golub-Welsch), and is exact to degree 2N - 1,
    so a moment it misses by more than ORACLE_RTOL times e_0^T |J|^k e_0
    convicts the recurrence; the closed-form moments never pass through it.
    J is taken in its monic form (ones below the diagonal, b_n on it, c_n
    above), so the powers stay rational, and for nonnegative b_n every term
    is nonnegative.
    """
    b = np.array([float(b_n) for b_n, _ in rec])
    c = np.array([float(c_n) for _, c_n in rec])
    v = np.zeros(len(rec))
    v[0] = 1.0
    size = np.abs(v)
    for k, mu_k in enumerate(seq.mu[: 2 * len(rec)]):
        if not abs(v[0] - mu_k) <= ORACLE_RTOL * size[0]:
            degree = (k + 1) // 2
            raise OracleMismatch(
                f"recurrence and closed-form moments disagree at degree {degree}",
                degree=degree,
            )
        v, size = _jacobi_times(b, c, v), _jacobi_times(np.abs(b), c, size)


def _jacobi_times(b, c, v):
    """J^T v for the monic Jacobi matrix J of the recurrence (b, c)."""
    out = b * v
    out[1:] += c[1:] * v[:-1]
    out[:-1] += v[1:]
    return out


def _recurrence_from(basis: StandardBasis):
    """Coefficients (A_n, B_n, C_n) with Q_{n+1} = (A_n x + B_n) Q_n - C_n Q_{n-1}.

    C_0 multiplies the zero polynomial Q_{-1}; it is reported as 0 by
    convention.
    """
    coeffs = []
    for n in range(basis.size - 1):
        a_n = basis.leading[n + 1] / basis.leading[n]
        b_n = a_n * (basis.subleading(n + 1) - basis.subleading(n))
        if n == 0:
            c_n = zero(basis.backend)
        else:
            a_prev = basis.leading[n] / basis.leading[n - 1]
            c_n = (a_n / a_prev) * (basis.norms[n] / basis.norms[n - 1])
        coeffs.append((a_n, b_n, c_n))
    return tuple(coeffs)


def recurrence_coeffs(basis: StandardBasis):
    """Three-term recurrence coefficients of a built basis."""
    return basis.recurrence


def build_by_recurrence(measure: Measure, n_polys: int, backend: str = EXACT):
    """Monic polynomials replayed from the three-term recurrence.

    The coefficients come from the Hankel construction; replaying them is an
    independent arithmetic path that must land on identical polynomials.
    """
    base = build_standard(measure, n_polys, MONIC, backend=backend)
    polys = [Polynomial((one(backend),))]
    if n_polys == 1:
        return polys
    x = monomial(1, one(backend))
    for n in range(n_polys - 1):
        a_n, b_n, c_n = base.recurrence[n]
        term = (a_n * x + Polynomial((b_n,))) * polys[n]
        if n >= 1:
            term = term - c_n * polys[n - 1]
        polys.append(term)
    return polys


def parity_split_build(
    measure: Measure,
    n_polys: int,
    normalization: str = MONIC,
    backend: str = EXACT,
) -> StandardBasis:
    """Build a symmetric measure's polynomials from the split parity systems.

    Even and odd degrees decouple: the even polynomials come from the Gram
    matrix of even monomials, the odd ones from the odd block.  The output is
    identical to :func:`build_standard`, including the full Hankel
    determinants, which factor into the parity blocks.
    """
    if not measure.symmetric:
        raise NotSymmetric("parity split requires a symmetric measure")
    seq, gram = _hankel(measure, n_polys, backend)
    result = gso.parity_gram_schmidt(gram, [one(backend)] * n_polys)
    return _assemble(measure, seq, result, normalization, backend)


def classical_leading_factors(family: str, n_polys: int):
    """Textbook leading coefficients for the classical families.

    ``hermite``: k_n = 2^n.  ``laguerre``: k_n = (-1)^n / n!.  These are
    conversion helpers only; they feed the ``leading`` argument of
    :func:`build_standard`.
    """
    if family == "hermite":
        return [Fraction(2) ** n for n in range(n_polys)]
    if family == "laguerre":
        return [Fraction((-1) ** n, math.factorial(n)) for n in range(n_polys)]
    raise ValueError(f"unknown classical family {family!r}")
