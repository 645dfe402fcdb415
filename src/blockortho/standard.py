"""Standard orthogonal polynomials of a single measure.

The construction is Gram-Schmidt on the monomial Hankel matrix; every build
is cross-checked against the closed bordered-determinant formulas for the
coefficients and norms, so a silent disagreement between the inductive and
the determinant route cannot survive construction.

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

from . import gso, linalg
from .errors import ConditioningError, NotRepresentable, NotSymmetric
from .measures import Measure, MomentSequence, hankel_matrix, moments
from .polynomials import Polynomial, monomial
from .scalars import EXACT, FLOAT, one, sqrt_exact, zero

MONIC = "monic"
ORTHONORMAL = "orthonormal"
DET_NORMALIZED = "det"

FLOAT_SIZE_LIMIT = 20


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


def _hankel(measure, n_polys, backend):
    if n_polys < 1:
        raise ValueError("need at least one polynomial")
    if backend == FLOAT and n_polys > FLOAT_SIZE_LIMIT:
        raise ConditioningError(
            f"float Hankel pipeline refused beyond size {FLOAT_SIZE_LIMIT}"
        )
    seq = moments(measure, 2 * n_polys - 2, backend=backend)
    if backend == EXACT and not seq.exact:
        raise NotRepresentable("exact backend requires rational moments")
    return seq, hankel_matrix(seq, n_polys)


def _assemble(measure, seq, result, normalization, backend, leading=None):
    """The basis from a monic orthogonalization of the Hankel matrix."""
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
    return replace(basis, recurrence=_recurrence_from(basis))


def build_standard(
    measure: Measure,
    n_polys: int,
    normalization: str = MONIC,
    backend: str = EXACT,
    leading=None,
    check: bool = True,
) -> StandardBasis:
    """Construct Q_0..Q_{N-1} with cross-checked determinant formulas."""
    seq, gram = _hankel(measure, n_polys, backend)
    result = gso.gram_schmidt(gram, [one(backend)] * n_polys)
    if check:
        gso.check_against_oracle(
            gram,
            result,
            linalg.identity(n_polys, backend),
            "inductive and determinant routes disagree",
        )
    return _assemble(measure, seq, result, normalization, backend, leading)


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
