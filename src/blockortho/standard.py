"""Standard orthogonal polynomials of a single measure.

The gaussian and gamma families run the closed-form three-term recurrence
of :func:`monic_recurrence` in both backends and never form a Hankel
matrix: one routine over the scalar kind gives the coefficients, the norms
and the Hankel determinants.  The build is checked
against the closed-form moments, which never pass through the recurrence:
the N-node Gauss rule of the recurrence must reproduce mu_0..mu_{2N-1}
(exactly, or within ORACLE_RTOL in float), and every exact coefficient
column must meet three moment identities of its degree.  Tabulated and
numeric measures run Gram-Schmidt on the monomial Hankel matrix
(:func:`hankel_build`), cross-checked against the closed bordered-determinant
formulas for the coefficients and norms, so a silent disagreement between
the inductive and the determinant route cannot survive construction; the
``oracle_equivalence`` verify suite runs that route on the closed-form
families as well.

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
from functools import reduce
from itertools import chain
from math import gcd, lcm
from operator import add, mul

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
from .polynomials import Polynomial, from_columns, monomial
from .scalars import EXACT, FLOAT, as_kind, one, sqrt_exact, zero

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

    ``q_in_x[m][n]`` is the coefficient of x^m in Q_n.  ``gram_dets[k]`` is the k x k leading
    Hankel determinant.  Norms are in units of the measure's zeroth moment.
    """

    measure: Measure
    moment_seq: MomentSequence
    polys: tuple
    leading: tuple
    norms: tuple
    q_in_x: tuple
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


def _leading(normalization, dets, backend, leading):
    """The leading coefficients k_n: ``leading`` when given, else the
    factors of ``normalization`` over the monic Gram determinants ``dets``."""
    if leading is None:
        return normalization_factors(normalization, dets, backend)
    return list(leading)


def _assemble(measure, seq, result, normalization, backend, leading=None, rec=None):
    """The basis from an orthogonalization: of the Hankel matrix, whose monic
    coefficients are scaled here by the leading coefficients k_n, or of the
    monic recurrence ``rec`` (:func:`_recurrence_result`), whose
    coefficients come scaled, with the k_n as ``result.factors``, and which
    then gives the basis' recurrence directly instead of through its
    coefficients."""
    n = result.size
    if rec is None:
        ks = _leading(normalization, result.gram_dets, backend, leading)
        # only the upper triangles carry entries, and a unit k leaves them as they are
        nil = zero(backend)
        q_in_x = tuple(
            tuple(nil if m > d else x if ks[d] == 1 else x * ks[d] for d, x in enumerate(row))
            for m, row in enumerate(result.coeffs)
        )
    else:
        ks, q_in_x = result.factors, result.coeffs
    basis = StandardBasis(
        measure=measure,
        moment_seq=seq,
        polys=from_columns(q_in_x),
        leading=tuple(ks),
        norms=tuple(h if k == 1 else k**2 * h for k, h in zip(ks, result.norms)),
        q_in_x=q_in_x,
        gram_dets=result.gram_dets,
        recurrence=(),
        normalization=normalization if leading is None else "custom",
        backend=backend,
    )
    if rec is None:
        return replace(basis, recurrence=_recurrence_from(basis))
    return replace(basis, recurrence=_scaled_recurrence(rec[: n - 1], ks, backend))


def _scaled_recurrence(rec, ks, backend):
    """(A_m, B_m, C_m) of Q_m = k_m q_m from the monic terms ``rec``:
    A_m = k_{m+1} / k_m, B_m = -A_m b_m and C_m = k_{m+1} c_m / k_{m-1}
    (C_0 = 0).  Exact terms are each one Fraction of integers; float ones
    are taken in that order of operations."""
    nil = zero(backend)
    if backend == EXACT:
        num = [k.numerator for k in ks]
        den = [k.denominator for k in ks]
        scaled = []
        for m, (b_m, c_m) in enumerate(rec):
            a_num, a_den = num[m + 1] * den[m], den[m + 1] * num[m]
            c_m = nil if not m else Fraction(
                num[m + 1] * c_m.numerator * den[m - 1], den[m + 1] * c_m.denominator * num[m - 1]
            )
            b_m = Fraction(-a_num * b_m.numerator, a_den * b_m.denominator)
            scaled.append((Fraction(a_num, a_den), b_m, c_m))
        return tuple(scaled)
    scaled = []
    for m, (b_m, c_m) in enumerate(rec):
        a_m = ks[m + 1] / ks[m]
        c_m = ks[m + 1] * as_kind(c_m, backend) / ks[m - 1] if m else nil
        scaled.append((a_m, -a_m * as_kind(b_m, backend), c_m))
    return tuple(scaled)


def build_standard(
    measure: Measure,
    n_polys: int,
    normalization: str = MONIC,
    backend: str = EXACT,
    leading=None,
    check: bool = True,
) -> StandardBasis:
    """Construct Q_0..Q_{N-1}, cross-checked unless ``check=False``.

    The gaussian and gamma families run the closed-form recurrence, checked
    against the closed-form moments; every other measure takes
    :func:`hankel_build`.
    """
    if not has_closed_recurrence(measure):
        return hankel_build(measure, n_polys, normalization, backend, leading, check)
    _check_size(n_polys, backend)
    seq = moments(measure, 2 * n_polys - 1, backend=backend)
    rec = monic_recurrence(measure, n_polys)
    with stage(FIRST_STAGE):
        if check:
            _check_rule_moments(rec, seq)
        result = _recurrence_result(rec, backend, normalization, leading)
        if check and backend == EXACT:
            _check_coefficients(result, seq)
    return _assemble(measure, seq, result, normalization, backend, leading, rec)


def hankel_build(
    measure: Measure,
    n_polys: int,
    normalization: str = MONIC,
    backend: str = EXACT,
    leading=None,
    check: bool = True,
) -> StandardBasis:
    """Q_0..Q_{N-1} by Gram-Schmidt on the monomial Hankel matrix, checked
    against the bordered determinants unless ``check=False``.

    The route of measures without a closed-form recurrence, and the
    independent first-stage oracle for those with one.
    """
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

    The one source of recurrence coefficients (c_0 = 0).  With
    alpha = ap / aq and z = zp / zq, the gaussian family has b_n = 0 and
    c_n = n aq / (2 ap), and the gamma family
    b_n = (2n zq + zp) aq / (zq ap) and
    c_n = n (n zq + zp - zq) aq^2 / (zq ap^2), each one Fraction of
    integers.  Any other measure takes the recurrence of its unchecked
    Hankel build, exact when its moments are rational and float otherwise.
    """
    w = measure.weight
    if isinstance(w, GaussianWeight):
        ap, aq = w.alpha.numerator, w.alpha.denominator
        return tuple((zero(EXACT), Fraction(n * aq, 2 * ap)) for n in range(count))
    if isinstance(w, GammaFamilyWeight):
        ap, aq = w.alpha.numerator, w.alpha.denominator
        zp, zq = w.z.numerator, w.z.denominator
        return tuple(
            (
                Fraction((2 * n * zq + zp) * aq, zq * ap),
                Fraction(n * (n * zq + zp - zq) * aq * aq, zq * ap * ap),
            )
            for n in range(count)
        )
    backend = EXACT if moments(measure, 0).exact else FLOAT
    basis = build_standard(measure, count + 1, MONIC, backend=backend, check=False)
    return tuple((-b_n, c_n) for _, b_n, c_n in basis.recurrence)


def _recurrence_columns(steps, target, lead):
    """Q_0..Q_K on the monic basis R of ``target``, run in integers.

    Q_0 = ``lead`` and Q_{k+1} = (A_k x + B_k) Q_k - C_k Q_{k-1} for
    ``steps[k]`` = (A_k, B_k, C_k), k = 0..K-1, with C_0 unused; R runs
    x R_m = R_{m+1} + b_m R_m + c_m R_{m-1} for ``target[m]`` = (b_m, c_m),
    m = 0..K-1 at least, and an empty target means R_m = x^m.  Every input
    is rational (int or Fraction).  Column k comes back as
    ``(ints, den)``, Q_k = sum_m ints[m] / den R_m over m = 0..k, exactly as
    :func:`linalg.lift` gives that column.

    The target is lifted once by a common L, so x Q_k over the scale d_k of
    its column is the integer vector L u_{m-1} + b_m u_m + c_{m+1} u_{m+1}
    over L d_k.  Column k + 1 is formed over
    lcm(aq L d_k, bq d_k, cq d_{k-1}), aq, bq and cq the denominators of
    A_k, B_k and C_k (a zero coefficient leaves its term out), and divided
    by the gcd of its integers and that scale.  No Fraction arithmetic is
    done.
    """
    if target:
        lifted, big_l = linalg.lift([x for term in target for x in term])
        b, c_next = lifted[0::2], lifted[3::2]
    else:
        big_l = 1
    cols = [([lead.numerator], lead.denominator)]
    for k, (a_k, b_k, c_k) in enumerate(steps):
        u, d = cols[k]
        x_u = [0, *u] if big_l == 1 else [0, *(big_l * y for y in u)]
        if target:
            x_u = list(map(add, x_u, chain(map(mul, b, u), (0,))))
            x_u = list(map(add, x_u, chain(map(mul, c_next, u[1:]), (0, 0))))
        a_scale = a_k.denominator * big_l * d
        b_scale = b_k.denominator * d if b_k else 1
        c_scale = c_k.denominator * cols[k - 1][1] if c_k and k else 1
        scale = lcm(a_scale, b_scale, c_scale)
        a_f = a_k.numerator * (scale // a_scale)
        col = x_u if a_f == 1 else [a_f * y for y in x_u]
        if b_k:
            b_f = b_k.numerator * (scale // b_scale)
            col[: k + 1] = [y + b_f * z for y, z in zip(col, u)]
        if c_k and k:
            c_f = c_k.numerator * (scale // c_scale)
            col[:k] = [y - c_f * z for y, z in zip(col, cols[k - 1][0])]
        g = gcd(scale, *col)
        cols.append(([y // g for y in col], scale // g) if g > 1 else (col, scale))
    return cols


def _recurrence_result(rec, backend, normalization=MONIC, leading=None):
    """Orthogonalization data of Q_0..Q_{N-1} from N monic recurrence terms,
    in the scalars of ``backend``, with Q_n = k_n q_n and the k_n given by
    ``leading`` or else by ``normalization`` (all one by default).

    ``coeffs`` holds the coefficients of the Q_n and ``factors`` the k_n.
    ``norms`` and ``gram_dets`` are those of the monic q_n: the norms
    h_n = c_1 ... c_n (in units of mu_0) and their prefix products, the
    Hankel determinants.  Column k + 1 of the monic coefficients is
    x q_k - b_k q_k - c_k q_{k-1}.  The inverse connection is not formed, so
    ``inverse_coeffs`` is empty.  Exact columns run in integers
    (:func:`_recurrence_columns` with steps (1, -b_k, c_k) over the
    monomials), and each nonzero coefficient of Q_n is one Fraction, k_n
    folded into it.  Float columns touch only the triangular support and
    skip zero terms, so a float entry equals the full sum in the same order
    bit for bit, and are then multiplied by k_n where it is not one.
    """
    n = len(rec)
    c = [as_kind(c_n, backend) for _, c_n in rec]
    norms = [one(backend)]
    for c_n in c[1:]:
        norms.append(norms[-1] * c_n)
    dets = [one(backend)]
    for h in norms:
        dets.append(dets[-1] * h)
    ks = _leading(normalization, dets, backend, leading)
    nil = zero(backend)
    q = [[nil] * n for _ in range(n)]
    if backend == EXACT:
        steps = [(1, -as_kind(b_k, EXACT), c_k) for (b_k, _), c_k in zip(rec[: n - 1], c)]
        for k, (ints, den) in enumerate(_recurrence_columns(steps, (), one(EXACT))):
            k_num, k_den = ks[k].numerator, den * ks[k].denominator
            for m, x in enumerate(ints):
                if x:
                    q[m][k] = Fraction(x * k_num, k_den)
    else:
        b = [as_kind(b_n, backend) for b_n, _ in rec]
        q[0][0] = one(backend)
        for k in range(n - 1):
            b_k, c_k = b[k], c[k]
            for m in range(k + 2):
                v = q[m - 1][k] if m else nil
                if b_k and m <= k and q[m][k]:
                    v -= b_k * q[m][k]
                if k and m < k and q[m][k - 1]:
                    v -= c_k * q[m][k - 1]
                q[m][k + 1] = v
        for d, k_d in enumerate(ks):
            if k_d != 1:
                for m in range(d + 1):
                    q[m][d] = q[m][d] * k_d
    return OrthogonalizationResult(
        tuple(map(tuple, q)),
        (),
        tuple(norms),
        tuple(ks),
        tuple(dets),
    )


def _check_rule_moments(rec, seq):
    """The Gauss rule of ``rec`` must reproduce mu_0..mu_{2N-1} of ``seq``.

    The N-node rule integrates x^k to e_0^T J^k e_0, J the N x N Jacobi
    matrix of the recurrence (Golub-Welsch), and is exact to degree 2N - 1,
    so a moment it misses convicts the recurrence; the closed-form moments
    never pass through it.  J is taken in its monic form (ones below the
    diagonal, b_n on it, c_n above), so the powers stay rational, and for
    nonnegative b_n every term is nonnegative.  Exact moments must be met
    exactly, by the integer powers of D J with D the lcm of the
    recurrence's denominators; float ones within ORACLE_RTOL times
    e_0^T |J|^k e_0.  The vector J^k e_0 is kept only on its support 0..k
    and on the entries that still reach e_0 by step 2N - 1.
    """
    exact = seq.exact
    if exact:
        lifted, scale = linalg.lift([x for term in rec for x in term])
        b, c = lifted[0::2], lifted[1::2]
    else:
        b, c, scale = [float(b_n) for b_n, _ in rec], [float(c_n) for _, c_n in rec], 1
        b_abs = [abs(b_m) for b_m in b]
    nil = 0 if exact else 0.0
    count = 2 * len(rec)
    v, size, power = [1 if exact else 1.0], [1.0], 1
    for k, mu_k in enumerate(seq.mu[:count]):
        if exact:
            ok = v[0] * mu_k.denominator == mu_k.numerator * power
        else:
            ok = abs(v[0] - mu_k) <= ORACLE_RTOL * size[0]
        if not ok:
            degree = (k + 1) // 2
            raise OracleMismatch(
                f"recurrence and closed-form moments disagree at degree {degree}",
                degree=degree,
            )
        top = min(k + 2, len(rec), count - 1 - k)
        if not exact:
            size = _jacobi_times(b_abs, c, 1, size, top, nil)
        v = _jacobi_times(b, c, scale, v, top, nil)
        power *= scale


def _jacobi_times(b, c, scale, v, top, nil):
    """Entries 0..top-1 of (scale J)^T v for the monic Jacobi matrix J of
    the recurrence (b, c) / scale, with v given on its support: entry m
    sums b_m v_m, c_m v_{m-1} and scale v_{m+1} in that order, zero terms
    skipped (``nil`` when none is left)."""
    out = []
    for m in range(top):
        terms = []
        if m < len(v) and b[m] and v[m]:
            terms.append(b[m] * v[m])
        if 0 < m <= len(v) and v[m - 1]:
            terms.append(c[m] * v[m - 1])
        if m + 1 < len(v) and v[m + 1]:
            terms.append(v[m + 1] if scale == 1 else scale * v[m + 1])
        out.append(reduce(add, terms) if terms else nil)
    return out


def _check_coefficients(result, seq):
    """Exact coefficients against the closed-form moments.

    Column n of the coefficients holds Q_n = k_n q_n (k_n in
    ``result.factors``, h_n the monic norm), so sum_m Q[m][n] mu_{m+j} is
    (Q_n, x^j): k_n h_n for j = n, and zero for j = 0 from n = 1 on and for
    j = 1 from n = 2 on.  A single wrong coefficient moves one of the three,
    also where the odd moments vanish.  The sums run over integers, the
    column and the moments each lifted by the lcm of its denominators.
    """
    q, norms, ks = result.coeffs, result.norms, result.factors
    mu, mu_scale = linalg.lift(seq.mu)
    for n in range(result.size):
        ints, scale = linalg.lift([q[m][n] for m in range(n + 1)])
        col = [(m, x) for m, x in enumerate(ints) if x]
        h_n, k_n = norms[n], ks[n]
        ok = (
            (n < 1 or sum(x * mu[m] for m, x in col) == 0)
            and (n < 2 or sum(x * mu[m + 1] for m, x in col) == 0)
            and sum(x * mu[m + n] for m, x in col) * h_n.denominator * k_n.denominator
            == h_n.numerator * k_n.numerator * scale * mu_scale
        )
        if not ok:
            raise OracleMismatch(
                f"recurrence coefficients miss the closed-form moments at degree {n}",
                degree=n,
            )


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


def build_by_recurrence(measure: Measure, n_polys: int, backend: str = EXACT):
    """Monic polynomials replayed from the three-term recurrence.

    The coefficients are the built basis' own; replaying them by polynomial
    arithmetic is an independent path from the coefficient matrix the build
    assembles, and must land on identical polynomials.
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
