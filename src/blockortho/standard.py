"""Standard orthogonal polynomials of a single measure.

Every measure runs one route in both backends: its monic three-term
recurrence (:func:`monic_recurrence`: closed forms for the gaussian and
gamma families, the Chebyshev algorithm in exact rationals for a moment
table, discretized Stieltjes on the declared rule for a numeric weight),
from which one routine over the scalar kind gives the coefficients, the
norms and the Hankel determinants.  The build is checked against the
measure's moments, which never pass through the recurrence: its N-node
Gauss rule must reproduce mu_0..mu_{2N-1} (through 2N - 2 for a table that
stops there), exactly or within ORACLE_RTOL in float, and every exact
coefficient column must meet three moment identities of its degree.
Gram-Schmidt on the monomial Hankel matrix with its LDL^T certificate
(:func:`hankel_build`) is the independent first stage of the
``oracle_equivalence`` verify suite; the parity first stage
(:func:`parity_split_build`) runs the Hankel matrix split by parity.  Both
run exactly in both backends: float moments are read as the dyadic
rationals they hold, and a float basis is rounded once, when assembled.

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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import chain
from math import lcm
from operator import add, mul

from . import gso, linalg
from ._numpy import np
from .errors import (
    ConditioningError,
    InsufficientNodes,
    NotPositiveDefinite,
    NotRepresentable,
    NotSymmetric,
    OracleMismatch,
    stage,
)
from .gso import ORACLE_RTOL, OrthogonalizationResult
from .measures import (
    GammaFamilyWeight,
    GaussianWeight,
    Measure,
    MomentSequence,
    NumericWeight,
    chebyshev_recurrence,
    hankel_matrix,
    moments,
    numeric_rule,
    rule_moments,
)
from .polynomials import Polynomial, from_columns, from_lifted, monomial
from .scalars import EXACT, FLOAT, as_kind, one, rounded, sqrt_exact, zero

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
    An exact build keeps ``q_in_x`` (and so ``polys``) as lifted columns and
    ``recurrence`` as its monic terms and the k_n
    (:class:`linalg.LiftedField`): their Fractions are formed when read.
    """

    measure: Measure
    moment_seq: MomentSequence
    polys: tuple = linalg.LiftedField(from_lifted)
    leading: tuple
    norms: tuple
    q_in_x: tuple = linalg.LiftedField(linalg.LiftedColumns.rows)
    gram_dets: tuple
    recurrence: tuple = linalg.LiftedField(lambda data: _scaled_recurrence(*data, EXACT))
    normalization: str
    backend: str
    # the monic terms (b_n, c_n) :func:`build_standard` ran, or those a Hankel
    # build read off its coefficients
    monic_terms: tuple = field(default=None, repr=False, compare=False)
    # a float build's monic terms as floats, converted once (:func:`_float_terms`)
    float_terms: tuple = field(default=None, repr=False, compare=False)

    @property
    def size(self):
        return len(self.leading)

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
            f"float build refused beyond size {FLOAT_SIZE_LIMIT}",
            stage=FIRST_STAGE,
        )


def _hankel(measure, n_polys, backend):
    _check_size(n_polys, backend)
    seq = moments(measure, 2 * n_polys - 2, backend=backend)
    if backend == EXACT and not seq.exact:
        raise NotRepresentable("exact backend requires rational moments")
    return seq, hankel_matrix(seq, n_polys)


def _float_terms(rec):
    """The monic terms ``rec`` as floats: a float build converts them once."""
    return tuple((float(b_n), float(c_n)) for b_n, c_n in rec)


def _assemble(measure, seq, result, normalization, backend, leading=None, rec=None, terms=None):
    """The basis from the monic recurrence ``rec``, run as ``terms`` in the
    scalars of ``backend`` (:func:`_recurrence_result`, scaled coefficients
    and the k_n as ``result.factors``) or, without it, from the Hankel
    matrix: monic coefficients, scaled here by the k_n, with
    b_n = s_n - s_{n+1} for the subleading s_n, and c_n = h_n / h_{n-1}.
    The exact Hankel ``result`` of a float basis is rounded first, each
    entry once (:func:`scalars.rounded`)."""
    n = result.size
    if rec is None:
        if backend == FLOAT:
            coeffs = tuple(tuple(map(rounded, row)) for row in result.coeffs)
            rest = (result.norms, result.factors, result.gram_dets)
            result = OrthogonalizationResult(coeffs, *(tuple(map(rounded, v)) for v in rest))
        ks = normalization_factors(normalization, result.gram_dets, backend)
        # only the upper triangles carry entries, and a unit k leaves them as they are
        nil = zero(backend)
        q_in_x = tuple(
            tuple(nil if m > d else x if ks[d] == 1 else x * ks[d] for d, x in enumerate(row))
            for m, row in enumerate(result.coeffs)
        )
        # b_m negated twice, so B_m = -A_m b_m is A_m (s_{m+1} - s_m), zeros alike
        s, h = [nil] + [result.coeffs[d - 1][d] for d in range(1, n)], result.norms
        terms = [(-(s[m + 1] - s[m]), h[m] / h[m - 1] if m else nil) for m in range(n - 1)]
    else:
        ks, data = result.factors, linalg.lifted(result, "coeffs")
        q_in_x = result.coeffs if data is None else linalg.Lifted(data)
    scaled = (terms[: n - 1], ks)  # an exact basis forms its recurrence when read
    return StandardBasis(
        measure=measure,
        moment_seq=seq,
        polys=q_in_x if type(q_in_x) is linalg.Lifted else from_columns(q_in_x),
        leading=tuple(ks),
        norms=tuple(h if k == 1 else k**2 * h for k, h in zip(ks, result.norms)),
        q_in_x=q_in_x,
        gram_dets=result.gram_dets,
        recurrence=linalg.Lifted(scaled) if backend == EXACT else _scaled_recurrence(*scaled, FLOAT),
        normalization=normalization if leading is None else "custom",
        backend=backend,
        monic_terms=terms if rec is None else rec,
        float_terms=terms if rec is not None and backend == FLOAT else None,
    )


def _scaled_recurrence(rec, ks, backend):
    """(A_m, B_m, C_m) of Q_m = k_m q_m from the monic terms ``rec``, in the
    scalars of ``backend``: A_m = k_{m+1} / k_m, B_m = -A_m b_m and
    C_m = k_{m+1} c_m / k_{m-1} (C_0 = 0).  Exact terms are each one
    Fraction of integers; float ones are taken in that order of operations."""
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
        c_m = ks[m + 1] * c_m / ks[m - 1] if m else nil
        scaled.append((a_m, -a_m * b_m, c_m))
    return tuple(scaled)


def build_standard(
    measure: Measure,
    n_polys: int,
    normalization: str = MONIC,
    backend: str = EXACT,
    leading=None,
    check: bool = True,
) -> StandardBasis:
    """Q_0..Q_{N-1} from :func:`monic_recurrence`, checked against the
    moments (:func:`_check_rule_moments`, and :func:`_check_coefficients`
    when exact) unless ``check=False``."""
    _check_size(n_polys, backend)
    seq = rule_moments(measure, n_polys, backend=backend)
    if backend == EXACT and not seq.exact:
        raise NotRepresentable("exact backend requires rational moments")
    with stage(FIRST_STAGE):
        rec = monic_recurrence(measure, n_polys)
        terms = rec if backend == EXACT else _float_terms(rec)
        if check:
            _check_rule_moments(terms, seq)
        result = _recurrence_result(terms, backend, normalization, leading)
        if check and backend == EXACT:
            _check_coefficients(result, seq)
    return _assemble(measure, seq, result, normalization, backend, leading, rec, terms)


def hankel_build(
    measure: Measure,
    n_polys: int,
    normalization: str = MONIC,
    backend: str = EXACT,
    check: bool = True,
) -> StandardBasis:
    """Q_0..Q_{N-1} by Gram-Schmidt on the monomial Hankel matrix, checked
    by its LDL^T certificate unless ``check=False``: the independent
    first-stage oracle of ``verify``'s ``oracle_equivalence``.  The kernel
    and the check run exactly in both backends, on float moments as the
    dyadic rationals they hold; a float basis is rounded once.
    """
    seq, gram = _hankel(measure, n_polys, backend)
    with stage(FIRST_STAGE):
        result = gso.gram_schmidt(gram, [one(EXACT)] * n_polys)
        if check:
            gso.check_against_oracle(
                gram,
                result,
                linalg.identity(n_polys),
                "inductive and determinant routes disagree",
            )
    return _assemble(measure, seq, result, normalization, backend)


def monic_recurrence(measure: Measure, count: int):
    """(b_n, c_n), n = 0..count-1, with q_{n+1} = (x - b_n) q_n - c_n q_{n-1}.

    The one source of recurrence coefficients (c_0 = 0).  With
    alpha = ap / aq and z = zp / zq, the gaussian family has b_n = 0 and
    c_n = n aq / (2 ap), and the gamma family b_n = (2n zq + zp) aq / (zq ap)
    and c_n = n (n zq + zp - zq) aq^2 / (zq ap^2), each one Fraction of
    integers.  A table slices the recurrence :func:`measures.Measure.from_moments`
    ran on the whole table (the Chebyshev algorithm on a prefix of the table
    gives a prefix of it), or runs :func:`measures.chebyshev_recurrence` on
    the moments of :func:`measures.rule_moments` when it holds too few terms
    (InsufficientMoments where the table is too short); a numeric weight
    runs :func:`_stieltjes`.
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
    if isinstance(w, NumericWeight):
        return _stieltjes(measure, count)
    if len(w.recurrence) >= count:
        return w.recurrence[:count]
    return chebyshev_recurrence(rule_moments(measure, count).mu, count)


def recurrence_rule(rec):
    """Nodes, ascending, and unit-mass weights, as arrays, of the Gauss rule
    of the monic recurrence ``rec``: the eigenvalues and squared first
    eigenvector components of its Jacobi matrix, b_m as floats on the
    diagonal (a zero as -0.0) and sqrt(c_m), m >= 1, beside it."""
    jacobi = np.diag([float(b_m) or -0.0 for b_m, _ in rec])
    if len(rec) > 1:
        off = [math.sqrt(float(c_m)) for _, c_m in rec[1:]]
        jacobi += np.diag(off, 1) + np.diag(off, -1)
    nodes, vectors = np.linalg.eigh(jacobi)  # eigenvalues in ascending order
    weights = vectors[0, :] ** 2
    total = weights.sum()
    if abs(total - 1.0) > 1e-8:
        raise InsufficientNodes("quadrature weights failed normalization")
    return nodes, weights / total


def _stieltjes(measure, count):
    """A numeric weight's monic recurrence by discretized Stieltjes (Gautschi
    2004, section 2.2.3) in floats on the K-point measure of its rule:
    b_k = (x q_k, q_k) / (q_k, q_k), 0 when symmetric, and
    c_k = (q_k, q_k) / (q_{k-1}, q_{k-1}); count > K is NotPositiveDefinite
    at degree K."""
    nodes = measure.weight.nodes
    if count > nodes:
        raise NotPositiveDefinite(f"a {nodes}-node rule has no degree-{nodes} norm", degree=nodes)
    x, w = numeric_rule(measure.weight)
    w = w / w.sum()
    q_prev, q = np.zeros_like(x), np.ones_like(x)
    rec, h_prev = [], 1.0
    for k in range(count):
        wq = w * q
        h_k = float(wq @ q)
        if not h_k > 0:
            raise NotPositiveDefinite(f"float norm h_{k} = {h_k} is not positive", degree=k)
        b_k = 0.0 if measure.symmetric else float(wq @ (x * q)) / h_k
        c_k = h_k / h_prev if k else 0.0
        rec.append((b_k, c_k))
        q_prev, q, h_prev = q, (x - b_k) * q - c_k * q_prev, h_k
    return tuple(rec)


def _recurrence_columns(rec, target):
    """Monic q_0..q_K on the monic basis R of ``target``, run in integers.

    q_0 = 1 and q_{k+1} = (x - b_k) q_k - c_k q_{k-1} for ``rec[k]`` =
    (b_k, c_k), k = 0..K-1, with c_0 unused; R runs
    x R_m = R_{m+1} + b_m R_m + c_m R_{m-1} for ``target[m]`` = (b_m, c_m),
    m = 0..K-1 at least, and an empty target means R_m = x^m.  Every term
    is rational (int or Fraction).  Column k comes back as ``(ints, den)``,
    q_k = sum_m ints[m] / den R_m over m = 0..k, exactly as
    :func:`linalg.lift` gives that column; :func:`_folded` scales the
    columns to Q_k = k_k q_k.

    The target is lifted once by a common L, so x q_k over the scale d_k of
    its column is the integer vector L u_{m-1} + b_m u_m + c_{m+1} u_{m+1}
    over L d_k.  Column k + 1 is formed over lcm(L d_k, bq d_k, cq d_{k-1}),
    bq and cq the denominators of b_k and c_k (a zero term is left out), and
    divided by the gcd of its integers and that scale.  No Fraction
    arithmetic is done.
    """
    if target:
        lifted, big_l = linalg.lift([x for term in target for x in term])
        b, c_next = lifted[0::2], lifted[3::2]
    else:
        big_l = 1
    cols = [([1], 1)]
    for k, (b_k, c_k) in enumerate(rec):
        u, d = cols[k]
        x_u = [0, *u] if big_l == 1 else [0, *(big_l * y for y in u)]
        if target:
            x_u = list(map(add, x_u, chain(map(mul, b, u), (0,))))
            x_u = list(map(add, x_u, chain(map(mul, c_next, u[1:]), (0, 0))))
        b_scale = b_k.denominator * d if b_k else 1
        c_scale = c_k.denominator * cols[k - 1][1] if c_k and k else 1
        scale = lcm(big_l * d, b_scale, c_scale)
        a_f = scale // (big_l * d)
        col = x_u if a_f == 1 else [a_f * y for y in x_u]
        if b_k:
            b_f = b_k.numerator * (scale // b_scale)
            col[: k + 1] = [y - b_f * z for y, z in zip(col, u)]
        if c_k and k:
            c_f = c_k.numerator * (scale // c_scale)
            col[:k] = [y - c_f * z for y, z in zip(col, cols[k - 1][0])]
        cols.append(linalg.reduced(col, scale))
    return cols


def _folded(cols, ks):
    """The lifted columns ``cols`` of monic q_n as those of Q_n = k_n q_n."""
    out = []
    for (ints, den), k in zip(cols, ks):
        kp, kq = k.as_integer_ratio()
        out.append((ints, den) if kp == kq else linalg.reduced([x * kp for x in ints], den * kq))
    return out


def _recurrence_result(rec, backend, normalization=MONIC, leading=None):
    """Orthogonalization data of Q_0..Q_{N-1} from N monic recurrence terms,
    in the scalars of ``backend``, with Q_n = k_n q_n and the k_n given by
    ``leading`` or else by ``normalization`` (all one by default).

    ``coeffs`` holds the coefficients of the Q_n and ``factors`` the k_n.
    ``norms`` and ``gram_dets`` are those of the monic q_n: the norms
    h_n = c_1 ... c_n (in units of mu_0) and their prefix products, the
    Hankel determinants.  Column k + 1 of the monic coefficients is
    x q_k - b_k q_k - c_k q_{k-1}.  The inverse connection is not formed
    unless it is read.  Exact columns run in integers
    (:func:`_recurrence_columns` over the monomials) and stay lifted, k_n
    folded into each (:class:`linalg.LiftedColumns`, formed as Fractions
    when read).  Float columns touch only the triangular support and skip
    zero terms, so a float entry equals the full sum in the same order bit
    for bit, and are then multiplied by k_n where it is not one.
    """
    n = len(rec)
    c = [as_kind(c_n, backend) for _, c_n in rec]
    norms = [one(backend)]
    for c_n in c[1:]:
        norms.append(norms[-1] * c_n)
    dets = [one(backend)]
    for h in norms:
        dets.append(dets[-1] * h)
    ks = normalization_factors(normalization, dets, backend) if leading is None else list(leading)
    nil = zero(backend)
    if backend == EXACT:
        cols = _folded(_recurrence_columns(rec[: n - 1], ()), ks)
        q = linalg.Lifted(linalg.LiftedColumns(cols, n))
        return OrthogonalizationResult(q, tuple(norms), tuple(ks), tuple(dets))
    q = [[nil] * n for _ in range(n)]
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
    return OrthogonalizationResult(tuple(map(tuple, q)), tuple(norms), tuple(ks), tuple(dets))


def _check_rule_moments(rec, seq):
    """The Gauss rule of ``rec`` must reproduce the moments of ``seq``,
    mu_0..mu_{2N-1} or as far as they go.

    The N-node rule integrates x^k to e_0^T J^k e_0, J the N x N Jacobi
    matrix of the recurrence (Golub-Welsch), and is exact to degree 2N - 1,
    so a moment it misses convicts the recurrence; the measure's moments
    never pass through it.  J is taken in its monic form (ones below the
    diagonal, b_n on it, c_n above), so the powers stay rational, and for
    nonnegative b_n every term is nonnegative.  Exact moments must be met
    exactly, by the integer powers of D J with D the lcm of the
    recurrence's denominators.  Float ones must be met within ORACLE_RTOL
    times s_k = e_0^T |J|^k e_0, or, at odd k, times sqrt(s_{k-1} s_{k+1}):
    an odd moment whose terms cancel has a rounding error of the order of
    sum w |x|^k, which that bound exceeds by Cauchy-Schwarz, while s_k
    itself reads only about |b|.  The roots are taken before the product,
    which would overflow where the moments pass about 1e154.
    """
    count = 2 * len(rec)
    if seq.exact:
        lifted, scale = linalg.lift([x for term in rec for x in term])
        powers = _jacobi_powers(lifted[0::2], lifted[1::2], scale, count, 0)
        power = 1
        for k, (v_k, mu_k) in enumerate(zip(powers, seq.mu[:count])):
            if v_k * mu_k.denominator != mu_k.numerator * power:
                _rule_mismatch(k)
            power *= scale
        return
    b, c = [float(b_n) for b_n, _ in rec], [float(c_n) for _, c_n in rec]
    powers = _float_jacobi_powers(b, c, count + 1)
    # with no b_n negative the powers of |J| are those of J, not run twice
    sizes = powers
    if any(b_m < 0 for b_m in b):
        sizes = _float_jacobi_powers([abs(b_m) for b_m in b], c, count + 1)
    for k, mu_k in enumerate(seq.mu[:count]):
        size = sizes[k]
        if k % 2:
            size = max(size, math.sqrt(sizes[k - 1]) * math.sqrt(sizes[k + 1]))
        if not abs(powers[k] - mu_k) <= ORACLE_RTOL * size:
            _rule_mismatch(k)


def _rule_mismatch(k):
    degree = (k + 1) // 2
    raise OracleMismatch(
        f"recurrence and the measure's moments disagree at degree {degree}", degree=degree
    )


def _jacobi_powers(b, c, scale, count, nil):
    """e_0^T (scale J)^k e_0, k = 0..count-1, for the monic Jacobi matrix J
    of the recurrence (b, c) / scale.  The vector (scale J)^k e_0 is kept
    only on its support 0..k and on the entries that still reach e_0 by
    step count - 1."""
    v, out = [nil + 1], []  # e_0 in the scalar kind of ``nil``
    for k in range(count):
        out.append(v[0])
        top = min(k + 2, len(b), count - 1 - k)
        v = _jacobi_times(b, c, scale, v, top, nil)
    return out


def _float_jacobi_powers(b, c, count):
    """``_jacobi_powers(b, c, 1, count, 0.0)`` up to the order of the sums,
    by one product (e_0^T J^k) J per power with the dense monic Jacobi matrix
    J, or by that loop where a power is not finite, as the product reads
    0 * inf as NaN where the loop skips the zero term."""
    jacobi = np.diag(b) + np.diag(np.ones(len(b) - 1), -1) + np.diag(c[1:], 1)
    row, out = np.eye(1, len(b))[0], np.empty(count)
    with np.errstate(all="ignore"):  # overflow gives inf, as in Python floats
        for k in range(count):
            out[k] = row[0]
            row = row @ jacobi
    return out.tolist() if np.isfinite(out).all() else _jacobi_powers(b, c, 1, count, 0.0)


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
    """Exact coefficients against the measure's moments.

    Column n of the coefficients holds Q_n = k_n q_n (k_n in
    ``result.factors``, h_n the monic norm), so sum_m Q[m][n] mu_{m+j} is
    (Q_n, x^j): k_n h_n for j = n, and zero for j = 0 from n = 1 on and for
    j = 1 from n = 2 on.  A single wrong coefficient moves one of the three,
    also where the odd moments vanish.  The sums run over integers: the
    columns as the kernel keeps them lifted (or lifted here where the result
    holds Fractions), the moments lifted by the lcm of their denominators.
    """
    norms, ks = result.norms, result.factors
    mu, mu_scale = linalg.lift(seq.mu)
    for n, (ints, scale) in enumerate(linalg.columns(result, "coeffs").cols):
        col = [(m, x) for m, x in enumerate(ints[: n + 1]) if x]
        h_n, k_n = norms[n], ks[n]
        ok = (
            (n < 1 or sum(x * mu[m] for m, x in col) == 0)
            and (n < 2 or sum(x * mu[m + 1] for m, x in col) == 0)
            and sum(x * mu[m + n] for m, x in col) * h_n.denominator * k_n.denominator
            == h_n.numerator * k_n.numerator * scale * mu_scale
        )
        if not ok:
            raise OracleMismatch(
                f"recurrence coefficients miss the measure's moments at degree {n}",
                degree=n,
            )


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
    determinants, which factor into the parity blocks.  Float moments run
    the exact kernel, as in :func:`hankel_build`.
    """
    if not measure.symmetric:
        raise NotSymmetric("parity split requires a symmetric measure")
    seq, gram = _hankel(measure, n_polys, backend)
    result = gso.parity_gram_schmidt(gram, [one(EXACT)] * n_polys)
    return _assemble(measure, seq, result, normalization, backend)
