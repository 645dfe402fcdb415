"""Measures on the real line, their moments, and Gram/Hankel assembly.

A measure is a domain plus a weight:

* ``gaussian(alpha)``      w(x) = exp(-alpha x^2) on (-inf, inf)
* ``gamma_weight(alpha,z)``w(x) = exp(-alpha x) x^(z-1) on [0, inf)
* ``from_moments(...)``    an explicit table of normalized moments
* ``numeric(...)``         a caller-supplied weight integrated by a declared
                           Gauss-Legendre rule on a finite interval

Moments are stored normalized, mu_n = c_n / c_0, so that every monic
construction downstream is exact for the closed-form families; c_0 is carried
separately and only rescales reported norms.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Callable, Optional

from .errors import (
    InsufficientMoments,
    MomentError,
    NonPositiveParameter,
    NotPositiveDefinite,
    NotSymmetric,
    stage,
)
from . import linalg
from ._numpy import np
from .polynomials import Polynomial
from .scalars import (
    EXACT,
    FLOAT,
    kind_of,
    scalar_from_json,
    to_fraction,
    zero,
)

INF = math.inf


@dataclass(frozen=True)
class GaussianWeight:
    alpha: Fraction

    def __post_init__(self):
        if self.alpha <= 0:
            raise NonPositiveParameter("gaussian weight needs alpha > 0")

    def evaluate(self, x):
        return math.exp(-float(self.alpha) * x * x)


@dataclass(frozen=True)
class GammaFamilyWeight:
    alpha: Fraction
    z: Fraction

    def __post_init__(self):
        if self.alpha <= 0 or self.z <= 0:
            raise NonPositiveParameter("gamma weight needs alpha > 0 and z > 0")

    def evaluate(self, x):
        if x < 0:
            return 0.0
        if x == 0:
            return 1.0 if self.z == 1 else (INF if self.z < 1 else 0.0)
        return math.exp(-float(self.alpha) * x) * x ** (float(self.z) - 1.0)


@dataclass(frozen=True)
class TabulatedWeight:
    """A moment table; ``recurrence`` holds (b_k, c_k) of the whole table by
    :func:`chebyshev_recurrence`, run once when the measure is made."""

    mu: tuple
    c0: object
    recurrence: tuple = field(default=(), compare=False, repr=False)

    @property
    def exact(self):
        return all(kind_of(m) == EXACT for m in self.mu)


@dataclass(frozen=True)
class NumericWeight:
    evaluator: Callable[[float], float] = field(compare=False)
    interval: tuple = (0.0, 1.0)
    nodes: int = 64


@dataclass(frozen=True)
class Measure:
    weight: object
    domain: tuple
    symmetric: bool
    label: str = ""

    @classmethod
    def gaussian(cls, alpha):
        alpha = to_fraction(alpha)
        return cls(GaussianWeight(alpha), (-INF, INF), True, f"gaussian:{alpha}")

    @classmethod
    def gamma_weight(cls, alpha, z):
        alpha, z = to_fraction(alpha), to_fraction(z)
        return cls(GammaFamilyWeight(alpha, z), (0, INF), False, f"gamma:{alpha}:{z}")

    @classmethod
    def from_moments(cls, mu, c0=1, symmetric=None, domain=(-INF, INF), label="tabulated"):
        # plain ints are exact scalars; as Fractions they divide exactly
        mu = tuple(Fraction(m) if isinstance(m, int) and not isinstance(m, bool) else m
                   for m in mu)
        for n, m in enumerate(mu):
            if isinstance(m, float) and not math.isfinite(m):
                raise MomentError(f"moment of order {n} is {m}; moments must be finite")
        if not mu or mu[0] != 1:
            raise MomentError("a moment table must start with mu_0 = 1")
        if symmetric is None:
            symmetric = all(m == 0 for m in mu[1::2])
        elif symmetric and any(m != 0 for m in mu[1::2]):
            raise NotSymmetric("symmetric flag set but odd moments are nonzero")
        linalg.matrix_kind([mu])  # KindMismatch for a table that mixes ints and floats
        with stage("moments"):  # every leading Hankel minor must be positive
            rec = chebyshev_recurrence(mu, (len(mu) + 1) // 2)
        return cls(TabulatedWeight(mu, c0, rec), domain, symmetric, label)

    @classmethod
    def numeric(cls, evaluator, interval, nodes, symmetric=False, label="numeric"):
        """A weight integrated by its ``nodes``-point Gauss-Legendre rule, symmetric
        (odd moments and b_n exactly zero) whenever ``interval`` is symmetric about 0
        and the weight even at the rule's nodes; ``symmetric=True`` asserts that."""
        a, b = float(interval[0]), float(interval[1])
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise MomentError("numeric weights need a finite interval a < b")
        if nodes < 1:
            raise MomentError("numeric weights need at least one node")
        weight = NumericWeight(evaluator, (a, b), int(nodes))
        values = numeric_rule(weight)[1] if a == -b else None
        even = values is not None and all(values == values[::-1])
        if symmetric and not even:
            raise NotSymmetric("symmetric flag set but the weight is not even about 0")
        return cls(weight, (a, b), even, label)

    def moments(self, max_order, backend=EXACT):
        return moments(self, max_order, backend=backend)

    def weight_value(self, x):
        if isinstance(self.weight, (GaussianWeight, GammaFamilyWeight)):
            return self.weight.evaluate(x)
        if isinstance(self.weight, NumericWeight):
            return self.weight.evaluator(x)
        raise MomentError("tabulated measures have no pointwise weight")


@dataclass(frozen=True)
class MomentSequence:
    """Normalized moments mu_0..mu_max_order; ``measure`` is the measure they
    came from, whose recurrence a gamma matrix over them runs.  ``c0`` is
    the mass c_0, None when a closed form lies outside the float range."""

    mu: tuple
    max_order: int
    exact: bool
    c0: object = 1
    c0_symbol: Optional[str] = None
    measure: Optional["Measure"] = field(default=None, compare=False, repr=False)

    def __getitem__(self, n):
        if n > self.max_order:
            raise InsufficientMoments(
                f"moment of order {n} requested, table stops at {self.max_order}"
            )
        return self.mu[n]

    def to_float(self):
        return MomentSequence(
            tuple(float(m) for m in self.mu),
            self.max_order,
            False,
            None if self.c0 is None else float(self.c0),
            self.c0_symbol,
            self.measure,
        )


def chebyshev_recurrence(mu, count):
    """(b_k, c_k), k < count, of the moments mu_0..mu_M by the Chebyshev
    algorithm (Gautschi, *Orthogonal Polynomials*, OUP 2004, section 2.1.7)
    in exact rationals, a float moment taken as the dyadic rational it is:
    with s_k[l] = (q_k, x^l), s_0 = mu and r_k = s_k[k+1] / s_k[k],
    b_k = r_k - r_{k-1}, c_k = s_k[k] / s_{k-1}[k-1] and
    s_{k+1}[l] = s_k[l+1] - b_k s_k[l] - c_k s_{k-1}[l].  For M = 2 count - 2
    the last b, which no moment through order M reads, repeats the one
    before (0 alone).  A norm s_k[k] <= 0 is NotPositiveDefinite at degree k.
    """
    top = len(mu) - 1
    prev, cur = [Fraction(0)] * len(mu), [Fraction(m) for m in mu]
    rec, ratio = [], Fraction(0)
    for k in range(count):
        h_k = cur[k]
        if h_k <= 0:
            raise NotPositiveDefinite(f"moment norm h_{k} = {h_k} is not positive", degree=k)
        c_k = h_k / prev[k - 1] if k else Fraction(0)
        if 2 * k < top:
            b_k, ratio = cur[k + 1] / h_k - ratio, cur[k + 1] / h_k
        else:
            b_k = rec[-1][0] if rec else Fraction(0)
        rec.append((b_k, c_k))
        nxt = [Fraction(0)] * len(mu)
        for l in range(k + 1, top - k):
            nxt[l] = cur[l + 1] - b_k * cur[l] - c_k * prev[l]
        prev, cur = cur, nxt
    return tuple(rec)


def numeric_rule(weight: NumericWeight):
    """Nodes x_k of a numeric weight's Gauss-Legendre rule and the weights
    w_k f(x_k) of the measure it defines, as arrays; on a symmetric interval
    the nodes and rule weights are exactly mirrored."""
    x, w = np.polynomial.legendre.leggauss(weight.nodes)
    a, b = weight.interval
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    x = mid + half * x
    return x, half * w * np.array([weight.evaluator(t) for t in x], dtype=float)


def _log(q: Fraction) -> float:
    """Natural logarithm of a positive rational, whatever its size."""
    return math.log(q.numerator) - math.log(q.denominator)


def _float_c0(direct, log_c0):
    """A closed-form c_0 as a float, or None when it lies outside the float range.

    ``direct()`` is the formula in floats of the parameters.  For a large
    power z or an extreme alpha those floats overflow or vanish although the
    moments are exact, and then c_0 is ``exp(log_c0())``, whose logarithm
    takes the integer numerator and denominator of alpha whole.
    """
    for formula in (direct, lambda: math.exp(log_c0())):
        try:
            value = formula()
        except (OverflowError, ZeroDivisionError, ValueError):
            continue
        # c_0 > 0, so a zero is an underflow
        return value or None
    return None


def moments(measure: Measure, max_order: int, backend=EXACT) -> MomentSequence:
    """Normalized moments mu_0..mu_max_order of a measure.

    Closed forms for the gaussian and gamma families, each moment one
    Fraction of running integer products of the parameters' numerators and
    denominators; declared-rule quadrature for numeric weights, whose odd
    moments are exactly zero when the measure is symmetric.
    """
    if max_order < 0:
        raise ValueError("max_order must be nonnegative")
    w = measure.weight
    if isinstance(w, GaussianWeight):
        # mu_{2k} = (2k-1)!! aq^k / (2 ap)^k, with alpha = ap / aq
        ap, aq = w.alpha.numerator, w.alpha.denominator
        mu, num, den = [], 1, 1
        for n in range(max_order + 1):
            if n % 2:
                mu.append(zero(EXACT))
            else:
                if n:
                    num *= (n - 1) * aq
                    den *= 2 * ap
                mu.append(Fraction(num, den))
        seq = MomentSequence(
            tuple(mu),
            max_order,
            True,
            _float_c0(
                lambda: math.sqrt(math.pi / float(w.alpha)),
                lambda: (math.log(math.pi) - _log(w.alpha)) / 2,
            ),
            f"sqrt(pi/{w.alpha})",
            measure,
        )
    elif isinstance(w, GammaFamilyWeight):
        # mu_n = prod_{j<n} (zp + j zq) aq^n / (zq ap)^n, with alpha = ap / aq
        # and z = zp / zq
        ap, aq = w.alpha.numerator, w.alpha.denominator
        zp, zq = w.z.numerator, w.z.denominator
        mu, num, den = [], 1, 1
        for n in range(max_order + 1):
            if n:
                num *= (zp + (n - 1) * zq) * aq
                den *= zq * ap
            mu.append(Fraction(num, den))
        seq = MomentSequence(
            tuple(mu),
            max_order,
            True,
            _float_c0(
                lambda: math.gamma(float(w.z)) / float(w.alpha) ** float(w.z),
                lambda: math.lgamma(float(w.z)) - float(w.z) * _log(w.alpha),
            ),
            f"Gamma({w.z})/{w.alpha}^{w.z}",
            measure,
        )
    elif isinstance(w, TabulatedWeight):
        if max_order >= len(w.mu):
            raise InsufficientMoments(
                f"table supplies orders <= {len(w.mu) - 1}, {max_order} requested"
            )
        seq = MomentSequence(
            tuple(w.mu[: max_order + 1]), max_order, w.exact, w.c0, measure=measure
        )
    elif isinstance(w, NumericWeight):
        x, wx = numeric_rule(w)
        raw = [
            0.0 if n % 2 and measure.symmetric else float(np.sum(wx * x**n))
            for n in range(max_order + 1)
        ]
        if not all(math.isfinite(c) for c in raw) or raw[0] <= 0:
            raise MomentError("numeric weight produced non-finite or nonpositive mass")
        seq = MomentSequence(
            tuple(c / raw[0] for c in raw), max_order, False, raw[0], measure=measure
        )
    else:
        raise TypeError(f"unknown weight {type(w).__name__}")
    if backend == FLOAT:
        return seq.to_float()
    return seq


def rule_moments(measure: Measure, n: int, backend=EXACT) -> MomentSequence:
    """mu_0..mu_{2n-1}, all an n-node Gauss rule reproduces, or mu_0..mu_{2n-2}
    from a table that stops there (InsufficientMoments before that)."""
    order = 2 * n - 1
    if isinstance(measure.weight, TabulatedWeight):
        order = min(order, max(order - 1, len(measure.weight.mu) - 1))
    return moments(measure, order, backend=backend)


@dataclass(frozen=True)
class GramMatrix:
    entries: tuple
    basis_label: str = ""

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.entries)
        object.__setattr__(self, "entries", rows)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("Gram matrix must be square")
        for j in range(n):
            for k in range(j):
                if rows[j][k] != rows[k][j]:
                    raise ValueError("Gram matrix must be symmetric")

    @property
    def size(self):
        return len(self.entries)

    def rows(self):
        return [list(r) for r in self.entries]


def hankel_matrix(moms: MomentSequence, n: int) -> GramMatrix:
    """Hankel (moment) Gram matrix [mu_{j+k}], j,k = 0..n-1."""
    if n < 0:
        raise ValueError("size must be nonnegative")
    if n and 2 * (n - 1) > moms.max_order:
        raise InsufficientMoments(
            f"{n}x{n} Hankel matrix needs moments to order {2 * (n - 1)}"
        )
    entries = [[moms[j + k] for k in range(n)] for j in range(n)]
    return GramMatrix(tuple(map(tuple, entries)), "monomial")


def gram_of(moms: MomentSequence, left, right=None):
    """The Gram congruence (left^T H) right: entry [j][k] is the inner product
    of columns j of ``left`` and k of ``right`` (default ``left``), monomial
    coefficient matrices with as many rows as the Hankel matrix H of ``moms``."""
    if right is None:
        right = left
    h = hankel_matrix(moms, len(left)).rows()
    return linalg.mat_mul(linalg.mat_mul(linalg.transpose(left), h), right)


def inner_product_mu(moms: MomentSequence, p: Polynomial, q: Polynomial):
    """Inner product from a moment table (in units of c_0); the checks' route,
    summed pair by pair independently of ``gram_of``.

    When the moments and both polynomials are exact, each of the three is
    lifted to integers over the lcm of its denominators and the double sum
    runs over those integers, with one division at the end; otherwise the
    terms a_j b_k mu_{j+k} are summed in the scalars as given.
    """
    if p.is_zero or q.is_zero:
        return zero(EXACT if moms.exact else FLOAT)
    order = p.degree + q.degree
    if order > moms.max_order:
        raise InsufficientMoments(f"inner product needs moments to order {order}")
    if moms.exact and p.kind == EXACT and q.kind == EXACT:
        p_int, p_scale = linalg.lift(p.coeffs)
        q_int, q_scale = linalg.lift(q.coeffs)
        mu_int, mu_scale = linalg.lift(moms.mu[: order + 1])
        total = sum(
            a * sum(map(mul, q_int, mu_int[j:])) for j, a in enumerate(p_int) if a
        )
        return Fraction(total, p_scale * q_scale * mu_scale)
    total = None
    for j, a in enumerate(p.coeffs):
        for k, b in enumerate(q.coeffs):
            term = a * b * moms[j + k]
            total = term if total is None else total + term
    return total


def truncated_support(measure: Measure, floor=1e-18):
    """Finite interval outside which the weight drops below ``floor``.

    Used to bound root scans on unbounded domains; the cutoff is a documented
    constant, not a tolerance of the algorithms themselves.
    """
    a, b = measure.domain
    if math.isfinite(a) and math.isfinite(b):
        return float(a), float(b)
    if isinstance(measure.weight, TabulatedWeight):
        raise MomentError("tabulated measures need an explicit finite domain")

    def cutoff(direction):
        x = 1.0
        while measure.weight_value(direction * x) >= floor and x < 1e9:
            x *= 2.0
        return direction * x

    lo = float(a) if math.isfinite(a) else cutoff(-1.0)
    hi = float(b) if math.isfinite(b) else cutoff(1.0)
    return lo, hi


def measure_to_json(measure: Measure):
    return {"label": measure.label, "symmetric": measure.symmetric}


def load_moments_csv(path, c0=1, symmetric=None, domain=(-INF, INF)) -> Measure:
    """Moment table from CSV rows ``n,mu_n`` (rationals as 'p/q', floats as decimals)."""
    table = {}
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().startswith("#") or row[0].strip() == "n":
                continue
            n = int(row[0])
            table[n] = _parse_entry(row[1].strip())
    if not table:
        raise MomentError(f"no moment rows found in {path}")
    top = max(table)
    missing = [n for n in range(top + 1) if n not in table]
    if missing:
        raise MomentError(f"moment orders missing from {path}: {missing}")
    mu = [table[n] for n in range(top + 1)]
    return Measure.from_moments(mu, c0=c0, symmetric=symmetric, domain=domain, label=f"file:{path}")


def load_moments_json(path, symmetric=None, domain=(-INF, INF)) -> Measure:
    """Moment table from JSON ``{"c0": ..., "mu": [...]}``."""
    with open(path) as fh:
        data = json.load(fh)
    mu = [scalar_from_json(v) for v in data["mu"]]
    c0 = scalar_from_json(data.get("c0", 1))
    return Measure.from_moments(mu, c0=c0, symmetric=symmetric, domain=domain, label=f"file:{path}")


def _parse_entry(text):
    if "/" in text or text.lstrip("+-").isdigit():
        return to_fraction(text)
    return float(text)
