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
from typing import Callable, Optional

import numpy as np

from .errors import (
    InsufficientMoments,
    MomentError,
    NonPositiveParameter,
    NotPositiveDefinite,
    NotSymmetric,
)
from . import linalg
from .polynomials import Polynomial
from .scalars import (
    EXACT,
    FLOAT,
    double_factorial,
    kind_of,
    pochhammer,
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
    mu: tuple
    c0: object

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
        mu = tuple(mu)
        for n, m in enumerate(mu):
            if isinstance(m, float) and not math.isfinite(m):
                raise MomentError(f"moment of order {n} is {m}; moments must be finite")
        if not mu or mu[0] != 1:
            raise MomentError("a moment table must start with mu_0 = 1")
        if symmetric is None:
            symmetric = all(m == 0 for m in mu[1::2])
        elif symmetric and any(m != 0 for m in mu[1::2]):
            raise NotSymmetric("symmetric flag set but odd moments are nonzero")
        weight = TabulatedWeight(mu, c0)
        _check_hankel_positivity(mu)
        return cls(weight, domain, symmetric, label)

    @classmethod
    def numeric(cls, evaluator, interval, nodes, symmetric=False, label="numeric"):
        a, b = float(interval[0]), float(interval[1])
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise MomentError("numeric weights need a finite interval a < b")
        if nodes < 1:
            raise MomentError("numeric weights need at least one node")
        return cls(NumericWeight(evaluator, (a, b), int(nodes)), (a, b), symmetric, label)

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
    mu: tuple
    max_order: int
    exact: bool
    c0: object = 1
    c0_symbol: Optional[str] = None

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
            float(self.c0),
            self.c0_symbol,
        )


def _check_hankel_positivity(mu):
    """Leading Hankel minors must be positive (Gram positivity)."""
    n = (len(mu) - 1) // 2 + 1
    matrix = [[mu[j + k] for k in range(n)] for j in range(n)]
    for size, minor in enumerate(linalg.leading_minors(matrix)):
        if size and minor <= 0:
            raise NotPositiveDefinite(
                f"Hankel minor of size {size} is {minor}; not a positive measure"
            )


def _gauss_legendre(interval, nodes):
    x, w = np.polynomial.legendre.leggauss(nodes)
    a, b = interval
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    return mid + half * x, half * w


def moments(measure: Measure, max_order: int, backend=EXACT) -> MomentSequence:
    """Normalized moments mu_0..mu_max_order of a measure.

    Closed forms for the gaussian and gamma families (exact rationals);
    declared-rule quadrature for numeric weights.
    """
    if max_order < 0:
        raise ValueError("max_order must be nonnegative")
    w = measure.weight
    if isinstance(w, GaussianWeight):
        mu = []
        for n in range(max_order + 1):
            if n % 2:
                mu.append(Fraction(0))
            else:
                k = n // 2
                mu.append(Fraction(double_factorial(2 * k - 1)) / (2 * w.alpha) ** k)
        seq = MomentSequence(
            tuple(mu),
            max_order,
            True,
            math.sqrt(math.pi / float(w.alpha)),
            f"sqrt(pi/{w.alpha})",
        )
    elif isinstance(w, GammaFamilyWeight):
        mu = tuple(pochhammer(w.z, n) / w.alpha**n for n in range(max_order + 1))
        seq = MomentSequence(
            tuple(mu),
            max_order,
            True,
            math.gamma(float(w.z)) / float(w.alpha) ** float(w.z),
            f"Gamma({w.z})/{w.alpha}^{w.z}",
        )
    elif isinstance(w, TabulatedWeight):
        if max_order >= len(w.mu):
            raise InsufficientMoments(
                f"table supplies orders <= {len(w.mu) - 1}, {max_order} requested"
            )
        seq = MomentSequence(tuple(w.mu[: max_order + 1]), max_order, w.exact, w.c0)
    elif isinstance(w, NumericWeight):
        x, wq = _gauss_legendre(w.interval, w.nodes)
        vals = np.array([w.evaluator(t) for t in x], dtype=float)
        raw = [float(np.sum(wq * vals * x**n)) for n in range(max_order + 1)]
        if not all(math.isfinite(c) for c in raw) or raw[0] <= 0:
            raise MomentError("numeric weight produced non-finite or nonpositive mass")
        seq = MomentSequence(
            tuple(c / raw[0] for c in raw), max_order, False, raw[0]
        )
    else:
        raise TypeError(f"unknown weight {type(w).__name__}")
    if backend == FLOAT:
        return seq.to_float()
    return seq


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


def inner_product_mu(moms: MomentSequence, p: Polynomial, q: Polynomial):
    """Inner product from a moment table (in units of c_0)."""
    if p.is_zero or q.is_zero:
        return zero(EXACT if moms.exact else FLOAT)
    if p.degree + q.degree > moms.max_order:
        raise InsufficientMoments(
            f"inner product needs moments to order {p.degree + q.degree}"
        )
    total = None
    for j, a in enumerate(p.coeffs):
        for k, b in enumerate(q.coeffs):
            term = a * b * moms[j + k]
            total = term if total is None else total + term
    return total


def inner_product(measure: Measure, p: Polynomial, q: Polynomial, backend=None):
    """Inner product of two polynomials under a measure (in units of c_0)."""
    if p.is_zero or q.is_zero:
        return Fraction(0)
    if backend is None:
        backend = FLOAT if FLOAT in (p.kind, q.kind) else EXACT
    moms = moments(measure, p.degree + q.degree, backend=backend)
    return inner_product_mu(moms, p, q)


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
        return Fraction(text)
    return float(text)
