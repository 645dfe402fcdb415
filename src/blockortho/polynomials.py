"""Dense real polynomials over exact rationals or floats.

Coefficients are stored ascending (``coeffs[k]`` multiplies x^k) with the
trailing coefficient nonzero; the zero polynomial is the empty tuple.  All
values are immutable, so instances are safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import DegreeError, KindMismatch
from .scalars import EXACT, kind_of, one, scalar_from_json, scalar_to_json, zero

PARITY_EVEN = "even"
PARITY_ODD = "odd"
PARITY_MIXED = "mixed"
PARITY_ZERO = "zero"


def _normalize(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return ()
    kinds = {kind_of(c) for c in coeffs}
    if len(kinds) > 1:
        raise KindMismatch("polynomial mixes exact and float coefficients")
    if kinds.pop() == EXACT:
        return tuple(Fraction(c) for c in coeffs)
    return tuple(float(c) for c in coeffs)


@dataclass(frozen=True)
class Polynomial:
    coeffs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _normalize(self.coeffs))

    @property
    def kind(self):
        if not self.coeffs:
            return EXACT
        return kind_of(self.coeffs[0])

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return zero(self.kind)

    def _check_kind(self, other):
        if not self.is_zero and not other.is_zero and self.kind != other.kind:
            raise KindMismatch("cannot combine exact and float polynomials")

    def __add__(self, other):
        self._check_kind(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(tuple(self.coeff(k) + other.coeff(k) for k in range(n)))

    def __sub__(self, other):
        self._check_kind(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(tuple(self.coeff(k) - other.coeff(k) for k in range(n)))

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check_kind(other)
        if self.is_zero or other.is_zero:
            return Polynomial(())
        out = [self.coeffs[0] * 0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(tuple(out))

    __rmul__ = __mul__

    def scale(self, factor):
        if self.is_zero:
            return self
        if kind_of(factor) != self.kind:
            raise KindMismatch("scale factor kind differs from polynomial kind")
        return Polynomial(tuple(c * factor for c in self.coeffs))

    def __call__(self, x):
        """Horner evaluation; the result kind follows the argument."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def reflect(self):
        """p(-x)."""
        return Polynomial(tuple(-c if k % 2 else c for k, c in enumerate(self.coeffs)))

    def parity(self):
        if self.is_zero:
            return PARITY_ZERO
        odd_zero = all(c == 0 for c in self.coeffs[1::2])
        even_zero = all(c == 0 for c in self.coeffs[0::2])
        if odd_zero:
            return PARITY_EVEN
        if even_zero:
            return PARITY_ODD
        return PARITY_MIXED

    def monic(self):
        if self.is_zero:
            raise DegreeError("the zero polynomial has no monic form")
        return self.scale(one(self.kind) / self.coeffs[-1])

    def to_float(self):
        return Polynomial(tuple(float(c) for c in self.coeffs))

    def to_json(self):
        return {"coeffs": [scalar_to_json(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data):
        return cls(tuple(scalar_from_json(c) for c in data["coeffs"]))

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            term = f"x^{k}" if k else "1"
            parts.append(f"{c}*{term}")
        return " + ".join(parts)


def monomial(k, coeff=Fraction(1)):
    """coeff * x^k."""
    return Polynomial((zero(kind_of(coeff)),) * k + (coeff,))


def combine(coefficients, polys):
    """sum_k coefficients[k] * polys[k], skipping zero coefficients."""
    acc = Polynomial(())
    for c, p in zip(coefficients, polys):
        if c != 0:
            acc = acc + p.scale(c)
    return acc


ONE = Polynomial((Fraction(1),))
X = monomial(1)


@dataclass(frozen=True)
class SignChangeReport:
    count: int
    brackets: tuple
    grid: tuple


def sign_changes_in(p: Polynomial, lo, hi, resolution: int = 2048):
    """Count sign changes of p on [lo, hi] over a deterministic grid.

    Every change is refined by bisection to a bracket of width <= 1e-12
    (exact brackets stay rational).  The count is a certified lower bound on
    the number of distinct odd-order real zeros in the interval.

    One array kernel serves both scalar kinds: float polynomials run on
    float64 arrays, exact ones on object arrays of Fractions.  ``np.polyval``
    is the same Horner recurrence as ``Polynomial.__call__``, operation for
    operation, so every float value equals ``p(t)`` bit for bit.  The grid
    is evaluated in one pass and all brackets are bisected together.
    """
    if p.is_zero:
        raise DegreeError("sign changes of the zero polynomial are undefined")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if p.kind == EXACT:
        lo, hi = Fraction(lo), Fraction(hi)
        width_goal = Fraction(1, 10**12)
        dtype = object
    else:
        lo, hi = float(lo), float(hi)
        width_goal = 1e-12
        dtype = np.float64
    coeffs = np.array(p.coeffs[::-1], dtype=dtype)
    step = (hi - lo) / resolution
    # overflow gives inf and inf - inf gives nan, silently, as in Python floats
    with np.errstate(all="ignore"):
        nodes = lo + step * np.arange(resolution + 1, dtype=dtype)
        values = np.polyval(coeffs, nodes)
        # nudge grid nodes off exact roots so sign changes stay visible
        hit = np.flatnonzero(values == 0)
        if hit.size:
            nodes[hit] += np.where(hit < resolution, step / 7, -step / 7)
            values[hit] = np.polyval(coeffs, nodes[hit])
        left, right = values[:-1], values[1:]
        cells = np.flatnonzero((left != 0) & (right != 0) & ((left > 0) != (right > 0)))
        a, b, fa = nodes[cells], nodes[cells + 1], left[cells]
        active = np.flatnonzero(b - a > width_goal)
        while active.size:
            a_k, b_k, fa_k = a[active], b[active], fa[active]
            mid = (a_k + b_k) / 2
            fm = np.polyval(coeffs, mid)
            # mid replaces the end whose sign it shares
            moves_a = (fm > 0) == (fa_k > 0)
            new_a = np.where(moves_a, mid, a_k)
            new_b = np.where(moves_a, b_k, mid)
            new_fa = np.where(moves_a, fm, fa_k)
            stuck = np.zeros(active.size, dtype=bool)
            root = fm == 0
            if root.any():
                # a midpoint on a root: recentre a half-width bracket on it,
                # and stop there unless its ends still differ in sign
                half = (b_k[root] - a_k[root]) / 4
                new_a[root] = mid[root] - half
                new_b[root] = mid[root] + half
                f_lo = np.polyval(coeffs, new_a[root])
                f_hi = np.polyval(coeffs, new_b[root])
                new_fa[root] = f_lo
                stuck[root] = (f_lo == 0) | (f_hi == 0) | ((f_lo > 0) == (f_hi > 0))
            a[active], b[active], fa[active] = new_a, new_b, new_fa
            active = active[~stuck & (new_b - new_a > width_goal)]
    brackets = tuple(zip(a.tolist(), b.tolist()))
    return SignChangeReport(len(brackets), brackets, tuple(nodes.tolist()))


def alternant_det(points, polys):
    """det[p_k(y_j)] for polynomials p_k of exact degree k.

    Computed directly from the evaluation matrix; the closed product
    (prod of leading coefficients) * (product of point differences) is the
    independent test oracle, not the implementation.
    """
    if len(points) != len(polys):
        raise DegreeError("need as many points as polynomials")
    for k, p in enumerate(polys):
        if p.degree != k:
            raise DegreeError(f"polynomial {k} has degree {p.degree}, expected {k}")
    matrix = [[p(y) for p in polys] for y in points]
    return linalg.det(matrix)
