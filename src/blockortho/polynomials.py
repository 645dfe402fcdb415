"""Dense real polynomials over exact rationals or floats.

Coefficients are stored ascending (``coeffs[k]`` multiplies x^k) with the
trailing coefficient nonzero; the zero polynomial is the empty tuple.  All
values are immutable, so instances are safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    """
    if p.is_zero:
        raise DegreeError("sign changes of the zero polynomial are undefined")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    exact = p.kind == EXACT
    if exact:
        lo, hi = Fraction(lo), Fraction(hi)
        width_goal = Fraction(1, 10**12)
    else:
        lo, hi = float(lo), float(hi)
        width_goal = 1e-12
    step = (hi - lo) / resolution
    nodes = []
    for k in range(resolution + 1):
        t = lo + step * k
        if p(t) == 0:
            # nudge grid nodes off exact roots so sign changes stay visible
            t = t + step / 7 if k < resolution else t - step / 7
        nodes.append(t)
    values = [p(t) for t in nodes]
    brackets = []
    for k in range(resolution):
        a, b = nodes[k], nodes[k + 1]
        fa, fb = values[k], values[k + 1]
        if fa == 0 or fb == 0 or (fa > 0) == (fb > 0):
            continue
        while b - a > width_goal:
            mid = (a + b) / 2
            fm = p(mid)
            if fm == 0:
                half = (b - a) / 4
                a, b = mid - half, mid + half
                fa, fb = p(a), p(b)
                if fa == 0 or fb == 0 or (fa > 0) == (fb > 0):
                    break
                continue
            if (fm > 0) == (fa > 0):
                a, fa = mid, fm
            else:
                b, fb = mid, fm
        brackets.append((a, b))
    return SignChangeReport(len(brackets), tuple(brackets), tuple(nodes))


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
