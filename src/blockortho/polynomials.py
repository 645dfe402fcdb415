"""Dense real polynomials over exact rationals or floats.

Coefficients are stored ascending (``coeffs[k]`` multiplies x^k) with the
trailing coefficient nonzero; the zero polynomial is the empty tuple.  All
values are immutable, so instances are safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from ._numpy import np
from .errors import DegreeError, KindMismatch
from .scalars import EXACT, FLOAT, kind_of, one, scalar_to_json, zero

PARITY_EVEN = "even"
PARITY_ODD = "odd"
PARITY_MIXED = "mixed"
PARITY_ZERO = "zero"


def _normalize(coeffs):
    """``coeffs`` as a tuple of one scalar kind without trailing zeros.

    Coefficients are classified by their set of types, as
    ``linalg.matrix_kind`` does: an all-Fraction or all-float tuple is
    returned as it is; ints become Fractions; any other mix goes through
    ``kind_of`` coefficient by coefficient."""
    coeffs = tuple(coeffs)
    end = len(coeffs)
    while end and coeffs[end - 1] == 0:
        end -= 1
    coeffs = coeffs[:end]
    types = set(map(type, coeffs))
    if types == {Fraction} or types == {float} or not coeffs:
        return coeffs
    kinds = {kind_of(c) for c in coeffs}
    if len(kinds) > 1:
        raise KindMismatch("polynomial mixes exact and float coefficients")
    if kinds.pop() == EXACT:
        return tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs)
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


def columns_of(polys, size):
    """The size x len(polys) coefficient matrix whose column k holds the
    ascending coefficients of polys[k], each of degree below ``size``.

    Missing coefficients are the zero of the batch's kind (float when any
    polynomial is float), so a zero polynomial in a float batch gives a
    float column."""
    pad = zero(FLOAT if any(p.kind == FLOAT for p in polys) else EXACT)
    return [[p.coeffs[k] if k < len(p.coeffs) else pad for p in polys] for k in range(size)]


def from_columns(matrix):
    """The polynomials whose ascending coefficients are the columns of ``matrix``."""
    return tuple(Polynomial(col) for col in zip(*matrix))


def combine(coefficients, polys):
    """sum_k coefficients[k] * polys[k]: ``from_columns`` of the one-column
    product of the nonzero polys' ``columns_of`` with their coefficients."""
    pairs = [(c, p) for c, p in zip(coefficients, polys) if not p.is_zero]
    if not pairs:
        return Polynomial(())
    size = max(p.degree for _, p in pairs) + 1
    columns = columns_of([p for _, p in pairs], size)
    return from_columns(linalg.mat_mul(columns, [[c] for c, _ in pairs]))[0]


ONE = Polynomial((Fraction(1),))
X = monomial(1)


@dataclass(frozen=True)
class SignChangeReport:
    count: int
    brackets: tuple
    nodes: np.ndarray = field(repr=False, compare=False)

    @property
    def grid(self):
        """The scanned nodes, each nudged off an exact root, as scalars."""
        return tuple(self.nodes.tolist())

    def __eq__(self, other):
        if not isinstance(other, SignChangeReport):
            return NotImplemented
        return (self.count, self.brackets, self.grid) == (other.count, other.brackets, other.grid)


def sign_changes_batch(polys, lo, hi, resolution: int = 2048):
    """Count the sign changes of each polynomial on [lo, hi] over a
    deterministic grid, for polynomials of one kind sharing the interval.

    Every change is refined by bisection to a bracket of width <= 1e-12
    (exact brackets stay rational).  Each count is a certified lower bound
    on the number of distinct odd-order real zeros in the interval.

    One array kernel serves both scalar kinds: float polynomials run on
    float64 arrays, exact ones on object arrays of Fractions.  Each
    polynomial's grid is evaluated in one ``np.polyval`` pass (the same
    Horner recurrence as ``Polynomial.__call__``, operation for operation,
    so every float value equals ``p(t)`` bit for bit).  Then one bisection
    loop refines the brackets of every polynomial together.
    """
    polys = list(polys)
    if any(p.is_zero for p in polys):
        raise DegreeError("sign changes of the zero polynomial are undefined")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if not polys:
        return []
    kinds = {p.kind for p in polys}
    if len(kinds) > 1:
        raise KindMismatch("a batch scan needs polynomials of one kind")
    if kinds.pop() == EXACT:
        lo, hi = Fraction(lo), Fraction(hi)
        width_goal = Fraction(1, 10**12)
        dtype = object
    else:
        lo, hi = float(lo), float(hi)
        width_goal = 1e-12
        dtype = np.float64
    degree = max(p.degree for p in polys)
    # row k: descending coefficients of polys[k], zero-padded to the largest degree
    matrix = np.zeros((len(polys), degree + 1), dtype=dtype)
    for row, p in zip(matrix, polys):
        row[degree - p.degree:] = p.coeffs[::-1]
    step = (hi - lo) / resolution
    grid, cells_a, cells_b, cells_fa, owners = [], [], [], [], []
    # overflow gives inf and inf - inf gives nan, silently, as in Python floats
    with np.errstate(all="ignore"):
        base = lo + step * np.arange(resolution + 1, dtype=dtype)
        # reports of one batch share this array, so none may change it
        base.flags.writeable = False
        for k, p in enumerate(polys):
            coeffs = matrix[k, degree - p.degree:]
            nodes = base
            values = np.polyval(coeffs, nodes)
            # nudge grid nodes off exact roots so sign changes stay visible
            hit = np.flatnonzero(values == 0)
            if hit.size:
                nodes = base.copy()
                nodes[hit] += np.where(hit < resolution, step / 7, -step / 7)
                nodes.flags.writeable = False
                values[hit] = np.polyval(coeffs, nodes[hit])
            left, right = values[:-1], values[1:]
            cells = np.flatnonzero((left != 0) & (right != 0) & ((left > 0) != (right > 0)))
            grid.append(nodes)
            cells_a.append(nodes[cells])
            cells_b.append(nodes[cells + 1])
            cells_fa.append(left[cells])
            owners.append(np.full(cells.size, k))
        a, b = _bisect(matrix, np.concatenate(owners), np.concatenate(cells_a),
                       np.concatenate(cells_b), np.concatenate(cells_fa), width_goal)
    a, b = a.tolist(), b.tolist()
    reports, start = [], 0
    for nodes, cell in zip(grid, cells_a):
        stop = start + cell.size
        brackets = tuple(zip(a[start:stop], b[start:stop]))
        reports.append(SignChangeReport(len(brackets), brackets, nodes))
        start = stop
    return reports


def _horner(rows, x):
    """``np.polyval`` per entry: rows[:, k] holds the descending coefficients
    for x[k].  Leading zero padding keeps the value 0 until the first real
    coefficient, so for finite x the result equals ``np.polyval`` bit for bit."""
    acc = np.zeros_like(x)
    for column in rows:
        acc = acc * x + column
    return acc


def _bisect(matrix, owner, a, b, fa, width_goal):
    """Bisect every bracket [a, b] of its owner's row of ``matrix`` at once.

    An index array of live brackets shrinks each round; ``fa`` is the value
    at ``a``.  Returns the final (a, b).
    """
    columns = matrix.T
    active = np.flatnonzero(b - a > width_goal)
    while active.size:
        a_k, b_k, fa_k = a[active], b[active], fa[active]
        rows = columns[:, owner[active]]
        mid = (a_k + b_k) / 2
        fm = _horner(rows, mid)
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
            f_lo = _horner(rows[:, root], new_a[root])
            f_hi = _horner(rows[:, root], new_b[root])
            new_fa[root] = f_lo
            stuck[root] = (f_lo == 0) | (f_hi == 0) | ((f_lo > 0) == (f_hi > 0))
        a[active], b[active], fa[active] = new_a, new_b, new_fa
        active = active[~stuck & (new_b - new_a > width_goal)]
    return a, b


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
