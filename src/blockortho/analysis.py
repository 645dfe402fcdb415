"""Independent verification: integral representations and zero locations.

The Gram determinants and the block polynomials both admit multidimensional
integral representations.  This module evaluates those integrals by tensor
Gauss quadrature (nodes derived from this package's own recurrence data, via
the symmetric tridiagonal eigenproblem) and compares against the determinant
values, giving a route into the results that never touches the
orthogonalization code.

Dimension caps keep runtime at desk scale; exceeding them raises instead of
silently truncating.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .block import SboBasis
from .errors import DimensionCap, InsufficientNodes, MomentError
from .measures import Measure, moments, truncated_support
from .polynomials import sign_changes_in
from .standard import MONIC, build_standard

Z_DIMENSION_CAP = 3
P_CONSTRAINT_CAP = 2
REPORT_RTOL = 1e-10


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor-product quadrature: one (nodes, weights) pair per dimension."""

    axes: tuple
    descriptor: str = ""

    def __post_init__(self):
        for nodes, weights in self.axes:
            if any(w <= 0 for w in weights):
                raise InsufficientNodes("quadrature weights must be positive")

    def points(self):
        """Iterate (point_tuple, weight) over the tensor grid."""
        node_lists = [axis[0] for axis in self.axes]
        weight_lists = [axis[1] for axis in self.axes]
        for combo in itertools.product(*(range(len(n)) for n in node_lists)):
            point = tuple(node_lists[d][k] for d, k in enumerate(combo))
            weight = 1.0
            for d, k in enumerate(combo):
                weight *= weight_lists[d][k]
            yield point, weight


def gauss_rule(measure: Measure, n_nodes: int):
    """Gauss nodes and weights for a measure, normalized to unit total mass.

    Built from the measure's own three-term recurrence through the Jacobi
    matrix eigenproblem; exact for polynomials of degree <= 2 n_nodes - 1 up
    to rounding.
    """
    if n_nodes < 1:
        raise InsufficientNodes("need at least one node")
    backend = "exact" if moments(measure, 0).exact else "float"
    basis = build_standard(measure, n_nodes + 1, MONIC, backend=backend, check=False)
    diag = []
    off = []
    for m in range(n_nodes):
        _, b_m, c_m = basis.recurrence[m]
        diag.append(-float(b_m))
        if m >= 1:
            off.append(math.sqrt(float(c_m)))
    jacobi = np.diag(diag)
    if off:
        jacobi += np.diag(off, 1) + np.diag(off, -1)
    values, vectors = np.linalg.eigh(jacobi)
    weights = vectors[0, :] ** 2
    order = np.argsort(values)
    nodes = values[order]
    weights = weights[order]
    total = weights.sum()
    if abs(total - 1.0) > 1e-8:
        raise InsufficientNodes("quadrature weights failed normalization")
    weights = weights / total
    return tuple(float(x) for x in nodes), tuple(float(w) for w in weights)


def verify_z_integral(
    sbo: SboBasis, i: int, n: int, nodes: int = None, monomial_mode: bool = False
):
    """Compare the degree-n Gram determinant with its integral form.

    The integral of the squared alternant of Q_i..Q_n over n+1-i copies of
    the second measure, divided by (n+1-i)!, equals the determinant of the
    gamma block.  ``monomial_mode`` replaces the Q's by monomials and
    compares against the plain Hankel determinant instead.
    """
    if not sbo.i <= i <= n < sbo.size:
        raise ValueError(f"need {sbo.i} <= i <= n < {sbo.size}")
    dim = n + 1 - i
    if dim > Z_DIMENSION_CAP:
        raise DimensionCap(f"integral dimension {dim} exceeds cap {Z_DIMENSION_CAP}")
    needed = n + 1
    nodes = nodes or needed + 1
    if nodes < needed:
        raise InsufficientNodes(f"need at least {needed} nodes per axis")
    rule = gauss_rule(sbo.measure2, nodes)
    grid = QuadratureGrid((rule,) * dim, f"gauss:{nodes}^{dim}")
    if monomial_mode:
        polys = [np.array([0.0] * k + [1.0]) for k in range(i, n + 1)]
        rhs = float(
            linalg.det([[float(sbo.mu2[j + k]) for k in range(i, n + 1)] for j in range(i, n + 1)])
        )
    else:
        polys = [np.array([float(c) for c in sbo.q_basis.polys[k].coeffs]) for k in range(i, n + 1)]
        if i == sbo.i:
            rhs = float(sbo.Z(n))
        else:
            g = sbo.gamma.rows()
            lo = i - sbo.i
            hi = n - sbo.i + 1
            rhs = float(linalg.det([[float(x) for x in row[lo:hi]] for row in g[lo:hi]]))
    total = 0.0
    for point, weight in grid.points():
        matrix = np.array(
            [[np.polyval(p[::-1], y) for p in polys] for y in point]
        )
        det = float(np.linalg.det(matrix))
        total += weight * det * det
    lhs = total / math.factorial(dim)
    rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    return {
        "check": "z_integral",
        "i": i,
        "n": n,
        "lhs": lhs,
        "rhs": rhs,
        "rel_err": rel,
        "pass": rel <= REPORT_RTOL,
    }


def verify_p_integral(sbo: SboBasis, i: int, n: int, nodes: int = None):
    """Rebuild the monic P_{i;n} coefficient-by-coefficient from its integral.

    Integrates the alternant in (y_0..y_{n-1}, x) times prod Q_j(y_j), the
    first i axes under the first measure and the rest under the second,
    scaled by the closed prefactor.  For i = 0 the symmetrized single-measure
    form is evaluated as well and both must agree.
    """
    if not sbo.i <= i <= n < sbo.size:
        raise ValueError(f"need {sbo.i} <= i <= n < {sbo.size}")
    if i > P_CONSTRAINT_CAP or n > 3 + i:
        raise DimensionCap(f"(i={i}, n={n}) exceeds the dimension caps")
    if i != sbo.i:
        raise ValueError("the integral prefactor needs the basis' own index")
    needed = n + 1
    nodes = nodes or needed + 1
    if nodes < needed:
        raise InsufficientNodes(f"need at least {needed} nodes per axis")
    rule1 = gauss_rule(sbo.measure1, nodes)
    rule2 = gauss_rule(sbo.measure2, nodes)
    grid = QuadratureGrid((rule1,) * i + (rule2,) * (n - i), f"mixed:{nodes}^{n}")
    q_float = [
        np.array([float(c) for c in sbo.q_basis.polys[j].coeffs]) for j in range(n)
    ]
    acc = np.zeros(n + 1)
    for point, weight in grid.points():
        ys = np.array(point)
        factor = weight * _vandermonde(ys)
        for j, y in enumerate(ys):
            factor *= np.polyval(q_float[j][::-1], y)
        if factor == 0.0:
            continue
        acc += factor * _roots_to_coeffs(ys)
    k_prod = 1.0
    for j in range(n):
        k_prod *= float(sbo.q_basis.leading[j])
    h_prod = 1.0
    for j in range(i):
        h_prod *= float(sbo.q_basis.norms[j])
    prefactor = k_prod / (float(sbo.Z(n - 1)) * h_prod)
    integral_coeffs = prefactor * acc
    reference = np.array([float(c) for c in sbo.monic_poly(n).coeffs])
    err = float(np.max(np.abs(integral_coeffs - reference)))
    scale = float(np.max(np.abs(reference)))
    report = {
        "check": "p_integral",
        "i": i,
        "n": n,
        "coeffs": [float(c) for c in integral_coeffs],
        "reference": [float(c) for c in reference],
        "max_err": err,
        "rel_err": err / scale,
        "pass": err / scale <= REPORT_RTOL,
    }
    if i == 0:
        report["symmetrized"] = _p_integral_symmetrized(sbo, n, nodes)
        report["rel_err_symmetrized"] = float(
            np.max(np.abs(np.array(report["symmetrized"]) - reference)) / scale
        )
        report["pass"] = report["pass"] and report["rel_err_symmetrized"] <= REPORT_RTOL
    return report


def _vandermonde(ys):
    out = 1.0
    for j in range(len(ys)):
        for k in range(j + 1, len(ys)):
            out *= ys[k] - ys[j]
    return out


def _roots_to_coeffs(ys):
    """Ascending coefficients of prod_j (x - y_j)."""
    coeffs = np.zeros(len(ys) + 1)
    coeffs[0] = 1.0
    deg = 0
    for y in ys:
        head = coeffs[: deg + 1].copy()
        coeffs[1 : deg + 2] = head
        coeffs[0] = 0.0
        coeffs[: deg + 1] -= y * head
        deg += 1
    return coeffs


def _p_integral_symmetrized(sbo: SboBasis, n: int, nodes: int):
    """Single-measure form: squared Vandermonde over the second measure."""
    rule2 = gauss_rule(sbo.measure2, nodes)
    grid = QuadratureGrid((rule2,) * n, f"gauss2:{nodes}^{n}")
    acc = np.zeros(n + 1)
    for point, weight in grid.points():
        ys = np.array(point)
        v = _vandermonde(ys)
        acc += weight * v * v * _roots_to_coeffs(ys)
    hankel = [[float(sbo.mu2[j + k]) for k in range(n)] for j in range(n)]
    denominator = math.factorial(n) * float(linalg.det(hankel))
    return [float(c) for c in acc / denominator]


@dataclass(frozen=True)
class ZeroReport:
    i: int
    n: int
    count: int
    brackets: tuple
    domain: tuple
    satisfies_theorem: bool


def _scan_interval(sbo: SboBasis):
    """Hull of both measures' truncated supports, clipped to the first domain.

    The zeros of P_{i;n} spread over the wider of the two weights, so a scan
    that stopped where the first weight fades would miss zeros whenever the
    second weight is the wider one.  A tabulated second measure has no
    pointwise weight and contributes nothing.
    """
    lo, hi = truncated_support(sbo.measure1)
    try:
        lo2, hi2 = truncated_support(sbo.measure2)
    except MomentError:
        return lo, hi
    a, b = sbo.measure1.domain
    return max(min(lo, lo2), float(a)), min(max(hi, hi2), float(b))


def zero_report(sbo: SboBasis, n: int, resolution: int = 4096) -> ZeroReport:
    """Sign changes of P_{i;n} inside the first measure's support.

    The count is a certified lower bound on distinct odd-order zeros; the
    theorem guarantees at least i of them, and exactly n when i = n - 1 or
    i = n (all zeros real and simple then).  The scan covers the hull of
    both measures' truncated supports, clipped to the first measure's domain,
    with ``resolution`` grid cells.
    """
    if not sbo.i <= n < sbo.size:
        raise ValueError(f"degree {n} outside basis range")
    poly = sbo.monic_poly(n).to_float()
    lo, hi = _scan_interval(sbo)
    if n == 0:
        return ZeroReport(sbo.i, n, 0, (), (lo, hi), True)
    report = sign_changes_in(poly, lo, hi, resolution=resolution)
    need_all = sbo.i in (n - 1, n)
    ok = report.count >= sbo.i and (not need_all or report.count == n)
    return ZeroReport(sbo.i, n, report.count, report.brackets, (lo, hi), ok)
