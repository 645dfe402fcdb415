"""Independent verification: integral representations and zero locations.

The Gram determinants and the block polynomials both admit multidimensional
integral representations.  This module evaluates those integrals by tensor
Gauss quadrature (nodes derived from this package's own recurrence data, via
the symmetric tridiagonal eigenproblem) and compares against the determinant
values, giving a route into the results that never touches the
orthogonalization code.  A grid is evaluated as arrays, one row per point
(:meth:`QuadratureGrid.arrays`), and its terms are added one at a time in
grid order, so each sum is the one a point-by-point loop would give.

Dimension caps keep runtime at desk scale; exceeding them raises instead of
silently truncating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import linalg
from ._numpy import np
from .errors import CollapsedRule, DimensionCap, InsufficientNodes, MomentError
from .measures import Measure, truncated_support
from .polynomials import sign_changes_batch
from .standard import monic_recurrence

if TYPE_CHECKING:  # block imports this module for its Gauss rules
    from .block import SboBasis

Z_DIMENSION_CAP = 3
P_CONSTRAINT_CAP = 2
REPORT_RTOL = 1e-10
# grid cells of every zero scan
SCAN_CELLS = 4096


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor-product quadrature: one (nodes, weights) pair per dimension."""

    axes: tuple
    descriptor: str = ""

    def __post_init__(self):
        for nodes, weights in self.axes:
            if any(w <= 0 for w in weights):
                if all(w >= 0 for w in weights):
                    raise CollapsedRule("quadrature weights must be positive; some underflow to 0")
                raise InsufficientNodes("quadrature weights must be positive")

    def arrays(self):
        """The grid as arrays, in ``itertools.product`` order of the axes.

        Returns ``(index, points, weights)``: ``index[g, d]`` is the node
        index of point g on axis d, ``points[g, d]`` that node and
        ``weights[g]`` the product of the point's axis weights, multiplied
        axis by axis from 1.0.
        """
        shape = tuple(len(nodes) for nodes, _ in self.axes)
        index = np.indices(shape).reshape(len(shape), math.prod(shape)).T
        points = np.empty(index.shape)
        weights = np.ones(len(index))
        for d, (nodes, axis_weights) in enumerate(self.axes):
            points[:, d] = np.array(nodes)[index[:, d]]
            weights *= np.array(axis_weights)[index[:, d]]
        return index, points, weights


def gauss_rule(measure: Measure, n_nodes: int):
    """Gauss nodes and weights for a measure, normalized to unit total mass.

    Built from the measure's own three-term recurrence
    (:func:`standard.monic_recurrence`) through the Jacobi matrix
    eigenproblem; exact for polynomials of degree <= 2 n_nodes - 1 up to
    rounding.
    """
    if n_nodes < 1:
        raise InsufficientNodes("need at least one node")
    nodes, weights = recurrence_rule(monic_recurrence(measure, n_nodes))
    return tuple(float(x) for x in nodes), tuple(float(w) for w in weights)


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
    lhs = _squared_alternant_sum(grid, polys) / math.factorial(dim)
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
    acc = _alternant_root_sum(grid, q_float)
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


def _squared_alternant_sum(grid: QuadratureGrid, polys) -> float:
    """sum_g w_g det[p_c(y_{g,r})]_{r,c}^2 over the grid, one polynomial per
    column and one axis per row.

    Each polynomial is tabulated once on each distinct rule; the point
    matrices are gathered from the tables and their determinants taken by
    one batched call.
    """
    index, _, weights = grid.arrays()
    # tables[axis][k, c] = polys[c](node k of the axis' rule)
    tables = {
        axis: np.array([np.polyval(p[::-1], np.array(axis[0])) for p in polys]).T
        for axis in set(grid.axes)
    }
    matrices = np.stack(
        [tables[axis][index[:, r]] for r, axis in enumerate(grid.axes)], axis=1
    )
    dets = np.linalg.det(matrices)
    return float(_ordered_sum(weights * dets * dets))


def _alternant_root_sum(grid: QuadratureGrid, polys):
    """sum_g w_g V(y_g) prod_j p_j(y_{g,j}) times the ascending coefficients
    of prod_j (x - y_{g,j}), ``polys[j]`` on axis j; a point whose factor is
    exactly zero adds nothing."""
    index, points, weights = grid.arrays()
    factor = weights * _vandermonde(points)
    for j, (p, (nodes, _)) in enumerate(zip(polys, grid.axes)):
        factor *= np.polyval(p[::-1], np.array(nodes))[index[:, j]]
    keep = factor != 0.0
    return _ordered_sum(factor[keep, None] * _roots_to_coeffs(points[keep]))


def _squared_vandermonde_root_sum(grid: QuadratureGrid):
    """sum_g w_g V(y_g)^2 times the ascending coefficients of
    prod_j (x - y_{g,j})."""
    _, points, weights = grid.arrays()
    v = _vandermonde(points)
    return _ordered_sum((weights * v * v)[:, None] * _roots_to_coeffs(points))


def _vandermonde(points):
    """prod_{j<k} (y_k - y_j) of every row of ``points``, in the order
    j = 0.., k = j+1.. of the factors."""
    out = np.ones(len(points))
    for j in range(points.shape[1]):
        for k in range(j + 1, points.shape[1]):
            out *= points[:, k] - points[:, j]
    return out


def _roots_to_coeffs(points):
    """Ascending coefficients of prod_j (x - y_j), one row per row of
    ``points``, multiplied in by one root at a time."""
    rows, dim = points.shape
    coeffs = np.zeros((rows, dim + 1))
    coeffs[:, 0] = 1.0
    for deg in range(dim):
        head = coeffs[:, : deg + 1].copy()
        coeffs[:, 1 : deg + 2] = head
        coeffs[:, 0] = 0.0
        coeffs[:, : deg + 1] -= points[:, deg, None] * head
    return coeffs


def _ordered_sum(terms):
    """Sum of ``terms`` along the first axis, added one at a time in order
    from +0.0.  ``np.sum`` adds pairwise, which reorders the additions."""
    start = np.zeros((1,) + terms.shape[1:])
    return np.add.accumulate(np.concatenate([start, terms]), axis=0)[-1]


def _p_integral_symmetrized(sbo: SboBasis, n: int, nodes: int):
    """Single-measure form: squared Vandermonde over the second measure."""
    rule2 = gauss_rule(sbo.measure2, nodes)
    grid = QuadratureGrid((rule2,) * n, f"gauss2:{nodes}^{n}")
    acc = _squared_vandermonde_root_sum(grid)
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


def zero_report(sbo: SboBasis, n: int) -> ZeroReport:
    """Sign changes of P_{i;n} inside the first measure's support.

    The count is a certified lower bound on distinct odd-order zeros; the
    theorem guarantees at least i of them, and exactly n when i = n - 1 or
    i = n (all zeros real and simple then).  The scan covers the hull of
    both measures' truncated supports, clipped to the first measure's domain,
    with ``SCAN_CELLS`` grid cells.
    """
    if not sbo.i <= n < sbo.size:
        raise ValueError(f"degree {n} outside basis range")
    return _zero_scan([(sbo, n)])[0]


def zero_reports(bases) -> list:
    """``zero_report`` for every degree of every basis, in order.

    The bases must share their measure pair, as the bases of one
    ``build_sbos`` call do, so one scan interval serves them all and every
    polynomial is scanned by one ``sign_changes_batch`` call.
    """
    return _zero_scan([(sbo, n) for sbo in bases for n in sbo.degrees()])


def _zero_scan(items):
    if not items:
        return []
    pair = (items[0][0].measure1, items[0][0].measure2)
    if any((sbo.measure1, sbo.measure2) != pair for sbo, _ in items):
        raise ValueError("a joint zero scan needs bases of one measure pair")
    lo, hi = _scan_interval(items[0][0])
    # degree 0 is a nonzero constant: nothing to scan
    scans = iter(sign_changes_batch(
        [sbo.monic_poly(n).to_float() for sbo, n in items if n], lo, hi, SCAN_CELLS
    ))
    reports = []
    for sbo, n in items:
        count, brackets = 0, ()
        if n:
            scan = next(scans)
            count, brackets = scan.count, scan.brackets
        need_all = sbo.i in (n - 1, n)
        ok = count >= sbo.i and (not need_all or count == n)
        reports.append(ZeroReport(sbo.i, n, count, brackets, (lo, hi), ok))
    return reports
