"""The batched quadrature sums against per-point loop references.

``reference_points`` is the point-by-point walk of a ``QuadratureGrid``
(its axes in ``itertools.product`` order, each weight multiplied axis by
axis), and the three reference sums are the loops ``verify_z_integral``,
``verify_p_integral`` and ``_p_integral_symmetrized`` ran over it, one
scalar ``np.polyval`` and one ``np.linalg.det`` per point; all are kept here
as they were before the sums became array code.  The batched sums must equal
them bit for bit.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockortho import QuadratureGrid, analysis, build_sbos


def reference_points(grid):
    """Iterate (point_tuple, weight) over the tensor grid."""
    node_lists = [axis[0] for axis in grid.axes]
    weight_lists = [axis[1] for axis in grid.axes]
    for combo in itertools.product(*(range(len(n)) for n in node_lists)):
        point = tuple(node_lists[d][k] for d, k in enumerate(combo))
        weight = 1.0
        for d, k in enumerate(combo):
            weight *= weight_lists[d][k]
        yield point, weight


def reference_vandermonde(ys):
    out = 1.0
    for j in range(len(ys)):
        for k in range(j + 1, len(ys)):
            out *= ys[k] - ys[j]
    return out


def reference_roots_to_coeffs(ys):
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


def reference_squared_alternant_sum(grid, polys):
    total = 0.0
    for point, weight in reference_points(grid):
        matrix = np.array([[np.polyval(p[::-1], y) for p in polys] for y in point])
        det = float(np.linalg.det(matrix))
        total += weight * det * det
    return total


def reference_alternant_root_sum(grid, polys):
    acc = np.zeros(len(grid.axes) + 1)
    for point, weight in reference_points(grid):
        ys = np.array(point)
        factor = weight * reference_vandermonde(ys)
        for j, y in enumerate(ys):
            factor *= np.polyval(polys[j][::-1], y)
        if factor == 0.0:
            continue
        acc += factor * reference_roots_to_coeffs(ys)
    return acc


def reference_squared_vandermonde_root_sum(grid):
    acc = np.zeros(len(grid.axes) + 1)
    for point, weight in reference_points(grid):
        ys = np.array(point)
        v = reference_vandermonde(ys)
        acc += weight * v * v * reference_roots_to_coeffs(ys)
    return acc


def _bits(value):
    """The exact bits of a float or a float array (so -0.0 and 0.0 differ)."""
    return np.asarray(value, dtype=float).tobytes()


# few distinct node values, 0.0 among them, so points with two equal
# coordinates (a zero Vandermonde factor) and roots of x turn up often
node_values = st.sampled_from([-1.5, -0.25, 0.0, 0.5, 1.0, 2.75]) | st.floats(-3, 3)
weight_values = st.floats(1e-3, 2.0)
coefficients = st.sampled_from([0.0, -1.0, 2.0, -0.5]) | st.floats(-4, 4)


@st.composite
def rules(draw):
    size = draw(st.integers(1, 4))
    nodes = draw(st.lists(node_values, min_size=size, max_size=size))
    weights = draw(st.lists(weight_values, min_size=size, max_size=size))
    return tuple(nodes), tuple(weights)


@st.composite
def grids(draw):
    """1-3 axes, each taking one of up to two rules."""
    pool = draw(st.lists(rules(), min_size=1, max_size=2))
    dim = draw(st.integers(1, 3))
    return QuadratureGrid(tuple(draw(st.sampled_from(pool)) for _ in range(dim)))


def polynomials(count):
    return st.lists(
        st.lists(coefficients, min_size=1, max_size=4).map(np.array),
        min_size=count,
        max_size=count,
    )


# grids with exactly zero factors: x at the node 0.0 and equal coordinates;
# and equal huge coordinates, whose product of roots overflows to inf (tiny
# constant polynomials keep the other terms finite), so that a zero-factor
# term added anyway would be 0 * inf = nan
ZERO_FACTOR_CASES = [
    (
        QuadratureGrid((((0.0, 1.0), (0.5, 0.5)), ((0.0, 2.0), (0.25, 0.75)))),
        [np.array([0.0, 1.0]), np.array([-1.0, 0.0, 1.0])],
    ),
    (QuadratureGrid((((1e200, 1.0), (0.5, 0.5)),) * 2), [np.array([1e-200])] * 2),
]


@settings(max_examples=150, deadline=None)
@given(grids())
def test_arrays_walk_the_grid_in_product_order(grid):
    index, points, weights = grid.arrays()
    walked = list(reference_points(grid))
    assert index.shape == (len(walked), len(grid.axes))
    assert _bits(points) == _bits([point for point, _ in walked])
    assert _bits(weights) == _bits([weight for _, weight in walked])
    for d, (nodes, _) in enumerate(grid.axes):
        assert _bits(np.array(nodes)[index[:, d]]) == _bits(points[:, d])


# equal coordinates make an alternant singular, on which numpy's det warns
@pytest.mark.filterwarnings("ignore:divide by zero encountered in det")
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_squared_alternant_sum_equals_the_point_loop(data):
    grid = data.draw(grids())
    polys = data.draw(polynomials(len(grid.axes)))
    assert _bits(analysis._squared_alternant_sum(grid, polys)) == _bits(
        reference_squared_alternant_sum(grid, polys)
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_alternant_root_sum_equals_the_point_loop(data):
    grid = data.draw(grids())
    polys = data.draw(polynomials(len(grid.axes)))
    assert _bits(analysis._alternant_root_sum(grid, polys)) == _bits(
        reference_alternant_root_sum(grid, polys)
    )


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("grid, polys", ZERO_FACTOR_CASES)
def test_alternant_root_sum_skips_exactly_zero_factors(grid, polys):
    factors = []
    for point, weight in reference_points(grid):
        factor = weight * reference_vandermonde(point)
        for p, y in zip(polys, point):
            factor *= np.polyval(p[::-1], y)
        factors.append(factor)
    assert 0.0 in factors and any(factors)
    acc = analysis._alternant_root_sum(grid, polys)
    assert np.isfinite(acc).all()
    assert _bits(acc) == _bits(reference_alternant_root_sum(grid, polys))


@settings(max_examples=150, deadline=None)
@given(grids())
def test_squared_vandermonde_root_sum_equals_the_point_loop(grid):
    assert _bits(analysis._squared_vandermonde_root_sum(grid)) == _bits(
        reference_squared_vandermonde_root_sum(grid)
    )


def _report_bits(report):
    return {k: _bits(v) if isinstance(v, (float, list)) else v for k, v in report.items()}


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("pair", ["hermite_pair", "laguerre_pair"])
def test_integral_reports_equal_those_of_the_point_loops(monkeypatch, request, pair, backend):
    bases = build_sbos(*request.getfixturevalue(pair), range(3), 4, backend=backend)
    cases = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]

    def reports():
        return [
            (analysis.verify_z_integral(bases[i], i, n), analysis.verify_p_integral(bases[i], i, n))
            for i, n in cases
        ]

    batched = reports()
    monkeypatch.setattr(analysis, "_squared_alternant_sum", reference_squared_alternant_sum)
    monkeypatch.setattr(analysis, "_alternant_root_sum", reference_alternant_root_sum)
    monkeypatch.setattr(
        analysis, "_squared_vandermonde_root_sum", reference_squared_vandermonde_root_sum
    )
    for (z, p), (z_ref, p_ref) in zip(batched, reports()):
        assert _report_bits(z) == _report_bits(z_ref)
        assert _report_bits(p) == _report_bits(p_ref)
