import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockortho import (
    DegreeError,
    KindMismatch,
    Measure,
    Polynomial,
    alternant_det,
    build_sbo,
    monomial,
)
from blockortho.analysis import _scan_interval
from blockortho.polynomials import sign_changes_in

X = monomial(1)
ONE = monomial(0)


def test_ring_identity():
    assert (X + ONE) * (X - ONE) == Polynomial((-1, 0, 1))


def test_eval_constant_term():
    p = Polynomial((Fraction(-1, 2), 0, 1))
    assert p(Fraction(0)) == Fraction(-1, 2)


def test_scale_by_zero_gives_zero():
    assert monomial(3).scale(Fraction(0)).is_zero


def test_mixed_kinds_rejected():
    with pytest.raises(KindMismatch):
        Polynomial((Fraction(1), 0.5))
    with pytest.raises(KindMismatch):
        Polynomial((1.0,)) + Polynomial((Fraction(1),))


def test_parity_classification():
    assert Polynomial((Fraction(-1, 2), 0, 1)).parity() == "even"
    assert Polynomial((0, Fraction(-3, 2), 0, 1)).parity() == "odd"
    assert Polynomial((0, 1, 1)).parity() == "mixed"
    assert Polynomial(()).parity() == "zero"


@given(st.lists(st.integers(-9, 9), max_size=8))
@settings(max_examples=200, deadline=None)
def test_parity_mirrors_under_reflection(coeffs):
    p = Polynomial(tuple(Fraction(c) for c in coeffs))
    q = p.reflect()
    flips = {"even": "even", "odd": "odd", "mixed": "mixed", "zero": "zero"}
    assert flips[p.parity()] == q.parity()
    assert q.reflect() == p


def test_json_roundtrip():
    p = Polynomial((Fraction(1, 8), 0, Fraction(-7, 4), 0, 1))
    assert Polynomial.from_json(p.to_json()) == p
    assert p.to_json()["coeffs"] == ["1/8", "0", "-7/4", "0", "1"]


def test_sign_changes_simple_roots():
    p = Polynomial((Fraction(-1, 4), 0, 1))
    report = sign_changes_in(p, -1, 1)
    assert report.count == 2
    roots = sorted((a + b) / 2 for a, b in report.brackets)
    assert abs(roots[0] + Fraction(1, 2)) < Fraction(1, 10**6)
    assert abs(roots[1] - Fraction(1, 2)) < Fraction(1, 10**6)


def test_sign_changes_even_order_root_not_counted():
    assert sign_changes_in(Polynomial((0, 0, 1)), -1, 1).count == 0


def test_sign_changes_quartic():
    # roots at x^2 = (7 +- sqrt(41))/8, all four real
    p = Polynomial((Fraction(1, 8), 0, Fraction(-7, 4), 0, 1)).to_float()
    assert sign_changes_in(p, -7.0, 7.0).count == 4


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=7))
@settings(max_examples=100, deadline=None)
def test_sign_changes_never_exceed_degree(coeffs):
    p = Polynomial(tuple(Fraction(c) for c in coeffs))
    if p.is_zero:
        return
    assert sign_changes_in(p, -10, 10, resolution=256).count <= p.degree


def test_alternant_base_cases():
    assert alternant_det([Fraction(5)], [ONE]) == 1
    assert alternant_det([Fraction(0), Fraction(1)], [ONE, X]) == 1
    assert alternant_det([Fraction(k) for k in (0, 1, 2)], [ONE, X, monomial(2)]) == 2


def test_alternant_degree_mismatch():
    with pytest.raises(DegreeError):
        alternant_det([Fraction(0), Fraction(1)], [ONE, monomial(2)])


def _product_oracle(points, polys):
    out = 1
    for p in polys:
        out *= p.coeffs[-1]
    for j in range(len(points)):
        for k in range(j + 1, len(points)):
            out *= points[k] - points[j]
    return out


def test_alternant_matches_product_formula():
    rng = random.Random(7)
    for _ in range(50):
        size = rng.randint(1, 6)
        points = [Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(size)]
        polys = []
        for k in range(size):
            coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(k)]
            coeffs.append(Fraction(rng.choice([1, 2, -3, 5])))
            polys.append(Polynomial(tuple(coeffs)))
        assert alternant_det(points, polys) == _product_oracle(points, polys)


def test_alternant_matches_product_formula_float():
    rng = random.Random(8)
    for _ in range(50):
        size = rng.randint(1, 6)
        points = [rng.uniform(-3, 3) for _ in range(size)]
        polys = []
        for k in range(size):
            coeffs = [rng.uniform(-2, 2) for _ in range(k)]
            coeffs.append(rng.choice([1.0, 2.0, -3.0]))
            polys.append(Polynomial(tuple(coeffs)))
        expect = _product_oracle(points, polys)
        got = alternant_det(points, polys)
        assert abs(got - expect) <= 1e-10 * max(1.0, abs(expect))


def reference_sign_changes(p, lo, hi, resolution=2048):
    """The pointwise scan the array kernel replaced, kept as its reference:
    one ``Polynomial.__call__`` per grid node and per bisection step."""
    exact = p.kind == "exact"
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
    return len(brackets), tuple(brackets), tuple(nodes)


def assert_matches_reference(p, lo, hi, resolution):
    report = sign_changes_in(p, lo, hi, resolution=resolution)
    count, brackets, grid = reference_sign_changes(p, lo, hi, resolution)
    assert report.count == count
    # equality alone would let 0.0 == -0.0 and 1 == Fraction(1) pass; repr
    # tells them apart and would show any numpy scalar leaking out
    for got, want in ((report.brackets, brackets), (report.grid, grid)):
        assert got == want
        assert [repr(x) for x in flatten(got)] == [repr(x) for x in flatten(want)]
    return report


def flatten(values):
    for v in values:
        if isinstance(v, tuple):
            yield from v
        else:
            yield v


@st.composite
def scan_cases(draw):
    """(p, lo, hi, resolution): float or exact, often with roots on grid
    nodes or cell midpoints so both rare branches of the scan are drawn."""
    resolution = draw(st.integers(2, 64))
    lo = Fraction(draw(st.integers(-16, 8)), draw(st.sampled_from([1, 2, 3, 4])))
    width = Fraction(draw(st.integers(1, 32)), draw(st.sampled_from([1, 2, 3, 4])))
    step = width / resolution
    root = st.one_of(
        st.integers(0, resolution).map(lambda k: lo + step * k),
        st.integers(0, resolution - 1).map(lambda k: lo + step * (2 * k + 1) / 2),
        st.builds(Fraction, st.integers(-60, 60), st.integers(1, 9)),
    )
    if draw(st.booleans()):
        p = Polynomial((Fraction(draw(st.sampled_from([1, -1, 2, -3]))),))
        for r in draw(st.lists(root, max_size=6)):
            p = p * Polynomial((-r, Fraction(1)))
    else:
        coeffs = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=8))
        p = Polynomial(tuple(Fraction(c, draw(st.integers(1, 4))) for c in coeffs))
    if p.is_zero:
        p = Polynomial((Fraction(1),))
    if draw(st.booleans()):
        return p.to_float(), float(lo), float(lo + width), resolution
    return p, lo, lo + width, resolution


@given(scan_cases())
@settings(max_examples=300, deadline=None)
def test_sign_changes_match_the_pointwise_scan(case):
    assert_matches_reference(*case)


@pytest.mark.parametrize("to_kind", [lambda p: p, Polynomial.to_float])
def test_sign_changes_nudge_grid_nodes_on_roots(to_kind):
    # step 1 on [-4, 4]: the roots -4, -2, 1, 3 and 4 sit on grid nodes.
    # Nodes move by step/7, the final one inwards, so the roots at the ends
    # fall outside the nudged grid and the inner three are counted
    p = Polynomial((Fraction(1),))
    for r in (-4, -2, 1, 3, 4):
        p = p * Polynomial((Fraction(-r), Fraction(1)))
    report = assert_matches_reference(to_kind(p), -4, 4, 8)
    assert report.count == 3
    nudged = [k for k, t in enumerate(report.grid) if t != k - 4]
    assert nudged == [0, 2, 5, 7, 8]
    assert report.grid[2] > -2 and report.grid[8] < 4


@pytest.mark.parametrize("to_kind", [lambda p: p, Polynomial.to_float])
@pytest.mark.parametrize(
    "roots, expect_width",
    [
        # the first midpoint of cell [0, 1/2] is the root 1/4: the bracket is
        # recentred on it and keeps shrinking around it
        ((Fraction(1, 4),), None),
        # recentred on 1/4, [1/8, 3/8] also holds 5/16, so its ends agree in
        # sign and bisection stops at width 1/4
        ((Fraction(1, 4), Fraction(5, 16), Fraction(7, 16)), Fraction(1, 4)),
        # recentred on 1/4, the end 3/8 is itself a root
        ((Fraction(1, 4), Fraction(3, 8), Fraction(7, 16)), Fraction(1, 4)),
    ],
)
def test_sign_changes_midpoint_on_a_root(to_kind, roots, expect_width):
    p = Polynomial((Fraction(1),))
    for r in roots:
        p = p * Polynomial((-r, Fraction(1)))
    report = assert_matches_reference(to_kind(p), 0, 1, 2)
    (a, b), = report.brackets
    assert (a + b) / 2 == Fraction(1, 4)
    if expect_width is None:
        assert b - a <= 1e-12
    else:
        assert b - a == expect_width


@pytest.mark.parametrize("pair", ["hermite", "laguerre"])
def test_sign_changes_match_on_float_bases(pair):
    if pair == "hermite":
        m1, m2 = Measure.gaussian(1), Measure.gaussian(2)
    else:
        m1, m2 = Measure.gamma_weight(1, 1), Measure.gamma_weight(2, 1)
    for i in (3, 6, 9):
        basis = build_sbo(m1, m2, i, 12, backend="float", check=False)
        lo, hi = _scan_interval(basis)
        for n in basis.degrees():
            if n:
                assert_matches_reference(basis.monic_poly(n).to_float(), lo, hi, 4096)
