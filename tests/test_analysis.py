import math
from fractions import Fraction

import pytest

from blockortho import (
    DimensionCap,
    InsufficientNodes,
    Measure,
    build_sbo,
    build_sbos,
    gauss_rule,
    verify_p_integral,
    verify_z_integral,
    zero_report,
    zero_reports,
)
from blockortho.measures import moments


def test_gauss_rule_integrates_moments_exactly():
    for measure in (Measure.gaussian(1), Measure.gamma_weight(2, 1)):
        nodes, weights = gauss_rule(measure, 6)
        seq = moments(measure, 11)
        for order in range(12):
            value = sum(w * x**order for x, w in zip(nodes, weights))
            assert abs(value - float(seq.mu[order])) <= 1e-10 * max(
                1.0, abs(float(seq.mu[order]))
            )


def test_gauss_rule_single_node():
    nodes, weights = gauss_rule(Measure.gamma_weight(1, 1), 1)
    assert abs(nodes[0] - 1.0) < 1e-12
    assert abs(weights[0] - 1.0) < 1e-12


def test_z_integral_one_dimensional_case(hermite_pair):
    basis = build_sbo(*hermite_pair, 2, 4)
    report = verify_z_integral(basis, 2, 2)
    assert report["rel_err"] <= 1e-12
    assert abs(report["rhs"] - float(Fraction(3, 16))) < 1e-15


def test_z_integral_hermite_block(hermite_pair):
    basis = build_sbo(*hermite_pair, 2, 4)
    assert verify_z_integral(basis, 2, 3)["rel_err"] <= 1e-10


def test_z_integral_monomial_mode(hermite_pair):
    basis = build_sbo(*hermite_pair, 0, 4)
    assert verify_z_integral(basis, 0, 2, monomial_mode=True)["rel_err"] <= 1e-10


def test_z_integral_node_doubling_stability(laguerre_pair):
    basis = build_sbo(*laguerre_pair, 1, 4)
    first = verify_z_integral(basis, 1, 3, nodes=5)
    second = verify_z_integral(basis, 1, 3, nodes=10)
    assert abs(first["lhs"] - second["lhs"]) <= 1e-12 * max(1.0, abs(first["lhs"]))


def test_z_integral_sub_block(hermite_pair):
    # determinants of trailing sub-blocks of the metric have the same
    # integral form; check one window strictly inside the basis
    basis = build_sbo(*hermite_pair, 1, 6)
    report = verify_z_integral(basis, 3, 4)
    assert report["rel_err"] <= 1e-10
    assert report["pass"]


def test_z_integral_caps():
    basis = build_sbo(Measure.gaussian(1), Measure.gaussian(2), 0, 6)
    with pytest.raises(DimensionCap):
        verify_z_integral(basis, 0, 4)
    with pytest.raises(InsufficientNodes):
        verify_z_integral(basis, 0, 2, nodes=2)


def test_p_integral_first_degrees(hermite_pair, laguerre_pair):
    for pair in (hermite_pair, laguerre_pair):
        basis = build_sbo(*pair, 0, 3)
        report = verify_p_integral(basis, 0, 1)
        assert report["rel_err"] <= 1e-10
        assert report["rel_err_symmetrized"] <= 1e-10


def test_p_integral_mixed_measures(hermite_pair):
    basis = build_sbo(*hermite_pair, 1, 4)
    report = verify_p_integral(basis, 1, 2)
    assert report["rel_err"] <= 1e-10
    # the quadratic it reproduces collapses to the neighbor identity
    assert report["reference"] == [-0.5, 0.0, 1.0]


def test_p_integral_three_dimensional(hermite_pair):
    basis = build_sbo(*hermite_pair, 2, 5)
    report = verify_p_integral(basis, 2, 3)
    assert report["rel_err"] <= 1e-10
    assert report["reference"] == [0.0, -1.5, 0.0, 1.0]


def test_p_integral_symmetrized_agreement(laguerre_pair):
    basis = build_sbo(*laguerre_pair, 0, 3)
    report = verify_p_integral(basis, 0, 2)
    assert report["rel_err"] <= 1e-10
    assert report["rel_err_symmetrized"] <= 1e-10


def test_p_integral_caps(hermite_pair):
    basis = build_sbo(*hermite_pair, 3, 8)
    with pytest.raises(DimensionCap):
        verify_p_integral(basis, 3, 4)
    basis0 = build_sbo(*hermite_pair, 0, 6)
    with pytest.raises(DimensionCap):
        verify_p_integral(basis0, 0, 4)


def test_zero_report_laguerre_quadratic(laguerre_pair):
    basis = build_sbo(*laguerre_pair, 1, 3)
    report = zero_report(basis, 2)
    assert report.count == 2
    assert report.satisfies_theorem
    # both roots positive: x = (5 +- sqrt(17)) / 4
    lo = (5 - math.sqrt(17)) / 4
    hi = (5 + math.sqrt(17)) / 4
    roots = sorted((a + b) / 2 for a, b in report.brackets)
    assert abs(roots[0] - lo) < 1e-9 and abs(roots[1] - hi) < 1e-9


def test_zero_report_diagonal_cases(hermite_pair, laguerre_pair):
    for pair in (hermite_pair, laguerre_pair):
        for n in range(1, 7):
            basis = build_sbo(*pair, n, 8)
            report = zero_report(basis, n)
            assert report.count == n
            assert report.satisfies_theorem


def test_zero_report_quartic(hermite_pair):
    basis = build_sbo(*hermite_pair, 2, 5)
    report = zero_report(basis, 4)
    assert report.count == 4
    assert report.satisfies_theorem


def test_zero_theorem_never_violated(hermite_pair, laguerre_pair):
    for pair in (hermite_pair, laguerre_pair):
        for i in range(7):
            basis = build_sbo(*pair, i, 7)
            for n in basis.degrees():
                assert zero_report(basis, n).satisfies_theorem


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_zero_reports_cover_every_degree_of_a_shared_build(hermite_pair, laguerre_pair, backend):
    bases = build_sbos(*laguerre_pair, range(6), 6, backend=backend)
    reports = zero_reports(bases.values())
    assert [(r.i, r.n) for r in reports] == [(i, n) for i in range(6) for n in range(i, 6)]
    assert reports == [zero_report(b, n) for b in bases.values() for n in b.degrees()]
    assert all(r.satisfies_theorem for r in reports)
    assert zero_reports([]) == []
    with pytest.raises(ValueError):
        zero_reports([bases[2], build_sbo(*hermite_pair, 2, 6)])
