from fractions import Fraction

import pytest

from blockortho import (
    DependentBasis,
    Measure,
    NonPositiveParameter,
    Polynomial,
    ThreeSubspaceProblem,
    appendix_b_laguerre,
    appendix_b_problem,
    common_orthogonal_complement,
    inner_product_mu,
    monomial,
    solve_third_subspace,
)
from blockortho.linalg import rank_float
from blockortho.measures import moments
from blockortho.multiblock import FAMILY, NO_SOLUTION, UNIQUE


def _check_solution_orthogonality(problem, polys):
    mu13 = moments(problem.inner_13, 2 * (problem.size - 1))
    mu23 = moments(problem.inner_23, 2 * (problem.size - 1))
    for eps in polys:
        for j in range(problem.n1):
            assert inner_product_mu(mu13, problem.basis[j], eps) == 0
        for j in range(problem.n2):
            assert inner_product_mu(mu23, problem.basis[problem.n1 + j], eps) == 0


def test_all_symmetric_measures_unique():
    sym = Measure.gaussian(1)
    sym2 = Measure.gaussian(2)
    sym3 = Measure.gaussian(3)
    problem = ThreeSubspaceProblem(
        1, 1, (monomial(0), monomial(1), monomial(2)), inner_13=sym2, inner_23=sym3
    )
    solution = solve_third_subspace(problem)
    assert solution.classification == UNIQUE
    mu13 = moments(sym2, 4)
    # the quadratic shifts by the second-moment ratio of the (1,3) weight
    expect = Polynomial((-mu13[2], 0, 1))
    assert solution.basis == (expect,)
    _check_solution_orthogonality(problem, solution.basis)
    assert sym.symmetric  # the (1,2) product never enters the system


def test_gamma_family_unique_case():
    solution = appendix_b_laguerre(1, 2, 3)
    assert solution.classification == UNIQUE
    assert solution.rank == 2
    assert solution.basis == (Polynomial((6, -6, 1)),)
    problem = appendix_b_problem(1, 2, 3)
    _check_solution_orthogonality(problem, solution.basis)


def test_gamma_family_no_solution_case():
    solution = appendix_b_laguerre(1, 2, 4)
    assert solution.classification == NO_SOLUTION
    assert solution.rank == 1
    assert solution.augmented_ranks == (2,)


def test_mixed_family_case():
    for z13 in (Fraction(4), Fraction(7, 2)):
        z23 = z13 - 1
        solution = appendix_b_laguerre(None, z23, z13, symmetric12=True)
        assert solution.classification == FAMILY
        assert solution.free_parameters == 1
        particular = solution.particular[0]
        assert particular == Polynomial((-z13 * (z13 + 1), 0, 1))
        kernel = solution.kernel[0]
        assert kernel.monic() == Polynomial((-z13, 1))
        # any parameter value must satisfy both constraints
        problem = appendix_b_problem(None, z23, z13, symmetric12=True)
        for t in (Fraction(0), Fraction(1), Fraction(-7, 3)):
            candidate = particular + kernel.scale(t)
            _check_solution_orthogonality(problem, (candidate,))


def test_degenerate_consistent_case_is_impossible_for_positive_parameters():
    # whenever the system degenerates with a genuine (1,2) gamma weight, the
    # two equations are inconsistent, so a one-parameter family never occurs
    values = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(5, 2), Fraction(4)]
    for z12 in values:
        for z23 in values:
            for z13 in values:
                solution = appendix_b_laguerre(z12, z23, z13)
                assert solution.classification in (UNIQUE, NO_SOLUTION)


def test_positive_parameter_guard():
    with pytest.raises(NonPositiveParameter):
        appendix_b_laguerre(0, 2, 3)
    with pytest.raises(NonPositiveParameter):
        appendix_b_laguerre(1, -1, 3)


def test_rank_bounds_and_larger_blocks():
    problem = ThreeSubspaceProblem(
        2,
        1,
        tuple(monomial(k) for k in range(5)),
        inner_13=Measure.gamma_weight(1, 2),
        inner_23=Measure.gamma_weight(1, 1),
    )
    solution = solve_third_subspace(problem)
    assert max(2, 1) <= solution.rank <= 3
    if solution.classification == UNIQUE:
        assert len(solution.basis) == 2
        _check_solution_orthogonality(problem, solution.basis)


def test_classification_invariant_under_basis_rescaling():
    base = appendix_b_problem(1, 2, 4)
    scaled = ThreeSubspaceProblem(
        1,
        1,
        (base.basis[0].scale(Fraction(3)), base.basis[1].scale(Fraction(-2)), base.basis[2]),
        inner_13=base.inner_13,
        inner_23=base.inner_23,
    )
    assert (
        solve_third_subspace(base).classification
        == solve_third_subspace(scaled).classification
        == NO_SOLUTION
    )


def test_dependent_basis_rejected():
    with pytest.raises(DependentBasis):
        ThreeSubspaceProblem(
            1,
            1,
            (monomial(0), monomial(0).scale(Fraction(2)), monomial(2)),
            inner_13=Measure.gaussian(1),
            inner_23=Measure.gaussian(2),
        )


def test_float_backend_classification():
    problem = appendix_b_problem(1, 2, 4)
    fl = ThreeSubspaceProblem(
        1,
        1,
        tuple(p.to_float() for p in problem.basis),
        inner_13=problem.inner_13,
        inner_23=problem.inner_23,
    )
    solution = solve_third_subspace(fl, backend="float")
    assert solution.classification == NO_SOLUTION
    assert solution.svd_gap is not None


def _float_problem(problem):
    return ThreeSubspaceProblem(
        problem.n1,
        problem.n2,
        tuple(p.to_float() for p in problem.basis),
        inner_13=problem.inner_13,
        inner_23=problem.inner_23,
    )


@pytest.mark.parametrize(
    "z12, z23, z13, symmetric12",
    [(1, 2, 3, False), (None, 3, 4, True), (1, 2, 4, False)],
    ids=["unique", "family", "no_solution"],
)
def test_float_third_subspace_agrees_with_exact(z12, z23, z13, symmetric12):
    problem = appendix_b_problem(z12, z23, z13, symmetric12=symmetric12)
    exact = solve_third_subspace(problem)
    fl_problem = _float_problem(problem)
    fl = solve_third_subspace(fl_problem, backend="float")
    shape = ("classification", "free_parameters", "rank", "augmented_ranks")
    assert [getattr(fl, k) for k in shape] == [getattr(exact, k) for k in shape]
    assert (len(fl.particular), len(fl.kernel)) == (len(exact.particular), len(exact.kernel))
    for a, b in zip(fl.basis, exact.basis):
        coeffs = [float(c) for c in b.coeffs]
        assert a.degree == b.degree
        assert max(abs(x - y) for x, y in zip(a.coeffs, coeffs)) <= 1e-10 * max(map(abs, coeffs))
    # lstsq and rref may pick different particular solutions: check the constraints
    order = 2 * (problem.size - 1)
    n1, n2 = problem.n1, problem.n2
    blocks = [
        (moments(problem.inner_13, order, "float"), fl_problem.basis[:n1]),
        (moments(problem.inner_23, order, "float"), fl_problem.basis[n1 : n1 + n2]),
    ]
    for eps in fl.particular + fl.kernel:
        for mu, constraints in blocks:
            scale = max(map(abs, eps.coeffs)) * max(map(abs, mu.mu))
            for p in constraints:
                assert abs(inner_product_mu(mu, p, eps)) <= 1e-10 * scale


@pytest.mark.parametrize(
    "subspace, measure_a, measure_b, n_dim",
    [
        ([monomial(0)], Measure.gaussian(1), Measure.gaussian(1), 3),
        ([monomial(0)], Measure.gaussian(1), Measure.gaussian(2), 3),
        ([monomial(0), monomial(1)], Measure.gamma_weight(1, 1), Measure.gamma_weight(1, 3), 3),
        ([monomial(1)], Measure.gamma_weight(1, 1), Measure.gamma_weight(2, 1), 4),
    ],
    ids=["same", "symmetric", "generic", "laguerre"],
)
def test_float_common_complement_agrees_with_exact(subspace, measure_a, measure_b, n_dim):
    dim, basis, rank = common_orthogonal_complement(subspace, measure_a, measure_b, n_dim)
    fl_subspace = [p.to_float() for p in subspace]
    fl = common_orthogonal_complement(fl_subspace, measure_a, measure_b, n_dim, backend="float")
    assert (fl[0], len(fl[1]), fl[2]) == (dim, len(basis), rank)
    # the float kernel is orthonormal and the exact one reduced: compare what they span
    rows = [[float(p.coeff(k)) for k in range(n_dim)] for p in basis + fl[1]]
    assert rank_float(rows, 1e-10)[0] == dim


def test_common_complement_same_measure():
    m = Measure.gaussian(1)
    dim, basis, rank = common_orthogonal_complement([monomial(0)], m, m, 3)
    assert (dim, rank) == (2, 0)
    assert len(basis) == 2


def test_common_complement_symmetric_pair():
    dim, basis, rank = common_orthogonal_complement(
        [monomial(0)], Measure.gaussian(1), Measure.gaussian(2), 3
    )
    assert rank == 1
    assert dim == 1
    assert basis[0].monic() == monomial(1)
    mu_a = moments(Measure.gaussian(1), 4)
    mu_b = moments(Measure.gaussian(2), 4)
    for v in basis:
        assert inner_product_mu(mu_a, monomial(0), v) == 0
        assert inner_product_mu(mu_b, monomial(0), v) == 0


def test_common_complement_generic_pair_vanishes():
    dim, basis, rank = common_orthogonal_complement(
        [monomial(0), monomial(1)],
        Measure.gamma_weight(1, 1),
        Measure.gamma_weight(1, 3),
        3,
    )
    assert rank == 1
    assert dim == 0
    assert basis == ()
