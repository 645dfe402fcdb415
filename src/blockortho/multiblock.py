"""Three-subspace block orthogonality and common orthogonal complements.

Given two constraint blocks with their own cross inner products, a third
complementary subspace orthogonal to both exists iff a stacked metric system
is consistent.  The classification (unique / none / parametric family) is a
rank comparison between that matrix and its augmented columns, done in exact
arithmetic whenever the moments are rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import gso, linalg
from .errors import DependentBasis, NonPositiveParameter
from .measures import Measure, inner_product_mu, moments
from .polynomials import Polynomial, combine, monomial
from .scalars import EXACT, one, to_fraction

UNIQUE = "unique"
NO_SOLUTION = "no_solution"
FAMILY = "family"

RANK_GAP = 1e-10


@dataclass(frozen=True)
class ThreeSubspaceProblem:
    """Bases of two constraint blocks inside a bigger polynomial space.

    ``basis`` lists N polynomials: the first n1 span the first block, the
    next n2 the second, the rest complete the space.  ``inner_13`` weighs
    orthogonality of the first block against the unknown subspace,
    ``inner_23`` the second block.  ``inner_12`` is carried for provenance
    when the second block was itself built by orthogonalization.
    """

    n1: int
    n2: int
    basis: tuple
    inner_13: Measure
    inner_23: Measure
    inner_12: Measure = None

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        n = len(self.basis)
        if self.n1 + self.n2 >= n:
            raise ValueError("constraint blocks must leave room for a third subspace")
        if any(p.degree >= n for p in self.basis):
            raise ValueError("basis polynomials must live inside the space")
        columns = [[p.coeff(k) for p in self.basis] for k in range(n)]
        if all(p.kind == EXACT for p in self.basis):
            rank = linalg.rank_exact(columns)
        else:
            rank = linalg.rank_float(columns)[0]
        if rank != n:
            raise DependentBasis("basis polynomials are linearly dependent")

    @property
    def size(self):
        return len(self.basis)


@dataclass(frozen=True)
class ThirdSubspaceSolution:
    classification: str
    free_parameters: int
    basis: tuple
    particular: tuple
    kernel: tuple
    rank: int
    augmented_ranks: tuple
    svd_gap: float = None


def solve_third_subspace(problem: ThreeSubspaceProblem, backend: str = EXACT) -> ThirdSubspaceSolution:
    """Classify and construct the third block orthogonal subspace.

    Builds the stacked metric matrix (cross moments of each constraint block
    against the completing vectors), solves one linear system per completing
    vector, and classifies by rank comparison.  The rank of the stacked
    matrix always lies between max(n1, n2) and n1 + n2 because its two
    diagonal blocks are genuine Gram matrices.
    """
    n1, n2, n = problem.n1, problem.n2, problem.size
    order = 2 * (n - 1)
    mu13 = moments(problem.inner_13, order, backend=backend)
    mu23 = moments(problem.inner_23, order, backend=backend)
    basis = problem.basis
    n_c = n1 + n2

    def metric_row(j, mu):
        return [inner_product_mu(mu, basis[j], basis[m]) for m in range(n_c)]

    stacked = [metric_row(j, mu13) for j in range(n1)]
    stacked += [metric_row(n1 + j, mu23) for j in range(n2)]
    rhs_columns = []
    for extra in range(n_c, n):
        col = [inner_product_mu(mu13, basis[j], basis[extra]) for j in range(n1)]
        col += [inner_product_mu(mu23, basis[n1 + j], basis[extra]) for j in range(n2)]
        rhs_columns.append(col)

    if backend == EXACT:
        rank = linalg.rank_exact(stacked)
        aug_ranks = tuple(
            linalg.rank_exact([row + [col[j]] for j, row in enumerate(stacked)])
            for col in rhs_columns
        )
        gap = None
    else:
        rank, gap = linalg.rank_float(stacked, RANK_GAP)
        aug_ranks = tuple(
            linalg.rank_float(
                [list(row) + [col[j]] for j, row in enumerate(stacked)], RANK_GAP
            )[0]
            for col in rhs_columns
        )
    if not max(n1, n2) <= rank <= n_c:
        raise DependentBasis(
            f"stacked metric rank {rank} violates the Gram-minor bounds"
        )

    if any(ar > rank for ar in aug_ranks):
        return ThirdSubspaceSolution(
            NO_SOLUTION, 0, (), (), (), rank, aug_ranks, gap
        )

    solutions = []
    for col in rhs_columns:
        if backend == EXACT:
            sol = linalg.solve_exact(stacked, [-x for x in col])
        else:
            sol, *_ = np.linalg.lstsq(
                np.array(stacked, dtype=float), -np.array(col, dtype=float), rcond=None
            )
            sol = [float(x) for x in sol]
        solutions.append(sol)
    particular = tuple(
        _combine(basis, sol, n_c + k) for k, sol in enumerate(solutions)
    )
    if rank == n_c:
        return ThirdSubspaceSolution(
            UNIQUE, 0, particular, particular, (), rank, aug_ranks, gap
        )
    if backend == EXACT:
        kernel_vectors = linalg.nullspace_exact(stacked)
    else:
        _, _, vt = np.linalg.svd(np.array(stacked, dtype=float))
        kernel_vectors = [list(map(float, v)) for v in vt[rank:]]
    kernel = tuple(_combine(basis, vec, None) for vec in kernel_vectors)
    return ThirdSubspaceSolution(
        FAMILY, n_c - rank, (), particular, kernel, rank, aug_ranks, gap
    )


def _combine(basis, coefficients, extra_index):
    acc = combine(coefficients, basis)
    if extra_index is not None:
        acc = acc + basis[extra_index]
    return acc


def appendix_b_problem(z12, z23, z13, symmetric12: bool = False):
    """The smallest nontrivial instance: two one-dimensional blocks in the
    cubic space, with gamma-family cross weights.

    The first block is the constants; the second is the degree-one
    polynomial orthogonal to them under the (1,2) inner product, which fixes
    its constant term at -z12 (or 0 when that inner product is symmetric
    about the origin).
    """
    z23, z13 = to_fraction(z23), to_fraction(z13)
    if z23 <= 0 or z13 <= 0:
        raise NonPositiveParameter("all weight parameters must be positive")
    if symmetric12:
        a01 = Fraction(0)
        inner_12 = None
    else:
        z12 = to_fraction(z12)
        if z12 <= 0:
            raise NonPositiveParameter("all weight parameters must be positive")
        a01 = -z12
        inner_12 = Measure.gamma_weight(1, z12)
    basis = (
        Polynomial((Fraction(1),)),
        Polynomial((a01, Fraction(1))),
        monomial(2),
    )
    return ThreeSubspaceProblem(
        1,
        1,
        basis,
        Measure.gamma_weight(1, z13),
        Measure.gamma_weight(1, z23),
        inner_12,
    )


def appendix_b_laguerre(z12, z23, z13, symmetric12: bool = False) -> ThirdSubspaceSolution:
    """Solve the one-plus-one-block cubic instance exactly."""
    problem = appendix_b_problem(z12, z23, z13, symmetric12=symmetric12)
    return solve_third_subspace(problem, backend=EXACT)


def common_orthogonal_complement(
    subspace_polys, measure_a: Measure, measure_b: Measure, n_dim: int, backend: str = EXACT
):
    """Vectors orthogonal to a subspace under two measures at once.

    Returns (dimension, basis, rank) where rank counts the independent
    constraint-subspace components that the second complement picks up when
    projected with the first measure; the intersection has dimension
    N - N1 - rank.
    """
    from .block import build_general_bo

    subspace = tuple(subspace_polys)
    n1 = len(subspace)
    bo_b = build_general_bo(measure_b, measure_b, subspace, n_dim, backend=backend)
    mu_a = moments(measure_a, 2 * (n_dim - 1), backend=backend)

    # orthogonal basis of the subspace under measure a, for projecting
    sub_gram = [[inner_product_mu(mu_a, p, q) for q in subspace] for p in subspace]
    sub_res = gso.gram_schmidt(sub_gram, [one(backend)] * n1)
    sub_ortho = [combine(sub_res.vector(col), subspace) for col in range(n1)]

    def project_onto_subspace(p):
        return combine(
            [inner_product_mu(mu_a, e, p) / h for e, h in zip(sub_ortho, sub_res.norms)],
            sub_ortho,
        )

    carried = [project_onto_subspace(eps) for eps in bo_b.first_stage]
    coeff_rows = [[u.coeff(k) for k in range(n_dim)] for u in carried]
    by_column = linalg.transpose(coeff_rows)
    if backend == EXACT:
        rank = linalg.rank_exact(coeff_rows)
        kernel = linalg.nullspace_exact(by_column)
    else:
        rank, _ = linalg.rank_float(coeff_rows)
        _, _, vt = np.linalg.svd(np.array(by_column, dtype=float))
        kernel = [list(map(float, v)) for v in vt[rank:]]
    if rank > min(n1, n_dim - n1):
        raise DependentBasis("projection rank exceeds its structural bound")
    basis = tuple(combine(vec, bo_b.first_stage) for vec in kernel)
    return n_dim - n1 - rank, basis, rank
