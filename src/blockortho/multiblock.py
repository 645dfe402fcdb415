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
from .block import build_general_bo
from .errors import DependentBasis, NonPositiveParameter
from .measures import Measure, gram_of, moments
from .polynomials import Polynomial, columns_of, from_columns, monomial
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
    columns = columns_of(problem.basis, n)
    n_c = n1 + n2
    # the first block's rows are taken under (1,3), the second block's under (2,3)
    block1, block2 = [row[:n1] for row in columns], [row[n1:n_c] for row in columns]
    metric = gram_of(moments(problem.inner_13, order, backend=backend), block1, columns)
    metric += gram_of(moments(problem.inner_23, order, backend=backend), block2, columns)
    stacked = [row[:n_c] for row in metric]
    rhs_columns = [[row[extra] for row in metric] for extra in range(n_c, n)]

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
    # particular k is basis[n_c + k] plus the solved combination of the blocks
    unit = linalg.identity(n - n_c, backend)
    particular = from_columns(linalg.mat_mul(columns, linalg.transpose(solutions) + unit))
    if rank == n_c:
        return ThirdSubspaceSolution(
            UNIQUE, 0, particular, particular, (), rank, aug_ranks, gap
        )
    if backend == EXACT:
        kernel_vectors = linalg.nullspace_exact(stacked)
    else:
        _, _, vt = np.linalg.svd(np.array(stacked, dtype=float))
        kernel_vectors = [list(map(float, v)) for v in vt[rank:]]
    block_columns = [row[:n_c] for row in columns]
    kernel = from_columns(linalg.mat_mul(block_columns, linalg.transpose(kernel_vectors)))
    return ThirdSubspaceSolution(
        FAMILY, n_c - rank, (), particular, kernel, rank, aug_ranks, gap
    )


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
    subspace = tuple(subspace_polys)
    n1 = len(subspace)
    bo_b = build_general_bo(measure_b, measure_b, subspace, n_dim, backend=backend)
    mu_a = moments(measure_a, 2 * (n_dim - 1), backend=backend)

    # orthogonal basis E of the subspace under measure a, for projecting
    sub_cols = columns_of(subspace, n_dim)
    sub_res = gso.gram_schmidt(gram_of(mu_a, sub_cols), [one(backend)] * n1)
    ortho = linalg.mat_mul(sub_cols, sub_res.coeffs)
    # column j: the projection sum_e e (e, eps_j)_a / h_e of first-stage vector j
    first = columns_of(bo_b.first_stage, n_dim)
    overlaps = gram_of(mu_a, ortho, first)
    weights = [[x / h for x in row] for row, h in zip(overlaps, sub_res.norms)]
    by_column = linalg.mat_mul(ortho, weights)
    coeff_rows = linalg.transpose(by_column)
    if backend == EXACT:
        rank = linalg.rank_exact(coeff_rows)
        kernel = linalg.nullspace_exact(by_column)
    else:
        rank, _ = linalg.rank_float(coeff_rows)
        _, _, vt = np.linalg.svd(np.array(by_column, dtype=float))
        kernel = [list(map(float, v)) for v in vt[rank:]]
    if rank > min(n1, n_dim - n1):
        raise DependentBasis("projection rank exceeds its structural bound")
    basis = from_columns(linalg.mat_mul(first, linalg.transpose(kernel)))
    return n_dim - n1 - rank, basis, rank
