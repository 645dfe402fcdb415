"""Orthogonal projectors onto the constraint subspace and its complement.

Projectors act on monomial coefficient columns and are materialized as
explicit matrices, which makes idempotence and the equivalence of the two
construction routes directly testable.  The composite inner product has no
quadrature path on purpose: it only exists through the split into the two
subspaces.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg, scalars
from .block import SboBasis, build_sbo
from .measures import Measure, hankel_matrix, inner_product_mu, moments
from .polynomials import Polynomial
from .scalars import EXACT
from .standard import StandardBasis

ONTO_CONSTRAINT = "constraint"
ONTO_COMPLEMENT = "complement"


@dataclass(frozen=True)
class ProjectorMatrix:
    entries: tuple
    label: str

    @property
    def size(self):
        return len(self.entries)

    def apply(self, p: Polynomial) -> Polynomial:
        """Apply to a polynomial of degree < size."""
        if p.degree >= self.size:
            raise ValueError("polynomial does not fit the projector's space")
        out = linalg.mat_mul(self.entries, [[p.coeff(k)] for k in range(self.size)])
        return Polynomial(tuple(row[0] for row in out))

    def compose(self, other: "ProjectorMatrix"):
        return linalg.mat_mul(self.entries, other.entries)


def projectors_from_q(q_basis: StandardBasis, i: int):
    """Projector pair built from the first measure's orthogonal basis.

    The constraint projector maps p to sum_{n<i} Q_n (Q_n, p) / h_n; the
    complement projector is its difference from the identity.  As matrices
    that is Q (D^-1 (Q^T H_1)) over the first i columns of Q, with the
    division by the norms straight after the inner products.
    """
    n_size = q_basis.size
    if not 0 <= i <= n_size:
        raise ValueError(f"constraint index {i} outside 0..{n_size}")
    zero = scalars.zero(q_basis.backend)
    q_head = [row[:i] for row in q_basis.q_in_x]
    weights = _scaled_overlaps(q_head, q_basis.norms, q_basis.moment_seq)
    # Q_n with n >= i lies in the complement
    weights += [[zero] * n_size for _ in range(n_size - i)]
    entries = linalg.mat_mul(q_basis.q_in_x, weights)
    onto = ProjectorMatrix(tuple(map(tuple, entries)), ONTO_CONSTRAINT)
    return onto, _complement_of(onto, q_basis.backend)


def _scaled_overlaps(columns, norms, moment_seq):
    """D^-1 (B^T H): row n holds (b_n, x^k) / h_n for the columns b_n of B.

    The division by the norms comes straight after the inner products.
    """
    hankel = hankel_matrix(moment_seq, len(columns)).rows()
    overlaps = linalg.mat_mul(linalg.transpose(columns), hankel)
    return [[x / h for x in row] for row, h in zip(overlaps, norms)]


def _complement_of(onto: ProjectorMatrix, backend):
    n = onto.size
    ident = linalg.identity(n, backend)
    entries = tuple(
        tuple(ident[r][c] - onto.entries[r][c] for c in range(n)) for r in range(n)
    )
    return ProjectorMatrix(entries, ONTO_COMPLEMENT)


def projectors_from_second(
    measure1: Measure,
    measure2: Measure,
    i: int,
    n_size: int,
    backend: str = EXACT,
):
    """Projector pair expressed through the second measure's basis.

    Expands the constraint projector over the i=0 block basis P with the
    triangular-connection kernel K = q_in_p[:, :i] p_in_q[:i, :], as
    P (K (D^-1 (P^T H_2))) with the division by the norms straight after
    the inner products; must coincide with :func:`projectors_from_q`
    exactly in the rational backend.
    """
    sbo0 = build_sbo(measure1, measure2, 0, n_size, backend=backend)
    zero = scalars.zero(backend)
    p_monic = linalg.mat_mul(sbo0.q_basis.q_in_x, sbo0.p_in_q)
    head = list(sbo0.p_in_q[:i]) + [[zero] * n_size for _ in range(n_size - i)]
    kernel = linalg.mat_mul(sbo0.q_in_p, head)
    weights = _scaled_overlaps(p_monic, sbo0.monic_norms, sbo0.mu2)
    entries = linalg.mat_mul(p_monic, linalg.mat_mul(kernel, weights))
    onto = ProjectorMatrix(tuple(map(tuple, entries)), ONTO_CONSTRAINT)
    return onto, _complement_of(onto, backend)


def inner0(p: Polynomial, q: Polynomial, sbo: SboBasis, measure_one: Measure = None):
    """Composite inner product: first-measure metric on the constraint part,
    second-measure metric on the complement part.

    There is deliberately no single-integral path; the value is defined by
    splitting both arguments with the projectors.
    """
    n_size = sbo.size
    if p.degree >= n_size or q.degree >= n_size:
        raise ValueError("arguments do not fit the basis' space")
    onto, complement = projectors_from_q(sbo.q_basis, sbo.i)
    p1, p2 = onto.apply(p), complement.apply(p)
    q1, q2 = onto.apply(q), complement.apply(q)
    measure_one = measure_one or sbo.measure1
    if p1.is_zero or q1.is_zero:
        part1 = scalars.zero(sbo.backend)
    else:
        mu_one = moments(
            measure_one, p1.degree + q1.degree, backend=sbo.backend
        )
        part1 = inner_product_mu(mu_one, p1, q1)
    part2 = inner_product_mu(sbo.mu2, p2, q2) if not (p2.is_zero or q2.is_zero) else scalars.zero(sbo.backend)
    return part1 + part2
