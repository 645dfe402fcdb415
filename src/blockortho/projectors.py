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
from .block import SboBasis
from .measures import Measure, gram_of, inner_product_mu, moments
from .polynomials import Polynomial, columns_of, from_columns
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
        return from_columns(linalg.mat_mul(self.entries, columns_of([p], self.size)))[0]

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

    B^T H is the Gram congruence of B against the monomials; the division
    by the norms comes straight after the inner products.
    """
    size = len(columns)
    kind = scalars.EXACT if moment_seq.exact else scalars.FLOAT
    overlaps = gram_of(moment_seq, columns, linalg.identity(size, kind))
    return [[x / h for x in row] for row, h in zip(overlaps, norms)]


def _complement_of(onto: ProjectorMatrix, backend):
    n = onto.size
    ident = linalg.identity(n, backend)
    entries = tuple(
        tuple(ident[r][c] - onto.entries[r][c] for c in range(n)) for r in range(n)
    )
    return ProjectorMatrix(entries, ONTO_COMPLEMENT)


def projectors_from_second(sbo0: SboBasis, i: int):
    """Projector pair expressed through the second measure's basis.

    Expands the constraint projector over the i=0 block basis P, ``sbo0``,
    with the triangular-connection kernel K = q_in_p[:, :i] p_in_q[:i, :], as
    P (K (D^-1 (P^T H_2))) with the division by the norms straight after
    the inner products; must coincide with :func:`projectors_from_q`
    exactly in the rational backend.
    """
    n_size = sbo0.size
    if sbo0.i != 0:
        raise ValueError(f"need the i = 0 basis, got one with i = {sbo0.i}")
    if not 0 <= i <= n_size:
        raise ValueError(f"constraint index {i} outside 0..{n_size}")
    zero = scalars.zero(sbo0.backend)
    p_monic = linalg.mat_mul(sbo0.q_basis.q_in_x, sbo0.p_in_q)
    head = list(sbo0.p_in_q[:i]) + [[zero] * n_size for _ in range(n_size - i)]
    kernel = linalg.mat_mul(sbo0.q_in_p, head)
    weights = _scaled_overlaps(p_monic, sbo0.monic_norms, sbo0.mu2)
    entries = linalg.mat_mul(p_monic, linalg.mat_mul(kernel, weights))
    onto = ProjectorMatrix(tuple(map(tuple, entries)), ONTO_CONSTRAINT)
    return onto, _complement_of(onto, sbo0.backend)


def inner0(p: Polynomial, q: Polynomial, sbo: SboBasis, measure_one: Measure = None):
    """Composite inner product: first-measure metric on the constraint part,
    second-measure metric on the complement part.

    There is deliberately no single-integral path; the value is defined by
    splitting both arguments with the projectors.
    """
    return inner0_with(projectors_from_q(sbo.q_basis, sbo.i), p, q, sbo, measure_one)


def inner0_with(pair, p: Polynomial, q: Polynomial, sbo: SboBasis, measure_one: Measure = None):
    """:func:`inner0` with the projector pair ``projectors_from_q(sbo.q_basis,
    sbo.i)`` the caller already holds, so a run over many arguments builds
    it once."""
    n_size = sbo.size
    if p.degree >= n_size or q.degree >= n_size:
        raise ValueError("arguments do not fit the basis' space")
    onto, complement = pair
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
