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
from .measures import Measure, hankel_matrix, inner_product_mu, moments
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
        return self.apply_all([p])[0]

    def apply_all(self, polys):
        """Apply to polynomials of degree < size, all in one product."""
        if any(p.degree >= self.size for p in polys):
            raise ValueError("polynomial does not fit the projector's space")
        return from_columns(linalg.mat_mul(self.entries, columns_of(polys, self.size)))

    def compose(self, other: "ProjectorMatrix"):
        return linalg.mat_mul(self.entries, other.entries)


def projectors_from_q(q_basis: StandardBasis, i: int):
    """Projector pair built from the first measure's orthogonal basis.

    The constraint projector maps p to sum_{n<i} Q_n (Q_n, p) / h_n; the
    complement projector is its difference from the identity.  As matrices
    that is Q (D^-1 (Q^T H_1)) over the first i columns of Q, with the
    division by the norms straight after the inner products.
    """
    onto = _q_route(q_basis, i)(i)
    return onto, _complement_of(onto, q_basis.backend)


def _q_route(q_basis: StandardBasis, width):
    """The constraint projector of :func:`projectors_from_q` as a function of i <= ``width``:
    the overlap rows D^-1 (Q^T H_1) of Q's first ``width`` columns are formed once."""
    weights = _scaled_overlaps([row[:width] for row in q_basis.q_in_x], q_basis.norms, q_basis.moment_seq)
    # Q_n with n >= i lies in the complement
    return lambda i: _onto(linalg.mat_mul(q_basis.q_in_x, _head(weights, i, q_basis)))


def _head(rows, i, basis):
    """``rows[:i]`` padded with zero rows to the size N of ``basis``."""
    if not 0 <= i <= basis.size:
        raise ValueError(f"constraint index {i} outside 0..{basis.size}")
    return list(rows[:i]) + [[scalars.zero(basis.backend)] * basis.size] * (basis.size - i)


def _scaled_overlaps(columns, norms, moment_seq):
    """D^-1 (B^T H): row n holds (b_n, x^k) / h_n for the columns b_n of B,
    H the Hankel matrix of ``moment_seq``; the division by the norms comes
    straight after the inner products.
    """
    overlaps = linalg.mat_mul(linalg.transpose(columns), hankel_matrix(moment_seq, len(columns)).rows())
    return [[x / h for x in row] for row, h in zip(overlaps, norms)]


def _onto(entries):
    return ProjectorMatrix(tuple(map(tuple, entries)), ONTO_CONSTRAINT)


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
    if sbo0.i != 0:
        raise ValueError(f"need the i = 0 basis, got one with i = {sbo0.i}")
    onto = _second_route(sbo0)(i)
    return onto, _complement_of(onto, sbo0.backend)


def _second_route(sbo0: SboBasis):
    """The constraint projector of :func:`projectors_from_second` as a
    function of i: P's monomial columns and D^-1 (P^T H_2) are formed once."""
    p_monic = linalg.mat_mul(sbo0.q_basis.q_in_x, sbo0.p_in_q)
    weights = _scaled_overlaps(p_monic, sbo0.monic_norms, sbo0.mu2)

    def onto(i):
        kernel = linalg.mat_mul(sbo0.q_in_p, _head(sbo0.p_in_q, i, sbo0))
        return _onto(linalg.mat_mul(p_monic, linalg.mat_mul(kernel, weights)))

    return onto


def inner0(p: Polynomial, q: Polynomial, sbo: SboBasis, measure_one: Measure = None):
    """Composite inner product: first-measure metric on the constraint part,
    second-measure metric on the complement part.

    There is deliberately no single-integral path; the value is defined by
    splitting both arguments with the projectors.
    """
    if p.degree >= sbo.size or q.degree >= sbo.size:
        raise ValueError("arguments do not fit the basis' space")
    (p1, q1), (p2, q2) = (half.apply_all([p, q]) for half in projectors_from_q(sbo.q_basis, sbo.i))
    # a zero part reads no moment
    mu_one = moments(measure_one or sbo.measure1, max(p1.degree + q1.degree, 0), backend=sbo.backend)
    return inner_product_mu(mu_one, p1, q1) + inner_product_mu(sbo.mu2, p2, q2)
