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
from .measures import Measure, inner_product_mu, moments
from .polynomials import Polynomial, monomial
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
        col = [p.coeff(k) for k in range(self.size)]
        out = [
            sum(self.entries[r][c] * col[c] for c in range(self.size))
            for r in range(self.size)
        ]
        return Polynomial(tuple(out))

    def compose(self, other: "ProjectorMatrix"):
        return linalg.mat_mul([list(r) for r in self.entries], [list(r) for r in other.entries])


def projectors_from_q(q_basis: StandardBasis, i: int):
    """Projector pair built from the first measure's orthogonal basis.

    The constraint projector maps p to sum_{n<i} Q_n (Q_n, p) / h_n; the
    complement projector is its difference from the identity.
    """
    n_size = q_basis.size
    if not 0 <= i <= n_size:
        raise ValueError(f"constraint index {i} outside 0..{n_size}")
    zero = scalars.zero(q_basis.backend)
    mu1 = q_basis.moment_seq
    entries = [[zero] * n_size for _ in range(n_size)]
    for col in range(n_size):
        x_k = monomial(col, scalars.one(q_basis.backend))
        coeffs = [zero] * n_size
        for n in range(i):
            overlap = inner_product_mu(mu1, q_basis.polys[n], x_k) / q_basis.norms[n]
            for m in range(n + 1):
                coeffs[m] += q_basis.q_in_x[m][n] * overlap
        for row in range(n_size):
            entries[row][col] = coeffs[row]
    onto = ProjectorMatrix(tuple(map(tuple, entries)), ONTO_CONSTRAINT)
    complement = _complement_of(onto, q_basis.backend)
    return onto, complement


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
    sbo0: SboBasis = None,
):
    """Projector pair expressed through the second measure's basis.

    Expands the constraint projector over the i=0 block basis with the
    triangular-connection kernel; must coincide with
    :func:`projectors_from_q` exactly in the rational backend.
    """
    if sbo0 is None:
        sbo0 = build_sbo(measure1, measure2, 0, n_size, backend=backend)
    elif sbo0.i != 0:
        raise ValueError("need the i = 0 basis for the second-route projector")
    zero = scalars.zero(backend)
    mu2 = sbo0.mu2
    # kernel[j][k] = sum_{n<i} q_in_p[j][n] p_in_q[n][k]
    kernel = [
        [
            sum(sbo0.q_in_p[j][n] * sbo0.p_in_q[n][k] for n in range(i))
            for k in range(n_size)
        ]
        for j in range(n_size)
    ]
    entries = [[zero] * n_size for _ in range(n_size)]
    for col in range(n_size):
        x_k = monomial(col, scalars.one(backend))
        overlaps = [
            inner_product_mu(mu2, sbo0.monic_poly(k), x_k) / sbo0.monic_norm(k)
            for k in range(n_size)
        ]
        coeffs = [zero] * n_size
        for j in range(n_size):
            weight = sum(kernel[j][k] * overlaps[k] for k in range(n_size))
            if weight == 0:
                continue
            pj = sbo0.monic_poly(j)
            for m in range(pj.degree + 1):
                coeffs[m] += pj.coeff(m) * weight
        for row in range(n_size):
            entries[row][col] = coeffs[row]
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
