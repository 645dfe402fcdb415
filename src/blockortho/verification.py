"""Named check suites behind the ``verify`` command.

Each check returns a dict with at least ``check`` and ``passed``; checks that
a guard refuses (a float build past the conditioning limit, a collapsed
float Gauss rule) come back as skipped-with-reason entries, not failures.
"""

from __future__ import annotations

import random
from fractions import Fraction
from operator import mul

from . import analysis, block, gso
from ._numpy import np
from .block import (
    build_sbo,
    build_sbos,
    cross_i_connection,
    expand_x_times_p,
    sbo_determinant_oracle,
    sbo_parity_build,
)
from .errors import BlockOrthoError, CollapsedRule, ConditioningError, OracleMismatch
from .linalg import LiftedElimination, identity
from .measures import Measure, inner_product_mu, moments
from .polynomials import combine, from_columns, monomial
from .projectors import inner0_with, projectors_from_q, projectors_from_second
from .scalars import EXACT, FLOAT, zero
from .standard import build_by_recurrence, build_standard, hankel_build, monic_recurrence

FLOAT_RTOL = 1e-10


def _entry(name, passed, **detail):
    out = {"check": name, "passed": bool(passed)}
    out.update(detail)
    return out


def _is_zero(value, backend, scale=1):
    if backend == EXACT:
        return value == 0
    return abs(value) <= FLOAT_RTOL * max(abs(scale), 1.0)


def check_orthogonality(measure1, measure2, n_size, i_max, backend=EXACT):
    """Constraint and mutual orthogonality of every built block basis.

    Exact bases integrate by the moments.  Float bases integrate by N-node
    rules of both measures, exact for every degree read, with each P_{i;n}
    evaluated through Q's recurrence from its connection ``p_in_q``
    (:func:`_float_orthogonality`): summed over monomial moments in floats,
    the inner products of a basis equal to the exact one rounded lose up to
    1e7 times the rounding, more than FLOAT_RTOL at N 12-20.
    """
    if i_max < 0:
        raise ValueError(f"i_max must be non-negative, got {i_max}")
    bases = build_sbos(measure1, measure2, range(min(i_max, n_size) + 1), n_size, backend=backend)
    if backend == FLOAT:
        return _float_orthogonality(measure2, bases, n_size, i_max)
    mu1 = moments(measure1, 2 * (n_size - 1), backend=backend)
    for i, basis in bases.items():
        for n in basis.degrees():
            p = basis.monic_poly(n)
            for m in range(i):
                val = inner_product_mu(mu1, monomial(m), p)
                if val != 0:
                    return _entry("orthogonality", False, i=i, n=n, residual=float(val))
            for m in basis.degrees():
                val = inner_product_mu(basis.mu2, basis.monic_poly(m), p)
                expect = basis.monic_norm(n) if m == n else 0
                if val != expect:
                    return _entry("orthogonality", False, i=i, n=n, m=m, residual=float(val - expect))
    return _entry("orthogonality", True, n=n_size, i_max=i_max, worst_residual=0.0)


def _float_orthogonality(measure2, bases, n_size, i_max):
    """The float orthogonality suite on the Gauss-rule data of the float
    build's own check (:func:`block._quadrature_rules`).  A constraint
    moment of x^m P_{i;n} fails above FLOAT_RTOL times the integral of its
    absolute value, (P_{i;m}, P_{i;n})_2 - delta_{mn} h_n above FLOAT_RTOL
    times max(h, 1), h the largest monic norm of the basis.  The monomial
    coefficients of each P_{i;n} must be those of its connection."""
    q_basis = bases[0].q_basis
    rec2 = monic_recurrence(measure2, n_size)
    second, (values1, powers, abs_powers) = block._quadrature_rules(q_basis, rec2, True)
    q_in_x = np.array(q_basis.q_in_x)
    worst = 0.0
    for i, basis in bases.items():
        connection = np.array(basis.p_in_q)[:, i:]
        in_x = from_columns((q_in_x @ connection).tolist())
        for n, poly in zip(basis.degrees(), in_x):
            if not _polys_match(poly, basis.monic_poly(n), FLOAT):
                return _entry("orthogonality", False, i=i, n=n, which="monomial")
        p1 = values1 @ connection
        constraint = powers[:, :i].T @ p1
        size = abs_powers[:, :i].T @ np.abs(p1)
        p2 = second @ connection
        gram = p2.T @ p2 - np.diag(basis.monic_norms)
        scale = max(max(basis.monic_norms, default=1.0), 1.0)
        for col, n in enumerate(basis.degrees()):
            for m in range(i):
                if not abs(constraint[m, col]) <= FLOAT_RTOL * size[m, col]:
                    return _entry("orthogonality", False, i=i, n=n, residual=float(constraint[m, col]))
            for row, m in enumerate(basis.degrees()):
                residual = float(gram[row, col])
                if not abs(residual) <= FLOAT_RTOL * scale:
                    return _entry("orthogonality", False, i=i, n=n, m=m, residual=residual)
                worst = max(worst, abs(residual))
    return _entry("orthogonality", True, n=n_size, i_max=i_max, worst_residual=worst)


def check_oracle_equivalence(measure1, measure2, n_size, backend=EXACT, seed=20240601, samples=50):
    """Inductive vs determinant routes on random Gram matrices, b included,
    and on the pair: the Hankel first stage of each measure with its
    bordered-determinant oracle, and the second stage against the SBO
    determinant oracle."""
    rng = random.Random(seed)
    for trial in range(samples):
        size = rng.randint(2, 7)
        raw = [[rng.randint(-4, 4) for _ in range(size)] for _ in range(size)]
        cols = list(zip(*raw))
        # raw^T raw + I, summed over integers and kept as ints
        gram = [
            [sum(map(mul, c_j, c_k)) + (j == k) for k, c_k in enumerate(cols)]
            for j, c_j in enumerate(cols)
        ]
        factors = [Fraction(rng.choice([1, 1, 2, -1, 3])) for _ in range(size)]
        if backend == FLOAT:
            gram = [[float(x) for x in row] for row in gram]
            factors = [float(f) for f in factors]
        result = gso.gram_schmidt(gram, factors)
        elimination, scale = None, 1
        if backend == EXACT:
            try:
                gso.check_against_oracle(gram, result, identity(size), "random Gram trial")
            except OracleMismatch as exc:
                return _entry("oracle_equivalence", False, trial=trial, n=exc.degree)
            elimination = LiftedElimination(gram)  # b's determinants for every column
        for n in range(size):
            if backend == FLOAT:
                oracle = gso.bordered_oracle(gram, n, factors[n])[0]
                column = [result.coeffs[m][n] for m in range(n + 1)]
                scale = max(abs(x) for x in oracle) or 1
                for a, b in zip(oracle, column):
                    if not _is_zero(a - b, backend, scale):
                        return _entry("oracle_equivalence", False, trial=trial, n=n)
            # b, exact formed from a when read, against its own bordered determinants
            b_oracle = gso.oracle_connection_column(gram, n, factors[: n + 1], elimination)
            for m, (b, x) in enumerate(zip(b_oracle, result.inverse_coeffs)):
                if b != x[n] and not _is_zero(b - x[n], backend, scale):
                    return _entry("oracle_equivalence", False, trial=trial, n=n, m=m, which="b")
    bases = build_sbos(measure1, measure2, range(min(2, n_size) + 1), n_size, backend=backend)
    # the Hankel route and its bordered-determinant oracle, on each measure's
    # first stage, must land on the polynomials of the recurrence route
    second = build_standard(measure2, n_size, backend=backend, check=False)
    for measure, direct in ((measure1, bases[0].q_basis), (measure2, second)):
        hankel = hankel_build(measure, n_size, backend=backend)
        for n in range(n_size):
            if not _polys_match(hankel.polys[n], direct.polys[n], backend):
                return _entry("oracle_equivalence", False, n=n, which="first_stage")
    for i, basis in bases.items():
        for n in basis.degrees():
            oracle = sbo_determinant_oracle(basis.q_basis, basis.mu2, i, n, gamma=basis.gamma)
            if not _polys_match(oracle.poly, basis.monic_poly(n), backend):
                return _entry("oracle_equivalence", False, i=i, n=n, which="sbo")
    return _entry("oracle_equivalence", True, samples=samples)


def _polys_match(p, q, backend):
    if backend == EXACT:
        return p == q
    if p.degree != q.degree:
        return False
    scale = max(abs(c) for c in p.coeffs)
    return all(abs(a - b) <= FLOAT_RTOL * max(scale, 1.0) for a, b in zip(p.coeffs, q.coeffs))


def check_boundary_identities(measure1, measure2, n_size, backend=EXACT):
    """Edge-of-sector identities; the parity-driven ones need symmetry."""
    bases = build_sbos(measure1, measure2, range(n_size + 1), n_size, backend=backend)
    q1 = bases[0].q_basis
    q2 = build_standard(measure2, n_size, backend=backend)
    for n in range(n_size):
        if not _polys_match(bases[n].monic_poly(n), q1.polys[n].monic(), backend):
            return _entry("boundary_identities", False, which="diagonal", n=n)
        if not _polys_match(bases[0].monic_poly(n), q2.polys[n].monic(), backend):
            return _entry("boundary_identities", False, which="axis", n=n)
    symmetric = measure1.symmetric and measure2.symmetric
    if symmetric:
        for i in range(1, n_size):
            for n in range(i, n_size):
                if (i + n) % 2 == 0 and not _polys_match(
                    bases[i - 1].monic_poly(n), bases[i].monic_poly(n), backend
                ):
                    return _entry("boundary_identities", False, which="parity_step", i=i, n=n)
        for n in range(0, (n_size - 2) // 2 + 1):
            if not _polys_match(
                bases[1].monic_poly(2 * n + 1), q2.polys[2 * n + 1].monic(), backend
            ):
                return _entry("boundary_identities", False, which="odd_axis", n=2 * n + 1)
    return _entry("boundary_identities", True, symmetric_cases=symmetric)


def check_parity(measure1, measure2, n_size, backend=EXACT):
    """Parity build equivalence and checkerboard factorization."""
    if not (measure1.symmetric and measure2.symmetric):
        return _entry("parity", True, skipped="measure pair is not symmetric")
    bases = build_sbos(measure1, measure2, range(min(3, n_size) + 1), n_size, backend=backend)
    for i, direct in bases.items():
        split = sbo_parity_build(measure1, measure2, i, n_size, backend=backend)
        for n in direct.degrees():
            p = direct.monic_poly(n)
            for a, b in zip(p.coeffs, split.monic_poly(n).coeffs):
                if not _is_zero(a - b, backend):
                    return _entry("parity", False, i=i, n=n)
            expected = "even" if n % 2 == 0 else "odd"
            if backend == EXACT and p.parity() != expected:
                return _entry("parity", False, i=i, n=n, which="reflection")
        g = direct.gamma.rows()
        if g and backend == EXACT:
            det, even, odd = gso.checkerboard_det(g)
            if det != even * odd:
                return _entry("parity", False, i=i, which="checkerboard")
    return _entry("parity", True)


def check_projectors(measure1, measure2, n_size, backend=EXACT):
    sbo0 = build_sbo(measure1, measure2, 0, n_size, backend=backend)
    for i in range(min(3, n_size) + 1):
        onto, comp = projectors_from_q(sbo0.q_basis, i)
        scale = max((abs(x) for row in onto.entries for x in row), default=1)
        prod = onto.compose(onto)
        for r in range(n_size):
            for c in range(n_size):
                if not _is_zero(prod[r][c] - onto.entries[r][c], backend, scale):
                    return _entry("projectors", False, i=i, which="idempotence")
                target = (1 if r == c else 0) - onto.entries[r][c]
                if not _is_zero(comp.entries[r][c] - target, backend, scale):
                    return _entry("projectors", False, i=i, which="complement")
        onto2, _ = projectors_from_second(sbo0, i)
        for r in range(n_size):
            for c in range(n_size):
                if not _is_zero(onto.entries[r][c] - onto2.entries[r][c], backend, scale):
                    return _entry("projectors", False, i=i, which="route_equivalence")
    return _entry("projectors", True, n=n_size)


def check_integrals(measure1, measure2, backend=EXACT):
    pairs = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
    worst = 0.0
    # P_{i;n} and its determinant do not depend on N, so one N = 4 build serves every pair
    bases = build_sbos(measure1, measure2, range(3), 4, backend=backend)
    for i, n in pairs:
        rz = analysis.verify_z_integral(bases[i], i, n)
        rp = analysis.verify_p_integral(bases[i], i, n)
        worst = max(worst, rz["rel_err"], rp["rel_err"])
        if rz["rel_err"] > FLOAT_RTOL or rp["rel_err"] > FLOAT_RTOL:
            return _entry("integral_representations", False, i=i, n=n, rel_err=worst)
    return _entry("integral_representations", True, worst_rel_err=worst)


def check_zeros(measure1, measure2, n_size, backend=EXACT):
    observed = []
    bases = build_sbos(measure1, measure2, range(n_size), n_size, backend=backend)
    for report in analysis.zero_reports(bases.values()):
        observed.append((report.i, report.n, report.count))
        if not report.satisfies_theorem:
            return _entry("zeros", False, i=report.i, n=report.n, count=report.count)
    return _entry("zeros", True, counts=observed)


def check_recurrence(measure1, measure2, n_size, backend=EXACT):
    for measure in (measure1, measure2):
        base = build_standard(measure, n_size, backend=backend)
        replay = build_by_recurrence(measure, n_size, backend=backend)
        for n in range(n_size):
            if not _polys_match(replay[n], base.polys[n], backend):
                return _entry("recurrence", False, which="rebuild", n=n)
    bases = build_sbos(measure1, measure2, [0, 2], n_size, backend=backend)
    s0, s2 = bases[0], bases[2]
    cross = cross_i_connection(s0, s2)
    for n in s2.degrees():
        if not _is_zero(cross[n][n] - 1, backend):
            return _entry("recurrence", False, which="cross_diag", n=n)
    if n_size >= 6:
        expansion = expand_x_times_p(s2, 4)
        rebuilt = combine(
            [expansion.constraint_coeff, *expansion.eta.values()],
            [s2.q_basis.polys[s2.i - 1], *map(s2.monic_poly, expansion.eta)],
        )
        x = monomial(1) if backend == EXACT else monomial(1).to_float()
        if not _polys_match(rebuilt, x * s2.monic_poly(4), backend):
            return _entry("recurrence", False, which="x_expansion")
        order = 2 * n_size
        if moments(measure1, order, backend).mu == moments(measure2, order, backend).mu:
            # one measure: P_{i;n} are its own orthogonal polynomials, whose
            # three-term recurrence leaves nothing to witness (float
            # rounding can leave tiny low-order coefficients all the same)
            return _entry(
                "recurrence",
                True,
                skipped="the obstruction needs distinct measures; "
                f"both have equal moments through order {order}",
            )
        if not expansion.low_order_nonzero:
            return _entry("recurrence", False, which="obstruction_missing")
    return _entry("recurrence", True)


def check_lemma_checkerboard(seed=20240602, samples=100):
    rng = random.Random(seed)
    for trial in range(samples):
        size = rng.randint(1, 8)
        m = [[0] * size for _ in range(size)]
        for j in range(size):
            for k in range(size):
                if (j + k) % 2 == 0:
                    m[j][k] = rng.randint(-5, 5)
        exempt = rng.random() < 0.5
        if exempt:
            for k in range(size):
                m[size - 1][k] = rng.randint(-5, 5)
        det, even, odd = gso.checkerboard_det(m, last_row_exempt=exempt)
        if det != even * odd:
            return _entry("lemma_checkerboard", False, trial=trial, size=size)
        if exempt and size > 1:
            perturbed = [list(row) for row in m]
            for k in range(size):
                if (size - 1 + k) % 2 == 1:
                    perturbed[size - 1][k] += rng.randint(1, 3)
            det2, _, _ = gso.checkerboard_det(perturbed, last_row_exempt=True)
            if det2 != det:
                return _entry("lemma_checkerboard", False, trial=trial, which="exempt_invariance")
    return _entry("lemma_checkerboard", True, samples=samples)


def check_inner0(measure1, measure2, n_size, backend=EXACT):
    if n_size <= 2:
        return _entry("inner0", True, skipped=f"no degree n >= i = 2 below N = {n_size}")
    basis = build_sbo(measure1, measure2, 2, n_size, backend=backend)
    pair = projectors_from_q(basis.q_basis, basis.i)
    for m in basis.degrees():
        for n in basis.degrees():
            val = inner0_with(pair, basis.monic_poly(m), basis.monic_poly(n), basis)
            expect = basis.monic_norm(m) if m == n else zero(backend)
            if not _is_zero(val - expect, backend, max(map(abs, basis.monic_norms))):
                return _entry("inner0", False, m=m, n=n)
    return _entry("inner0", True)


# suite name -> call; the size caps keep every suite at desk scale
_SUITES = {
    "orthogonality": lambda m1, m2, n, i_max, b: check_orthogonality(m1, m2, n, i_max, b),
    "oracle_equivalence": lambda m1, m2, n, i_max, b: check_oracle_equivalence(m1, m2, min(n, 6), b),
    "boundary_identities": lambda m1, m2, n, i_max, b: check_boundary_identities(m1, m2, n, b),
    "parity": lambda m1, m2, n, i_max, b: check_parity(m1, m2, min(n, 7), b),
    "projectors": lambda m1, m2, n, i_max, b: check_projectors(m1, m2, min(n, 8), b),
    "recurrence": lambda m1, m2, n, i_max, b: check_recurrence(m1, m2, max(n, 7), b),
    "inner0": lambda m1, m2, n, i_max, b: check_inner0(m1, m2, min(n, 6), b),
    "lemma_checkerboard": lambda m1, m2, n, i_max, b: check_lemma_checkerboard(),
    "integral_representations": lambda m1, m2, n, i_max, b: check_integrals(m1, m2, b),
    "zeros": lambda m1, m2, n, i_max, b: check_zeros(m1, m2, min(n, 8), b),
}
ALL_CHECKS = tuple(_SUITES)


def run_checks(measure1: Measure, measure2: Measure, n_size=8, i_max=4, backend=EXACT, names=None):
    """Run the named suites and collect one report entry per check."""
    names = list(names or ALL_CHECKS)
    reports = []
    for name in names:
        if name not in _SUITES:
            raise ValueError(f"unknown check {name!r}")
        try:
            reports.append(_SUITES[name](measure1, measure2, n_size, i_max, backend))
        except (ConditioningError, CollapsedRule) as exc:
            reports.append(_entry(name, True, skipped=str(exc)))
        except BlockOrthoError as exc:
            reports.append(_entry(name, False, error=f"{type(exc).__name__}: {exc}"))
    return reports
