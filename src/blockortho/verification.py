"""Named check suites behind the ``verify`` command.

Each check returns a dict with at least ``check`` and ``passed``; checks that
a guard refuses (a float build past the conditioning limit, a collapsed
float Gauss rule) come back as skipped-with-reason entries, not failures.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from operator import mul

from . import analysis, block, gso, linalg, projectors
from ._numpy import np
from .block import (
    build_sbo,
    build_sbos,
    cross_i_connection,
    expand_x_times_p,
    sbo_determinant_oracle,
    sbo_parity_build,
)
from .errors import BlockOrthoError, CollapsedRule, ConditioningError
from .linalg import LiftedElimination
from .measures import Measure, hankel_matrix, inner_product_mu, moments
from .polynomials import combine, from_columns, monomial
from .projectors import projectors_from_q
from .scalars import EXACT, FLOAT, zero
from .standard import build_by_recurrence, build_standard, hankel_build, monic_recurrence

FLOAT_RTOL = 1e-10


def _entry(name, passed, **detail):
    out = {"check": name, "passed": bool(passed)}
    out.update(detail)
    return out


def _agree(a, b, backend, scale=1):
    """a == b, exact; within FLOAT_RTOL times max(|scale|, 1), float."""
    if backend == EXACT:
        return a == b
    return abs(a - b) <= FLOAT_RTOL * max(abs(scale), 1.0)


def check_orthogonality(measure1, measure2, n_size, i_max, backend=EXACT):
    """Constraint and mutual orthogonality of every built block basis, for
    i up to min(i_max, N), which the report names as ``i_max``.

    Exact bases integrate by the moments in integers: each moment table and
    each monic P_{i;n} lifted once per basis, the constraint moments of
    H_1 P and each entry of P^T H_2 P - diag(h) one integer dot product.
    Float bases integrate by N-node rules of both measures, exact for every
    degree read, with each P_{i;n} evaluated through Q's recurrence from its
    connection ``p_in_q`` (:func:`_float_orthogonality`): summed over
    monomial moments in floats, the inner products of a basis equal to the
    exact one rounded lose up to 1e7 times the rounding, more than
    FLOAT_RTOL at N 12-20.  Neither reads gamma or T.
    """
    if i_max < 0:
        raise ValueError(f"i_max must be non-negative, got {i_max}")
    i_max = min(i_max, n_size)
    bases = build_sbos(measure1, measure2, range(i_max + 1), n_size, backend=backend)
    if backend == FLOAT:
        return _float_orthogonality(measure2, bases, n_size, i_max)
    mu1, s1 = linalg.lift(moments(measure1, 2 * (n_size - 1), backend=backend).mu)
    mu2, s2 = linalg.lift(bases[0].mu2.mu)
    for i, basis in bases.items():
        data = linalg.lifted(basis, "monic_polys")
        cols = data.cols if data else [linalg.lift(p.coeffs) for p in basis.monic_polys]
        for n, (p, d) in zip(basis.degrees(), cols):
            for m in range(i):
                dot = sum(map(mul, p, mu1[m:]))
                if dot:
                    return _entry("orthogonality", False, i=i, n=n, residual=float(Fraction(dot, d * s1)))
            h2_p = [sum(map(mul, p, mu2[j:])) for j in range(n_size)]
            hp, hq = basis.monic_norm(n).as_integer_ratio()
            for m, (q, e) in zip(basis.degrees(), cols):
                residual = sum(map(mul, q, h2_p)) * hq - (hp * e * d * s2 if m == n else 0)
                if residual:
                    residual = float(Fraction(residual, e * d * s2 * hq))
                    return _entry("orthogonality", False, i=i, n=n, m=m, residual=residual)
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
    second, (values1, powers) = block._quadrature_rules(q_basis, rec2)
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
        size = np.abs(powers[:, :i]).T @ np.abs(p1)
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


def check_oracle_equivalence(measure1, measure2, n_size, backend=EXACT):
    """The pair's builds against their determinant routes: each measure's
    Hankel first stage, with its LDL^T certificate, against the recurrence
    route, and each second-stage degree for i <= 2 against the SBO
    determinant oracle, in its polynomial and in b, its q_in_p column.  The
    determinant routes run exactly in both backends, a float build's moments
    and gamma_i read as the dyadic rationals they hold and rounded once."""
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
        # by the prefix property one elimination of gamma_i serves every degree
        # (a float gamma_i read as the dyadic rationals it holds)
        elimination = LiftedElimination(basis.gamma.entries)
        for n in basis.degrees():
            oracle = sbo_determinant_oracle(
                basis.q_basis, basis.mu2, i, n, gamma=basis.gamma, elimination=elimination
            )
            if not _polys_match(oracle.poly, basis.monic_poly(n), backend):
                return _entry("oracle_equivalence", False, i=i, n=n, which="sbo")
            b_column = oracle.b_column
            scale = max(map(abs, b_column))
            for m, b in enumerate(b_column, start=i):
                if not _agree(b, basis.q_in_p[m][n], backend, scale):
                    return _entry("oracle_equivalence", False, i=i, n=n, m=m, which="b")
    return _entry("oracle_equivalence", True)


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
    """Parity build equivalence for i <= 3; gamma_i's checkerboard
    factorization is :func:`check_lemma_checkerboard`'s."""
    if not (measure1.symmetric and measure2.symmetric):
        return _entry("parity", True, skipped="measure pair is not symmetric")
    bases = build_sbos(measure1, measure2, range(min(3, n_size) + 1), n_size, backend=backend)
    for i, direct in bases.items():
        split = sbo_parity_build(measure1, measure2, i, n_size, backend=backend)
        for n in direct.degrees():
            p = direct.monic_poly(n)
            for a, b in zip(p.coeffs, split.monic_poly(n).coeffs):
                if not _agree(a, b, backend):
                    return _entry("parity", False, i=i, n=n)
            expected = "even" if n % 2 == 0 else "odd"
            if backend == EXACT and p.parity() != expected:
                return _entry("parity", False, i=i, n=n, which="reflection")
    return _entry("parity", True)


def check_projectors(measure1, measure2, n_size, backend=EXACT):
    """For i <= 3, the projector pair by Q is idempotent, its complement is
    orthogonal to pi_{i-1} under the first measure, and it equals the pair
    by P; each route forms what does not depend on i once."""
    sbo0 = build_sbo(measure1, measure2, 0, n_size, backend=backend)
    top = min(3, n_size)
    by_q, by_second = projectors._q_route(sbo0.q_basis, top), projectors._second_route(sbo0)
    hankel1 = hankel_matrix(sbo0.q_basis.moment_seq, n_size).rows()
    for i in range(top + 1):
        onto = by_q(i)
        comp = projectors._complement_of(onto, backend)
        scale = max((abs(x) for row in onto.entries for x in row), default=1) if backend == FLOAT else 1
        pairs = zip(onto.compose(onto), onto.entries)
        if not all(_agree(x, y, backend, scale) for rows in pairs for x, y in zip(*rows)):
            return _entry("projectors", False, i=i, which="idempotence")
        # (x^j, C p)_1 = 0 for j < i: rows j < i of H_1 C vanish, in floats
        # within FLOAT_RTOL of |H_1| (I + |onto|), which bounds C's rounding
        bound = [[0] * n_size] * i if backend == EXACT else linalg.mat_mul(
            [list(map(abs, row)) for row in hankel1[:i]],
            [[(r == c) + abs(x) for c, x in enumerate(row)] for r, row in enumerate(onto.entries)],
        )
        pairs = zip(linalg.mat_mul(hankel1[:i], comp.entries), bound)
        if not all(abs(x) <= FLOAT_RTOL * s for rows in pairs for x, s in zip(*rows)):
            return _entry("projectors", False, i=i, which="complement")
        pairs = zip(onto.entries, by_second(i).entries)
        if not all(_agree(x, y, backend, scale) for rows in pairs for x, y in zip(*rows)):
            return _entry("projectors", False, i=i, which="route_equivalence")
    return _entry("projectors", True)


def check_integrals(measure1, measure2, n_size, backend=EXACT):
    pairs = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
    worst = 0.0
    bases = build_sbos(measure1, measure2, range(3), n_size, backend=backend)
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
        if not _agree(cross[n][n], 1, backend):
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


def check_lemma_checkerboard(measure1, measure2, n_size, backend=EXACT):
    """The checkerboard-determinant lemma on a symmetric pair's own matrices,
    read as the exact rationals they hold: det = even * odd for each
    measure's Hankel matrix and gamma_i, i <= 3, and for a bordered block of
    gamma_i as the SBO oracle takes it, whose determinant must not move when
    the off-parity entries of its last row, a later row of gamma_i, shift."""
    if not (measure1.symmetric and measure2.symmetric):
        return _entry("lemma_checkerboard", True, skipped="measure pair is not symmetric")
    order = 2 * (n_size - 1)
    matrices = [
        (dict(which="hankel", measure=k), hankel_matrix(moments(measure, order, backend), n_size))
        for k, measure in enumerate((measure1, measure2), start=1)
    ]
    q_basis = build_standard(measure1, n_size, backend=backend, check=False)
    matrices += [
        (dict(which="gamma", i=i), block.gamma_matrix(q_basis, measure2, i))
        for i in range(min(3, n_size - 1) + 1)
    ]
    for where, gram in matrices:
        m = [[Fraction(x) for x in row] for row in gram.entries]
        det, even, odd = gso.checkerboard_det(m)
        if det != even * odd:
            return _entry("lemma_checkerboard", False, **where)
        if where["which"] == "gamma" and len(m) > 2:
            # the block b_{k,r} of the oracle: rows 0..k-1 and row r = k + 2
            k = len(m) - 3
            bordered = [row[: k + 1] for row in m[:k] + m[-1:]]
            det, even, odd = gso.checkerboard_det(bordered, last_row_exempt=True)
            if det != even * odd:
                return _entry("lemma_checkerboard", False, row=k + 2, **where)
            bordered[k] = [x + (k + c) % 2 for c, x in enumerate(bordered[k])]
            if gso.checkerboard_det(bordered, last_row_exempt=True)[0] != det:
                return _entry("lemma_checkerboard", False, which="exempt_invariance", i=where["i"])
    return _entry("lemma_checkerboard", True)


def check_inner0(measure1, measure2, n_size, backend=EXACT):
    if n_size <= 2:
        return _entry("inner0", True, skipped=f"no degree n >= i = 2 below N = {n_size}")
    basis = build_sbo(measure1, measure2, 2, n_size, backend=backend)
    polys = [basis.monic_poly(n) for n in basis.degrees()]
    # each P_{2;n} is split once, and the first measure's moments taken once
    parts = list(zip(*(half.apply_all(polys) for half in projectors_from_q(basis.q_basis, basis.i))))
    mu1 = moments(measure1, 2 * (n_size - 1), backend=backend)
    for m, (m1, m2) in zip(basis.degrees(), parts):
        for n, (n1, n2) in zip(basis.degrees(), parts):
            val = inner_product_mu(mu1, m1, n1) + inner_product_mu(basis.mu2, m2, n2)
            expect = basis.monic_norm(m) if m == n else zero(backend)
            if not _agree(val, expect, backend, max(map(abs, basis.monic_norms))):
                return _entry("inner0", False, m=m, n=n)
    return _entry("inner0", True)


# suite name -> (its size for a given N, call); the caps keep suites at desk scale
_SUITES = {
    "orthogonality": (lambda n: n, lambda m1, m2, n, i_max, b: check_orthogonality(m1, m2, n, i_max, b)),
    "oracle_equivalence": (partial(min, 6), lambda m1, m2, n, i_max, b: check_oracle_equivalence(m1, m2, n, b)),
    "boundary_identities": (lambda n: n, lambda m1, m2, n, i_max, b: check_boundary_identities(m1, m2, n, b)),
    "parity": (partial(min, 7), lambda m1, m2, n, i_max, b: check_parity(m1, m2, n, b)),
    "projectors": (partial(min, 8), lambda m1, m2, n, i_max, b: check_projectors(m1, m2, n, b)),
    "recurrence": (partial(max, 7), lambda m1, m2, n, i_max, b: check_recurrence(m1, m2, n, b)),
    "inner0": (partial(min, 6), lambda m1, m2, n, i_max, b: check_inner0(m1, m2, n, b)),
    "lemma_checkerboard": (partial(min, 7), lambda m1, m2, n, i_max, b: check_lemma_checkerboard(m1, m2, n, b)),
    # P_{i;n} and its determinant do not depend on N, so N = 4 serves every (i, n) read
    "integral_representations": (lambda n: 4, lambda m1, m2, n, i_max, b: check_integrals(m1, m2, n, b)),
    "zeros": (partial(min, 8), lambda m1, m2, n, i_max, b: check_zeros(m1, m2, n, b)),
}
ALL_CHECKS = tuple(_SUITES)


def run_checks(measure1: Measure, measure2: Measure, n_size=8, i_max=4, backend=EXACT, names=None):
    """Run the named suites and collect one report entry per check.  A passed
    or skipped report carries the size its suite ran at as ``n``; a failed
    one names where it failed (there ``n`` is a degree)."""
    names = list(names or ALL_CHECKS)
    reports = []
    for name in names:
        if name not in _SUITES:
            raise ValueError(f"unknown check {name!r}")
        size, suite = _SUITES[name]
        n = size(n_size)
        try:
            report = suite(measure1, measure2, n, i_max, backend)
        except (ConditioningError, CollapsedRule) as exc:
            report = _entry(name, True, skipped=str(exc))
        except BlockOrthoError as exc:
            report = _entry(name, False, error=f"{type(exc).__name__}: {exc}")
        if report["passed"]:
            report["n"] = n
        reports.append(report)
    return reports
