"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute.
"""

import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from blockortho import (
    Measure,
    Polynomial,
    build_by_recurrence,
    build_sbo,
    build_standard,
    checkerboard_det,
    connection_b,
    cross_i_connection,
    determinant_oracle_vector,
    expand_x_times_p,
    gram_schmidt,
    inner_product_mu,
    monomial,
    sbo_determinant_oracle,
    verify_p_integral,
    verify_z_integral,
    zero_report,
)
from blockortho.cli import main
from blockortho.gso import oracle_norm
from blockortho.linalg import mat_mul
from blockortho.measures import moments
from blockortho.projectors import projectors_from_q, projectors_from_second

HERMITE = (Measure.gaussian(1), Measure.gaussian(2))
LAGUERRE = (Measure.gamma_weight(1, 1), Measure.gamma_weight(2, 1))
PAIRS = {"hermite": HERMITE, "laguerre": LAGUERRE}


def _report(number, label, passed):
    print(f"criterion {number:2d} [{label}]: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {number} ({label}) failed"


def test_criterion_1_three_subspace_reproduction(capsys):
    start = time.monotonic()
    ok = True

    def classify(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, json.loads(out)

    code, payload = classify("three-subspace", "--z12", "1", "--z23", "2", "--z13", "3")
    ok &= code == 0 and payload["classification"] == "Unique"
    code, payload = classify("three-subspace", "--z12", "1", "--z23", "2", "--z13", "4")
    ok &= code == 0 and payload["classification"] == "NoSolution"
    for z13 in (Fraction(4), Fraction(3), Fraction(11, 2)):
        z23 = z13 - 1
        code, payload = classify(
            "three-subspace", "--symmetric12", "--z23", str(z23), "--z13", str(z13)
        )
        ok &= code == 0 and payload["classification"] == "Family(1)"
        particular = Polynomial(
            tuple(Fraction(c) for c in payload["particular"][0]["coeffs"])
        )
        kernel = Polynomial(tuple(Fraction(c) for c in payload["kernel"][0]["coeffs"]))
        # family polynomial: x^2 - z13 (z13 + 1) + t (x - z13)
        ok &= particular == Polynomial((-z13 * (z13 + 1), 0, 1))
        ok &= kernel.monic() == Polynomial((-z13, 1))
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    with capsys.disabled():
        _report(1, "three-subspace reproduction", ok)


def test_criterion_2_boundary_identities():
    ok = True
    for name, pair in PAIRS.items():
        q1 = build_standard(pair[0], 8)
        q2 = build_standard(pair[1], 8)
        bases = {i: build_sbo(*pair, i, 8) for i in range(9)}
        for n in range(8):
            ok &= bases[n].monic_poly(n) == q1.polys[n].monic()
            ok &= bases[0].monic_poly(n) == q2.polys[n].monic()
        if pair[0].symmetric and pair[1].symmetric:
            # parity-driven neighbor identities hold for symmetric pairs
            for i in range(1, 8):
                for n in range(i, 8):
                    if (i + n) % 2 == 0:
                        ok &= bases[i - 1].monic_poly(n) == bases[i].monic_poly(n)
            for n in range(1, 8, 2):
                ok &= bases[1].monic_poly(n) == q2.polys[n].monic()
    _report(2, "boundary identities", ok)


def test_criterion_3_frozen_derived_values():
    expect_h = Polynomial((Fraction(1, 8), 0, Fraction(-7, 4), 0, 1))
    expect_l = Polynomial((Fraction(1, 2), Fraction(-5, 2), 1))
    built_h = build_sbo(*HERMITE, 2, 5).monic_poly(4)
    built_l = build_sbo(*LAGUERRE, 1, 3).monic_poly(2)
    oracle_h = sbo_determinant_oracle(build_standard(HERMITE[0], 5), HERMITE[1], 2, 4)
    oracle_l = sbo_determinant_oracle(build_standard(LAGUERRE[0], 3), LAGUERRE[1], 1, 2)
    ok = (
        built_h == expect_h
        and oracle_h.poly == expect_h
        and built_l == expect_l
        and oracle_l.poly == expect_l
    )
    _report(3, "frozen derived values via both routes", ok)


def test_criterion_4_orthogonality_suite():
    start = time.monotonic()
    ok = True
    for pair in PAIRS.values():
        mu1 = moments(pair[0], 18)
        for i in range(5):
            basis = build_sbo(*pair, i, 10, check=False)
            for n in basis.degrees():
                p = basis.monic_poly(n)
                for m in range(i):
                    ok &= inner_product_mu(mu1, monomial(m), p) == 0
                for m in basis.degrees():
                    expect = basis.monic_norm(n) if m == n else 0
                    ok &= inner_product_mu(basis.mu2, basis.monic_poly(m), p) == expect
        # float path at the same sizes
        mu1f = moments(pair[0], 18, backend="float")
        for i in range(5):
            basis = build_sbo(*pair, i, 10, backend="float", check=False)
            h_max = max(basis.monic_norms)
            for n in basis.degrees():
                p = basis.monic_poly(n)
                for m in range(i):
                    val = inner_product_mu(mu1f, monomial(m).to_float(), p)
                    ok &= abs(val) <= 1e-10 * max(1.0, h_max)
                for m in basis.degrees():
                    val = inner_product_mu(basis.mu2, basis.monic_poly(m), p)
                    expect = basis.monic_norm(n) if m == n else 0.0
                    ok &= abs(val - expect) <= 1e-10 * h_max
    elapsed = time.monotonic() - start
    ok &= elapsed < 10.0
    _report(4, f"orthogonality suite ({elapsed:.2f}s)", ok)


def _random_pd(rng, size, kind):
    raw = [[Fraction(rng.randint(-4, 4)) for _ in range(size)] for _ in range(size)]
    gram = mat_mul([list(c) for c in zip(*raw)], raw)
    for d in range(size):
        gram[d][d] += 1
    if kind == "float":
        return [[float(x) for x in row] for row in gram]
    return gram


def test_criterion_5_oracle_equivalence():
    ok = True
    rng = random.Random(101)
    for trial in range(50):
        size = rng.randint(2, 7)
        gram = _random_pd(rng, size, "exact")
        factors = [Fraction(rng.choice([1, 2, -1, 3])) for _ in range(size)]
        res = gram_schmidt(gram, factors)
        for n in range(size):
            ok &= determinant_oracle_vector(gram, n, factors[n]) == tuple(
                res.coeffs[m][n] for m in range(n + 1)
            )
            ok &= oracle_norm(gram, n, factors[n]) == res.norms[n]
            for m in range(n + 1):
                ok &= connection_b(gram, res, m, n) == res.inverse_coeffs[m][n]
        gram_f = [[float(x) for x in row] for row in gram]
        factors_f = [float(f) for f in factors]
        res_f = gram_schmidt(gram_f, factors_f)
        for n in range(size):
            oracle = determinant_oracle_vector(gram_f, n, factors_f[n])
            scale = max(abs(x) for x in oracle) or 1.0
            ok &= all(
                abs(a - b) <= 1e-9 * scale
                for a, b in zip(oracle, (res_f.coeffs[m][n] for m in range(n + 1)))
            )
    for pair in PAIRS.values():
        q = build_standard(pair[0], 8)  # the build cross-checks its own formulas
        mu2 = moments(pair[1], 14)
        for i in range(8):
            basis = build_sbo(*pair, i, 8)
            for n in basis.degrees():
                oracle = sbo_determinant_oracle(q, mu2, i, n)
                ok &= oracle.poly == basis.monic_poly(n)
                ok &= oracle.gram_det == basis.Z(n)
                ok &= oracle.norm == basis.monic_norm(n)
                ok &= oracle.b_column == tuple(
                    basis.q_in_p[m][n] for m in range(i, n + 1)
                )
    _report(5, "oracle equivalence", ok)


def test_criterion_6_checkerboard_lemma():
    ok = True
    rng = random.Random(202)
    for trial in range(100):
        size = rng.randint(1, 8)
        m = [[0.0] * size for _ in range(size)]
        for j in range(size):
            for k in range(size):
                if (j + k) % 2 == 0:
                    m[j][k] = rng.uniform(-3, 3)
        exempt = trial % 2 == 0
        if exempt:
            for k in range(size):
                m[size - 1][k] = rng.uniform(-3, 3)
        det, even, odd = checkerboard_det(m, last_row_exempt=exempt)
        direct = float(np.linalg.det(np.array(m))) if size else 1.0
        scale = max(1.0, abs(direct))
        ok &= abs(det - even * odd) <= 1e-10 * scale
        ok &= abs(direct - even * odd) <= 1e-10 * scale
        if exempt and size > 1:
            perturbed = [list(row) for row in m]
            for k in range(size):
                if (size - 1 + k) % 2 == 1:
                    perturbed[size - 1][k] += rng.uniform(0.5, 1.5)
            det2, even2, odd2 = checkerboard_det(perturbed, last_row_exempt=True)
            ok &= abs(det2 - det) <= 1e-10 * scale
    _report(6, "checkerboard determinant lemma", ok)


def test_criterion_7_integral_representations():
    start = time.monotonic()
    ok = True
    for pair in PAIRS.values():
        for i, n in ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)):
            basis = build_sbo(*pair, i, n + 1, check=False)
            ok &= verify_z_integral(basis, i, n)["rel_err"] <= 1e-10
            report = verify_p_integral(basis, i, n)
            ok &= report["rel_err"] <= 1e-10
            if i == 0:
                ok &= report["rel_err_symmetrized"] <= 1e-10
    elapsed = time.monotonic() - start
    ok &= elapsed < 60.0
    _report(7, f"integral representations ({elapsed:.2f}s)", ok)


def test_criterion_8_recurrence_facts():
    ok = True
    for pair in PAIRS.values():
        for measure in pair:
            base = build_standard(measure, 8)
            ok &= build_by_recurrence(measure, 8) == list(base.polys)
    # the degree-shift expansion leaves the block: a coefficient below n-1
    # is nonzero where a three-term recurrence would force zero
    basis = build_sbo(*HERMITE, 2, 7)
    exp = expand_x_times_p(basis, 4)
    ok &= exp.constraint_coeff != 0 and min(exp.low_order_nonzero) < 3
    rebuilt = basis.q_basis.polys[1].scale(exp.constraint_coeff)
    for m, coef in exp.eta.items():
        if coef != 0:
            rebuilt = rebuilt + basis.monic_poly(m).scale(coef)
    ok &= rebuilt == monomial(1) * basis.monic_poly(4)
    exp5 = expand_x_times_p(basis, 5)
    ok &= exp5.eta[2] != 0
    # cross-index connections: identity at equal indices, unit diagonal
    s0 = build_sbo(*HERMITE, 0, 7)
    cross = cross_i_connection(s0, basis)
    ok &= all(cross[n][n] == 1 for n in basis.degrees())
    same = cross_i_connection(basis, basis)
    ok &= all(
        same[l][n] == (1 if l == n else 0)
        for n in basis.degrees()
        for l in basis.degrees()
        if l <= n
    )
    _report(8, "recurrence facts and obstruction witness", ok)


def test_criterion_9_projector_suite():
    ok = True
    for pair in PAIRS.values():
        q = build_standard(pair[0], 10)
        sbo0 = build_sbo(*pair, 0, 10)
        for i in (0, 1, 2, 3, 4):
            onto, comp = projectors_from_q(q, i)
            ok &= onto.compose(onto) == [list(r) for r in onto.entries]
            ok &= comp.compose(comp) == [list(r) for r in comp.entries]
            ok &= all(
                onto.entries[r][c] + comp.entries[r][c] == (1 if r == c else 0)
                for r in range(10)
                for c in range(10)
            )
            onto2, _ = projectors_from_second(sbo0, i)
            ok &= onto.entries == onto2.entries
    _report(9, "projector suite", ok)


def test_criterion_10_zero_counts():
    ok = True
    for pair in PAIRS.values():
        for i in range(8):
            basis = build_sbo(*pair, i, 8, check=False)
            for n in basis.degrees():
                report = zero_report(basis, n)
                ok &= report.count >= i
                ok &= report.satisfies_theorem
                if i == n - 1:
                    ok &= report.count == n
    _report(10, "zero location theorem", ok)
