"""The recurrence-first float backend, its conditioning gate and its errors."""

import dataclasses
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockortho import (
    ConditioningError,
    Measure,
    NotPositiveDefinite,
    OracleMismatch,
    block,
    Polynomial,
    build_general_bo,
    build_sbo,
    build_sbos,
    build_standard,
    errors,
    gso,
    measures,
    standard,
)
from blockortho.analysis import gauss_rule, zero_report
from blockortho.block import CONNECTION_CONDITION_LIMIT, connection_condition
from blockortho.cli import main
from blockortho.gso import ORACLE_RTOL
from blockortho.verification import FLOAT_RTOL
from test_block import ALPHAS, ZS, measure_pairs

LAGUERRE = (Measure.gamma_weight(1, 1), Measure.gamma_weight(2, 1))


def _quarter(n, fraction):
    return min(round(fraction * n), n - 1)


@pytest.mark.parametrize(
    "measure",
    [Measure.gaussian(Fraction(2, 3)), Measure.gamma_weight(Fraction(3, 2), Fraction(1, 2))],
    ids=["gaussian", "gamma"],
)
def test_closed_form_recurrence_equals_the_hankel_build(measure):
    hankel = standard.hankel_build(measure, 9, check=False).recurrence
    assert standard.monic_recurrence(measure, 8) == tuple((-b, c) for _, b, c in hankel)


def test_the_float_hankel_build_answers_at_n_12():
    # the Hankel route runs exactly on the float moments and rounds once, so
    # it lands on the recurrence route where a float LDL^T pass did not
    hankel = standard.hankel_build(LAGUERRE[0], 12, backend="float")
    direct = build_standard(LAGUERRE[0], 12, backend="float")
    assert hankel.backend == "float" and all(type(h) is float for h in hankel.norms)
    for p, q in zip(hankel.polys, direct.polys):
        scale = max(map(abs, q.coeffs))
        assert all(abs(a - b) <= FLOAT_RTOL * scale for a, b in zip(p.coeffs, q.coeffs))


def test_the_float_sbo_oracle_is_the_exact_route_rounded_once():
    # gamma_i and the leading factors read as the rationals they hold
    basis = build_sbo(*LAGUERRE, 2, 8, backend="float")
    gamma = [[Fraction(x) for x in row] for row in basis.gamma.entries]
    leading = [Fraction(k) for k in basis.q_basis.leading]
    for n in basis.degrees():
        oracle = block.sbo_determinant_oracle(basis.q_basis, basis.mu2, 2, n, gamma=basis.gamma)
        column, h, z = gso.bordered_oracle(gamma, n - 2, leading[n])
        assert (oracle.a_column, oracle.norm, oracle.gram_det) == (tuple(map(float, column)), float(h), float(z))
        b_column = gso.oracle_connection_column(gamma, n - 2, leading[2 : n + 1])
        assert oracle.b_column == tuple(map(float, b_column))
        assert all(type(x) is float for x in oracle.poly.coeffs + oracle.a_column + oracle.b_column)


def test_a_float_hankel_determinant_past_the_float_range_reads_inf():
    # rounded once from the exact route, as the recurrence route's products overflow
    measure = Measure.gaussian(Fraction(1, 10**6))
    for build in (standard.hankel_build, standard.parity_split_build, build_standard):
        assert build(measure, 14, backend="float").gram_dets[-1] == math.inf


def test_a_float_build_converts_the_monic_terms_once(monkeypatch):
    # every float consumer of a measure's monic terms reads them as floats,
    # converted once per build by standard._float_terms
    conversions = []
    original = standard._float_terms
    monkeypatch.setattr(standard, "_float_terms", lambda rec: conversions.append(1) or original(rec))

    def floats_only(module, name, arg):
        wrapped = getattr(module, name)

        def spy(*args, **kwargs):
            assert all(type(x) is float for term in args[arg] for x in term), name
            return wrapped(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)

    for name in ("_check_rule_moments", "_recurrence_result", "_scaled_recurrence", "recurrence_rule"):
        floats_only(standard, name, 0)
    for name in ("_connection_and_norms", "_connection_to_second"):
        floats_only(block, name, 1)
    build_sbos(*LAGUERRE, range(4), 8, backend="float")
    assert len(conversions) == 2  # one per measure
    conversions.clear()
    build_general_bo(*LAGUERRE, [Polynomial((1.0,)), Polynomial((0.0, 1.0))], 8, backend="float")
    assert len(conversions) == 2


def test_gauss_rule_of_a_closed_form_family_builds_no_basis(monkeypatch):
    calls = []
    original = standard.build_standard
    monkeypatch.setattr(standard, "build_standard", lambda *a, **k: calls.append(a) or original(*a, **k))
    gauss_rule(Measure.gamma_weight(2, Fraction(3, 2)), 12)
    assert calls == []
    # nor does a tabulated measure: its recurrence is the Chebyshev algorithm's
    table = [Fraction(1), Fraction(0), Fraction(1, 3), Fraction(0), Fraction(1, 5)]
    gauss_rule(Measure.from_moments(table, domain=(-1, 1)), 2)
    assert calls == []


def test_float_build_forms_no_hankel_matrix(monkeypatch):
    calls = []
    original = measures.hankel_matrix
    for module in (standard, measures):
        monkeypatch.setattr(module, "hankel_matrix", lambda *a: calls.append(a) or original(*a))
    basis = build_sbo(*LAGUERRE, 9, 12, backend="float")
    assert calls == []
    exact = build_sbo(*LAGUERRE, 9, 12, check=False)
    for n in exact.degrees():
        coeffs = [float(c) for c in exact.monic_poly(n).coeffs]
        assert max(abs(a - b) for a, b in zip(basis.monic_poly(n).coeffs, coeffs)) <= (
            ORACLE_RTOL * max(map(abs, coeffs))
        )


def test_a_float_build_forms_gamma_only_when_read(monkeypatch):
    calls = []
    for name in ("gamma_matrix", "_float_gamma"):
        original = getattr(block, name, None)
        if original is not None:
            monkeypatch.setattr(
                block, name, lambda *a, _original=original: calls.append(a) or _original(*a)
            )
    pair = (Measure.gaussian(Fraction(2, 3)), Measure.gaussian(Fraction(5, 2)))
    basis = build_sbos(*pair, [10], 20, backend="float")[10]
    assert calls == []
    gamma = basis.gamma
    assert len(calls) == 1 and gamma.size == 10
    assert basis.gamma is gamma and len(calls) == 1


@pytest.mark.parametrize("check", [False, True])
def test_a_float_build_reads_moments_only_through_order_2n_minus_2(check):
    # tables that stop at order 2N - 2: T, h and the check's rules come from
    # the Chebyshev algorithm on them, b_{N-1} repeated from b_{N-2}
    hermite = (Measure.gaussian(1), Measure.gaussian(2))
    n_size = 8
    tables = [Measure.from_moments(moments_of.mu, symmetric=True) for moments_of in
              (measures.moments(m, 2 * n_size - 2) for m in hermite)]
    basis = build_sbo(*tables, 3, n_size, backend="float", check=check)
    exact = build_sbo(*hermite, 3, n_size, check=False)
    for n in exact.degrees():
        coeffs = [float(c) for c in exact.monic_poly(n).coeffs]
        assert max(abs(a - b) for a, b in zip(basis.monic_poly(n).coeffs, coeffs)) <= (
            ORACLE_RTOL * max(map(abs, coeffs))
        )


def test_a_numeric_pair_builds_unchecked_at_the_float_size_limit():
    # a numeric second measure's T comes from discretized Stieltjes on its
    # rule, so N = FLOAT_SIZE_LIMIT builds
    numeric = (
        Measure.numeric(lambda x: math.exp(-x * x), (-9.0, 9.0), nodes=80, symmetric=True),
        Measure.numeric(lambda x: math.exp(-2 * x * x), (-7.0, 7.0), nodes=80, symmetric=True),
    )
    n_size = standard.FLOAT_SIZE_LIMIT
    basis = build_sbo(*numeric, 2, n_size, backend="float", check=False)
    exact = build_sbo(Measure.gaussian(1), Measure.gaussian(2), 2, n_size, check=False)
    for n in range(2, 8):
        coeffs = [float(c) for c in exact.monic_poly(n).coeffs]
        assert max(abs(a - b) for a, b in zip(basis.monic_poly(n).coeffs, coeffs)) <= (
            1e-13 * max(map(abs, coeffs))
        )


def test_roots_float_laguerre_beyond_the_old_refusals(capsys):
    # the Hankel route raised a first-stage OracleMismatch here
    assert main(["roots", "--float", "--pair", "laguerre", "--N", "12", "--i", "9"]) == 0
    assert capsys.readouterr().err == ""


def test_gate_refusal_carries_its_measurement():
    with pytest.raises(ConditioningError) as info:
        build_sbo(*LAGUERRE, 2, 20, backend="float")
    exc = info.value
    assert (exc.stage, exc.limit) == ("second_stage", CONNECTION_CONDITION_LIMIT)
    assert exc.condition > exc.limit
    assert str(exc) == (
        "float second stage refused at i=2: condition of the unit-column weighted connection "
        f"times unit roundoff is {exc.condition:.3g} > {CONNECTION_CONDITION_LIMIT:g}"
    )
    # unchecked builds are not gated
    build_sbo(*LAGUERRE, 2, 20, backend="float", check=False)
    # the squared gate of the gamma factorization refused these; they are answered now
    build_sbo(*LAGUERRE, 0, 16, backend="float")
    build_sbo(*LAGUERRE, 0, 12, backend="float")


def test_size_cap_names_the_first_stage():
    with pytest.raises(ConditioningError, match="refused beyond size 20") as info:
        build_standard(Measure.gaussian(1), 21, backend="float")
    assert (info.value.stage, info.value.condition, info.value.limit) == ("first_stage", None, None)


def test_first_stage_moment_check_names_stage_and_degree(monkeypatch):
    original = standard.monic_recurrence

    def perturbed(measure, count):
        rec = list(original(measure, count))
        rec[3] = (rec[3][0], rec[3][1] * (1 + Fraction(1, 10**6)))
        return tuple(rec)

    monkeypatch.setattr(standard, "monic_recurrence", perturbed)
    with pytest.raises(OracleMismatch) as info:
        build_standard(Measure.gamma_weight(1, 1), 8, backend="float")
    # c_3 first enters mu_6, which fixes the norm of degree 3
    assert (info.value.stage, info.value.degree) == ("first_stage", 3)
    assert str(info.value) == "recurrence and the measure's moments disagree at degree 3"


def test_second_stage_oracle_mismatch_names_stage_and_degree(monkeypatch):
    original = block._qr_second_stage

    def skewed(connection, norms, leading):
        result = original(connection, norms, leading)
        coeffs = [list(row) for row in result.coeffs]
        coeffs[0][-1] *= 1 + 1e-6
        return dataclasses.replace(result, coeffs=tuple(map(tuple, coeffs)))

    monkeypatch.setattr(block, "_qr_second_stage", skewed)
    with pytest.raises(OracleMismatch) as info:
        build_sbo(Measure.gaussian(1), Measure.gaussian(2), 2, 7, backend="float")
    assert (info.value.stage, info.value.degree) == ("second_stage", 6)
    assert str(info.value) == "second-stage Gauss-rule residuals exceed 2e-09 at degree 6"


def test_a_perturbed_float_connection_entry_is_caught_by_the_quadrature_check(monkeypatch):
    original = block._connection_to_second

    def perturbed(q_basis, rec2):
        t = original(q_basis, rec2)
        t[1][3] *= 1 + 1e-6
        return t

    monkeypatch.setattr(block, "_connection_to_second", perturbed)
    with pytest.raises(OracleMismatch) as info:
        build_sbo(Measure.gaussian(1), Measure.gaussian(2), 2, 6, backend="float")
    assert (info.value.stage, info.value.degree) == ("second_stage", 3)
    # unchecked builds trust T
    build_sbo(Measure.gaussian(1), Measure.gaussian(2), 2, 6, backend="float", check=False)


def test_not_positive_definite_names_stage_and_degree():
    with pytest.raises(NotPositiveDefinite) as info:
        with errors.stage("second_stage", first_degree=3):
            gso.gram_schmidt([[Fraction(1), 2], [2, Fraction(1)]], [Fraction(1)] * 2)
    assert (info.value.stage, info.value.degree) == ("second_stage", 4)
    assert str(info.value) == "pivot h_1 = -3 is not positive"
    # the parity kernel reports the column of the full matrix, not of its sector
    odd_fails = [[Fraction(x) for x in row] for row in
                 ((1, 0, 0, 0), (0, 1, 0, 2), (0, 0, 1, 0), (0, 2, 0, 1))]
    with pytest.raises(NotPositiveDefinite) as info:
        gso.parity_gram_schmidt(odd_fails, [Fraction(1)] * 4)
    assert (info.value.stage, info.value.degree) == (None, 3)
    with pytest.raises(NotPositiveDefinite) as info:
        Measure.from_moments([1, 0, Fraction(1, 2), 0, Fraction(1, 5)])
    assert (info.value.stage, info.value.degree) == ("moments", 2)


@given(measure_pairs(), st.integers(1, 20), st.data())
@settings(max_examples=100, deadline=None)
def test_float_agrees_with_exact_or_refuses(pair, n_size, data):
    i = data.draw(st.integers(0, n_size - 1), label="i")
    try:
        fl = build_sbo(*pair, i, n_size, backend="float")
    except ConditioningError as exc:
        assert exc.condition > exc.limit
        return
    rec2 = standard.monic_recurrence(fl.measure2, n_size)
    connection, norms = block._connection_and_norms(fl.q_basis, rec2)
    assert connection_condition(connection[:, i:], norms) <= CONNECTION_CONDITION_LIMIT
    exact = build_sbo(*pair, i, n_size, check=False)
    for n in exact.degrees():
        coeffs = [float(c) for c in exact.monic_poly(n).coeffs]
        scale = max(abs(c) for c in coeffs)
        for a, b in zip(fl.monic_poly(n).coeffs, coeffs):
            assert abs(a - b) <= ORACLE_RTOL * scale, (n, a, b)
        assert zero_report(fl, n).count == zero_report(exact, n).count


def test_roots_float_shapes_never_mismatch():
    # every (pair, N, i) the roots-float benchmark workload can deal
    pairs = [(Measure.gaussian(a), Measure.gaussian(b)) for a, b in itertools.permutations(ALPHAS, 2)]
    pairs += [(Measure.gamma_weight(a, z), Measure.gamma_weight(b, z))
              for a, b in itertools.permutations(ALPHAS, 2) for z in ZS]
    refused = 0
    for pair in pairs:
        for n_size in range(6, 21, 2):
            for i in {_quarter(n_size, 0.5), _quarter(n_size, 0.875)}:
                try:
                    build_sbo(*pair, i, n_size, backend="float")
                except ConditioningError:
                    refused += 1
    # of 4,032 shapes: the gate on the squared gamma refused 730, the QR gate 106
    assert refused <= 120
