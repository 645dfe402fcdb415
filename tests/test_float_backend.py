"""The recurrence-first float backend, its conditioning gate and its errors."""

import itertools
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
    build_sbo,
    build_standard,
    errors,
    gso,
    measures,
    standard,
)
from blockortho.analysis import gauss_rule, zero_report
from blockortho.block import GAMMA_CONDITION_LIMIT, gamma_condition
from blockortho.cli import main
from blockortho.gso import ORACLE_RTOL
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


def test_gauss_rule_of_a_closed_form_family_builds_no_basis(monkeypatch):
    calls = []
    original = standard.build_standard
    monkeypatch.setattr(standard, "build_standard", lambda *a, **k: calls.append(a) or original(*a, **k))
    gauss_rule(Measure.gamma_weight(2, Fraction(3, 2)), 12)
    assert calls == []
    # a tabulated measure still takes its recurrence from the Hankel build
    table = [Fraction(1), Fraction(0), Fraction(1, 3), Fraction(0), Fraction(1, 5)]
    gauss_rule(Measure.from_moments(table, domain=(-1, 1)), 2)
    assert len(calls) == 1


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


def test_roots_float_laguerre_beyond_the_old_refusals(capsys):
    # the Hankel route raised a first-stage OracleMismatch here
    assert main(["roots", "--float", "--pair", "laguerre", "--N", "12", "--i", "9"]) == 0
    assert capsys.readouterr().err == ""


def test_gate_refusal_carries_its_measurement():
    with pytest.raises(ConditioningError) as info:
        build_sbo(*LAGUERRE, 0, 16, backend="float")
    exc = info.value
    assert (exc.stage, exc.limit) == ("second_stage", GAMMA_CONDITION_LIMIT)
    assert exc.condition > exc.limit
    assert str(exc) == (
        "float second stage refused at i=0: condition of the scaled gamma matrix "
        f"times unit roundoff is {exc.condition:.3g} > {GAMMA_CONDITION_LIMIT:g}"
    )
    # unchecked builds are not gated
    build_sbo(*LAGUERRE, 0, 16, backend="float", check=False)


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
    assert str(info.value) == "recurrence and closed-form moments disagree at degree 3"


def test_second_stage_oracle_mismatch_names_stage_and_degree(monkeypatch):
    original = gso.gram_schmidt

    def skewed(gram, factors):
        result = original(gram, factors)
        coeffs = [list(row) for row in result.coeffs]
        coeffs[0][-1] *= 1 + 1e-6
        return gso.OrthogonalizationResult(
            tuple(map(tuple, coeffs)), *(getattr(result, f) for f in
                                         ("inverse_coeffs", "norms", "factors", "gram_dets"))
        )

    monkeypatch.setattr(gso, "gram_schmidt", skewed)
    with pytest.raises(OracleMismatch) as info:
        build_sbo(Measure.gaussian(1), Measure.gaussian(2), 2, 7, backend="float")
    assert (info.value.stage, info.value.degree) == ("second_stage", 6)
    assert str(info.value) == "second-stage determinant oracle disagrees at degree 6"


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
    assert gamma_condition(fl.gamma) <= GAMMA_CONDITION_LIMIT
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
    for pair in pairs:
        for n_size in range(6, 21, 2):
            for i in {_quarter(n_size, 0.5), _quarter(n_size, 0.875)}:
                try:
                    build_sbo(*pair, i, n_size, backend="float")
                except ConditioningError:
                    pass
