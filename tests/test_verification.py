import dataclasses
import json

import pytest

from blockortho import Measure, Polynomial, block, gso, projectors, verification
from blockortho.cli import main
from blockortho.verification import ALL_CHECKS, check_orthogonality, run_checks


def test_full_suite_passes_on_builtin_pair():
    reports = run_checks(Measure.gamma_weight(1, 1), Measure.gamma_weight(2, 1), n_size=6)
    assert {r["check"] for r in reports} == set(ALL_CHECKS)
    assert all(r["passed"] for r in reports)


def test_subset_selection():
    reports = run_checks(
        Measure.gaussian(1), Measure.gaussian(2), n_size=5, names=["parity", "zeros"]
    )
    assert [r["check"] for r in reports] == ["parity", "zeros"]


def test_unknown_check_name():
    with pytest.raises(ValueError):
        run_checks(Measure.gaussian(1), Measure.gaussian(2), names=["nope"])


def test_conditioning_guard_reports_skip():
    reports = run_checks(
        Measure.gaussian(1),
        Measure.gaussian(2),
        n_size=25,
        backend="float",
        names=["orthogonality"],
    )
    assert reports[0]["passed"]
    assert "skipped" in reports[0]


def test_exact_oracle_trial_failure_names_trial_and_degree(monkeypatch):
    original = gso.gram_schmidt

    def nudged(gram, factors):
        result = original(gram, factors)
        norms = list(result.norms)
        norms[1] += 1
        return dataclasses.replace(result, norms=tuple(norms))

    monkeypatch.setattr(gso, "gram_schmidt", nudged)
    report = verification.check_oracle_equivalence(Measure.gaussian(1), Measure.gaussian(2), 6)
    assert report == {"check": "oracle_equivalence", "passed": False, "trial": 0, "n": 1}


@pytest.mark.parametrize(
    "field, expect",
    [
        ("coeffs", {"trial": 0, "n": 1}),
        ("inverse_coeffs", {"trial": 0, "n": 1, "m": 0, "which": "b"}),
    ],
)
def test_float_oracle_trial_catches_a_nudged_kernel(monkeypatch, field, expect):
    original = gso.gram_schmidt

    def nudged(gram, factors):
        result = original(gram, factors)
        rows = [list(row) for row in getattr(result, field)]
        rows[0][1] += 1e-6
        return dataclasses.replace(result, **{field: tuple(map(tuple, rows))})

    pair = (Measure.gaussian(1), Measure.gaussian(2))
    assert verification.check_oracle_equivalence(*pair, 6, backend="float")["passed"]
    monkeypatch.setattr(gso, "gram_schmidt", nudged)
    report = verification.check_oracle_equivalence(*pair, 6, backend="float")
    assert report == {"check": "oracle_equivalence", "passed": False, **expect}


def test_negative_i_max_is_refused():
    # an empty range of constraint indices would pass without checking any basis
    with pytest.raises(ValueError, match="i_max"):
        check_orthogonality(Measure.gaussian(1), Measure.gaussian(2), 4, -3)


def test_oracle_equivalence_reads_the_stored_gamma(monkeypatch, capsys):
    # one shared build assembles gamma once; the oracle reads it from the bases
    original = block.gamma_matrix
    calls = []
    monkeypatch.setattr(block, "gamma_matrix", lambda *a: calls.append(a) or original(*a))
    argv = ["verify", "--pair", "laguerre", "--N", "8", "--checks", "oracle_equivalence"]
    assert main(argv) == 0
    capsys.readouterr()
    assert len(calls) == 1


def _nudged(poly):
    """poly with its constant term moved by 1e-6 of its largest coefficient."""
    coeffs = list(poly.coeffs)
    coeffs[0] += 1e-6 * max(map(abs, coeffs))
    return Polynomial(tuple(coeffs))


def _float_verify(capsys, pair, check):
    argv = ["verify", "--float", "--pair", pair, "--N", "6", "--checks", check]
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("pair", ["hermite", "laguerre"])
def test_float_oracle_equivalence_compares_the_sbo_oracle(monkeypatch, capsys, pair):
    assert _float_verify(capsys, pair, "oracle_equivalence")[1]["passed"] is True
    original = verification.sbo_determinant_oracle

    def nudged(*args, **kwargs):
        result = original(*args, **kwargs)
        return dataclasses.replace(result, poly=_nudged(result.poly))

    monkeypatch.setattr(verification, "sbo_determinant_oracle", nudged)
    code, payload = _float_verify(capsys, pair, "oracle_equivalence")
    assert (code, payload["passed"]) == (1, False)
    assert payload["reports"][0]["which"] == "sbo"


@pytest.mark.parametrize("pair", ["hermite", "laguerre"])
def test_float_recurrence_compares_the_replay(monkeypatch, capsys, pair):
    assert _float_verify(capsys, pair, "recurrence")[1]["passed"] is True
    original = verification.build_by_recurrence
    monkeypatch.setattr(
        verification, "build_by_recurrence", lambda *a, **k: [_nudged(p) for p in original(*a, **k)]
    )
    code, payload = _float_verify(capsys, pair, "recurrence")
    assert (code, payload["passed"]) == (1, False)
    assert payload["reports"][0]["which"] == "rebuild"


@pytest.mark.parametrize("pair", ["hermite", "laguerre"])
def test_inner0_suite_builds_one_projector_pair(monkeypatch, capsys, pair):
    original = projectors.projectors_from_q
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module in (projectors, verification):
        monkeypatch.setattr(module, "projectors_from_q", counting)
    assert main(["verify", "--pair", pair, "--N", "6", "--checks", "inner0"]) == 0
    capsys.readouterr()
    assert len(calls) == 1
