"""One recurrence route for both backends: the closed-form families build
their first stage and gamma from the three-term recurrences, checked against
the closed-form moments, and the Hankel route stays as their reference."""

import dataclasses
import json
from fractions import Fraction

import pytest

from blockortho import (
    Measure,
    OracleMismatch,
    block,
    build_sbo,
    build_sbos,
    build_standard,
    gso,
    measures,
    standard,
    verification,
)
from blockortho.cli import main
from blockortho.measures import gram_of, moments
from blockortho.standard import DET_NORMALIZED, MONIC, hankel_build

PAIRS = {
    "hermite": (Measure.gaussian(1), Measure.gaussian(2)),
    "laguerre": (Measure.gamma_weight(1, 1), Measure.gamma_weight(2, 1)),
    "gaussian": (Measure.gaussian(Fraction(3, 2)), Measure.gaussian(Fraction(5, 2))),
    "gamma": (
        Measure.gamma_weight(Fraction(2, 3), Fraction(3, 2)),
        Measure.gamma_weight(3, Fraction(3, 2)),
    ),
}
FIELDS = ("polys", "leading", "norms", "q_in_x", "gram_dets", "recurrence")


@pytest.mark.parametrize("normalization", [MONIC, DET_NORMALIZED])
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_exact_recurrence_route_equals_the_hankel_route(name, normalization):
    measure1, measure2 = PAIRS[name]
    q = build_standard(measure1, 12, normalization)
    hankel = hankel_build(measure1, 12, normalization)
    for field in FIELDS:
        assert getattr(q, field) == getattr(hankel, field), field
    # gamma by the Gauss rule of the second measure is the moment congruence
    mu2 = moments(measure2, 22)
    for i in (0, 5, 12):
        congruence = gram_of(mu2, [row[i:] for row in q.q_in_x])
        assert [list(row) for row in block.gamma_matrix(q, mu2, i).entries] == congruence


def test_exact_closed_form_build_forms_no_hankel_matrix(monkeypatch):
    calls = []
    for module in (standard, measures):
        original = getattr(module, "hankel_matrix")
        monkeypatch.setattr(module, "hankel_matrix", lambda *a, _f=original: calls.append(a) or _f(*a))
    monkeypatch.setattr(block, "gram_of", lambda *a: pytest.fail("gamma took the congruence"))
    build_sbos(*PAIRS["laguerre"], range(9), 8)
    assert calls == []


def test_exact_first_stage_moment_check_names_stage_and_degree(monkeypatch):
    original = standard.monic_recurrence

    def perturbed(measure, count):
        rec = list(original(measure, count))
        rec[3] = (rec[3][0], rec[3][1] * (1 + Fraction(1, 10**6)))
        return tuple(rec)

    monkeypatch.setattr(standard, "monic_recurrence", perturbed)
    with pytest.raises(OracleMismatch) as info:
        build_standard(Measure.gamma_weight(1, 1), 8)
    # c_3 first enters mu_6, which fixes the norm of degree 3
    assert (info.value.stage, info.value.degree) == ("first_stage", 3)
    assert str(info.value) == "recurrence and the measure's moments disagree at degree 3"


@pytest.mark.parametrize("name", ["hermite", "laguerre"])
def test_coefficient_check_catches_any_one_perturbed_entry(monkeypatch, name):
    measure = PAIRS[name][0]
    size = 6
    original = standard._recurrence_result
    for n in range(size):
        for m in range(n + 1):
            def perturbed(*args, m=m, n=n):
                result = original(*args)
                q = [list(row) for row in result.coeffs]
                q[m][n] += Fraction(1, 10**6)
                return dataclasses.replace(result, coeffs=tuple(map(tuple, q)))

            monkeypatch.setattr(standard, "_recurrence_result", perturbed)
            # the odd entries of the gaussian family sit where the odd moments vanish
            with pytest.raises(OracleMismatch, match="recurrence coefficients miss") as info:
                build_standard(measure, size)
            assert (info.value.stage, info.value.degree) == ("first_stage", n)
    monkeypatch.setattr(standard, "_recurrence_result", original)
    build_standard(measure, size)


@pytest.mark.parametrize("name", ["hermite", "laguerre"])
@pytest.mark.parametrize("entry", [(0, 2), (1, 3), (2, 3), (4, 5), (5, 5)])
def test_a_perturbed_connection_entry_is_caught_by_the_second_stage_oracle(monkeypatch, name, entry):
    original = block._connection_to_second

    def perturbed(q_basis, rec2):
        cols = original(q_basis, rec2)
        # T[m][k] + 1/10^6 in the lifted column k: (10^6 ints[m] + den) / (10^6 den)
        m, k = entry
        ints, den = cols[k]
        cols[k] = ([x * 10**6 + (den if r == m else 0) for r, x in enumerate(ints)], den * 10**6)
        return cols

    monkeypatch.setattr(block, "_connection_to_second", perturbed)
    with pytest.raises(OracleMismatch, match="gamma matrix and second-measure moments") as info:
        build_sbo(*PAIRS[name], 2, 6)
    assert info.value.stage == "second_stage"
    # unchecked builds trust gamma
    build_sbo(*PAIRS[name], 2, 6, check=False)


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("name", ["hermite", "laguerre"])
def test_oracle_equivalence_runs_the_hankel_first_stage_oracle(monkeypatch, capsys, backend, name):
    checked = []
    original = gso.check_against_oracle

    def counting(gram, result, basis, stage):
        checked.append(stage)
        return original(gram, result, basis, stage)

    monkeypatch.setattr(gso, "check_against_oracle", counting)
    argv = ["verify", "--pair", name, "--N", "6", "--checks", "oracle_equivalence"]
    assert main(argv + (["--float"] if backend == "float" else [])) == 0
    capsys.readouterr()
    # one Hankel first stage per measure
    assert checked.count("inductive and determinant routes disagree") == 2


def test_oracle_equivalence_compares_the_two_first_stage_routes(monkeypatch):
    original = verification.hankel_build

    def skewed(measure, n_size, backend):
        basis = original(measure, n_size, backend=backend)
        polys = list(basis.polys)
        polys[3] = polys[3] + polys[0].scale(Fraction(1, 10**6))
        return dataclasses.replace(basis, polys=tuple(polys))

    monkeypatch.setattr(verification, "hankel_build", skewed)
    (report,) = verification.run_checks(*PAIRS["hermite"], 6, names=["oracle_equivalence"])
    assert (report["passed"], report["which"], report["n"]) == (False, "first_stage", 3)


def test_exact_det_and_orthonormal_tables_run_the_recurrence_route(monkeypatch, capsys):
    monkeypatch.setattr(standard, "hankel_build", lambda *a, **k: pytest.fail("Hankel route"))
    assert main(["table", "--pair", "laguerre", "--N", "8", "--normalization", "det"]) == 0
    capsys.readouterr()
    argv = ["table", "--pair", "laguerre", "--N", "8", "--i", "0", "--normalization", "orthonormal"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [payload[f"H_0_{n}"] for n in range(8)] == ["1"] * 8
    # one step up, the norm ratios are no longer squares
    assert main(argv[:-3] + ["1", "--normalization", "orthonormal"]) == 1
    assert json.loads(capsys.readouterr().err)["kind"] == "NotRepresentable"
