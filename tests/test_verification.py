import dataclasses
import json
from fractions import Fraction

import pytest

from blockortho import Measure, Polynomial, analysis, block, gso, projectors, verification
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
        # a float pass hands its b, diag(f) B, to the result beside a
        name = "coeffs" if field == "coeffs" else "_inverse"
        return dataclasses.replace(result, **{name: tuple(map(tuple, rows))})

    pair = (Measure.gaussian(1), Measure.gaussian(2))
    assert verification.check_oracle_equivalence(*pair, 6, backend="float")["passed"]
    monkeypatch.setattr(gso, "gram_schmidt", nudged)
    report = verification.check_oracle_equivalence(*pair, 6, backend="float")
    assert report == {"check": "oracle_equivalence", "passed": False, **expect}


def test_exact_oracle_trial_compares_b_with_its_oracle(monkeypatch):
    # the exact trials certify a, h and Z, and check b by its bordered determinants
    original = gso.gram_schmidt

    def nudged(gram, factors):
        result = original(gram, factors)
        rows = [list(row) for row in result.inverse_coeffs]
        rows[0][1] += Fraction(1, 10**6)
        result.__dict__["inverse_coeffs"] = tuple(map(tuple, rows))
        return result

    monkeypatch.setattr(gso, "gram_schmidt", nudged)
    report = verification.check_oracle_equivalence(Measure.gaussian(1), Measure.gaussian(2), 6)
    assert report == {
        "check": "oracle_equivalence", "passed": False, "trial": 0, "n": 1, "m": 0, "which": "b"
    }


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


@pytest.mark.parametrize("pair, n_size", [("laguerre", 12), ("hermite", 20)])
def test_float_verify_certifies_orthogonality_at_large_n(capsys, pair, n_size):
    # summed over monomial moments in floats these shapes read residuals of
    # about 1e7 times the rounding, above FLOAT_RTOL; by Gauss rules they pass
    assert main(["verify", "--float", "--pair", pair, "--N", str(n_size)]) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    (report,) = [r for r in reports if r["check"] == "orthogonality"]
    assert report["passed"] is True and "skipped" not in report


@pytest.mark.parametrize("m, n", [(3, 5), (2, 7)])
def test_float_orthogonality_catches_a_nudged_connection(monkeypatch, m, n):
    pair = (Measure.gaussian(1), Measure.gaussian(2))
    assert check_orthogonality(*pair, 8, 4, backend="float")["passed"]
    original = verification.build_sbos

    def nudged(*args, **kwargs):
        bases = original(*args, **kwargs)
        rows = [list(row) for row in bases[2].p_in_q]
        rows[m][n] += 1e-6 * max(abs(rows[k][n]) for k in range(n + 1))
        bases[2] = dataclasses.replace(bases[2], p_in_q=tuple(map(tuple, rows)))
        return bases

    monkeypatch.setattr(verification, "build_sbos", nudged)
    report = check_orthogonality(*pair, 8, 4, backend="float")
    # the first pair reported is (m, n) of the Gram matrix or its mirror
    assert (report["passed"], report["i"]) == (False, 2)
    assert n in (report["n"], report.get("m"))


def test_float_orthogonality_reads_the_monomial_coefficients(monkeypatch):
    pair = (Measure.gaussian(1), Measure.gaussian(2))
    original = verification.build_sbos

    def nudged(*args, **kwargs):
        bases = original(*args, **kwargs)
        polys = list(bases[2].monic_polys)
        polys[1] = _nudged(polys[1])
        bases[2] = dataclasses.replace(bases[2], monic_polys=tuple(polys))
        return bases

    monkeypatch.setattr(verification, "build_sbos", nudged)
    report = check_orthogonality(*pair, 8, 4, backend="float")
    assert report == {"check": "orthogonality", "passed": False, "i": 2, "n": 3, "which": "monomial"}


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


@pytest.mark.parametrize("pair", ["hermite", "laguerre"])
def test_integral_suite_fails_on_a_perturbed_gauss_weight(monkeypatch, capsys, pair):
    argv = ["verify", "--pair", pair, "--N", "6", "--checks", "integral_representations"]
    assert main(argv) == 0
    original = analysis.gauss_rule

    def perturbed(measure, n_nodes):
        nodes, weights = original(measure, n_nodes)
        return nodes, (weights[0] * (1 + 1e-6),) + weights[1:]

    capsys.readouterr()
    monkeypatch.setattr(analysis, "gauss_rule", perturbed)
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)["reports"][0]
    assert report["check"] == "integral_representations" and report["passed"] is False


@pytest.mark.parametrize("pair", ["hermite", "laguerre"])
def test_only_a_collapsed_gauss_rule_skips_the_integral_suite(monkeypatch, capsys, pair):
    argv = ["verify", "--pair", pair, "--N", "6", "--checks", "integral_representations"]
    assert main(argv) == 0
    (report,) = json.loads(capsys.readouterr().out)["reports"]
    assert report["passed"] is True and "skipped" not in report
    original = analysis.gauss_rule

    def negative(measure, n_nodes):
        nodes, weights = original(measure, n_nodes)
        return nodes, (-weights[0],) + weights[1:]

    monkeypatch.setattr(analysis, "gauss_rule", negative)
    assert main(argv) == 1
    (report,) = json.loads(capsys.readouterr().out)["reports"]
    assert report["passed"] is False
    assert report["error"] == "InsufficientNodes: quadrature weights must be positive"


def test_checkerboard_suite_fails_on_a_changed_even_block_entry(monkeypatch):
    original = gso.checkerboard_det

    def changed(matrix, last_row_exempt=False):
        # the determinant of a matrix whose (0, 0) entry, in the even
        # block, differs from the one the block determinants are taken of
        _, even, odd = original(matrix, last_row_exempt)
        m = [list(row) for row in matrix]
        m[0][0] += 1
        return original(m, last_row_exempt)[0], even, odd

    assert verification.check_lemma_checkerboard()["passed"]
    monkeypatch.setattr(gso, "checkerboard_det", changed)
    report = verification.check_lemma_checkerboard()
    assert report["passed"] is False and "trial" in report
