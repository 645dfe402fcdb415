import dataclasses
import json
from fractions import Fraction

import pytest

from blockortho import (
    Measure,
    Polynomial,
    analysis,
    block,
    gso,
    hermite_pair,
    laguerre_pair,
    linalg,
    projectors,
    standard,
    verification,
)
from blockortho.cli import main
from blockortho.verification import ALL_CHECKS, check_orthogonality, run_checks


PAIRS = {
    "hermite": (Measure.gaussian(1), Measure.gaussian(2)),
    "laguerre": (Measure.gamma_weight(1, 1), Measure.gamma_weight(2, 1)),
}


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


@pytest.mark.parametrize(
    "backend, nudge", [("exact", Fraction(1, 10**6)), ("float", 1e-6)], ids=["exact", "float"]
)
def test_oracle_equivalence_compares_b_with_the_build(monkeypatch, backend, nudge):
    # b of each degree, read off the determinants of gamma_i, must be the
    # build's q_in_p column, entry by entry
    pair = (Measure.gaussian(1), Measure.gaussian(2))
    assert verification.check_oracle_equivalence(*pair, 6, backend=backend)["passed"]
    original = verification.build_sbos

    def nudged(*args, **kwargs):
        bases = original(*args, **kwargs)
        rows = [list(row) for row in bases[1].q_in_p]
        rows[2][4] += nudge
        bases[1] = dataclasses.replace(bases[1], _q_in_p=tuple(map(tuple, rows)))
        return bases

    monkeypatch.setattr(verification, "build_sbos", nudged)
    report = verification.check_oracle_equivalence(*pair, 6, backend=backend)
    assert report == {
        "check": "oracle_equivalence", "passed": False, "i": 1, "n": 4, "m": 2, "which": "b"
    }


@pytest.mark.parametrize("measures", [hermite_pair, laguerre_pair()], ids=["hermite", "laguerre"])
def test_exact_sbo_oracle_runs_one_elimination_per_gamma(monkeypatch, measures):
    sizes = []
    original = linalg.LiftedElimination.__init__

    def counting(self, matrix):
        sizes.append(len(matrix))
        original(self, matrix)

    monkeypatch.setattr(linalg.LiftedElimination, "__init__", counting)
    report = verification.check_oracle_equivalence(*measures, 6)
    assert report["passed"] is True
    # gamma_0, gamma_1 and gamma_2 of the N = 6 build, each eliminated once
    assert sizes == [6, 5, 4]
    monkeypatch.undo()
    # and the shared elimination gives what one per degree gives
    for i, basis in block.build_sbos(*measures, range(3), 6).items():
        shared = linalg.LiftedElimination(basis.gamma.entries)
        for n in basis.degrees():
            args = basis.q_basis, basis.mu2, i, n
            alone = block.sbo_determinant_oracle(*args, gamma=basis.gamma)
            read_off = block.sbo_determinant_oracle(*args, gamma=basis.gamma, elimination=shared)
            assert read_off == alone
            assert read_off.b_column == alone.b_column == tuple(
                basis.q_in_p[m][n] for m in range(i, n + 1)
            )


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


def test_float_oracle_equivalence_passes_on_a_float_build_equal_to_exact_rounded(capsys):
    # the gamma:1:50 pair's float build is its exact build rounded; the
    # determinant routes run exactly on its rounded moments and gamma_i
    argv = ["verify", "--measure1", "gamma:1:50", "--measure2", "gamma:2:50", "--N", "6",
            "--float", "--checks", "oracle_equivalence"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["reports"] == [
        {"check": "oracle_equivalence", "n": 6, "passed": True}
    ]


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
def test_inner0_suite_projects_each_polynomial_once(monkeypatch, pair):
    # one product per projector for all P_{2;n}, and no projection per pair
    calls = []
    original = projectors.ProjectorMatrix.apply_all

    def counting(self, polys):
        calls.append((self.label, len(polys)))
        return original(self, polys)

    monkeypatch.setattr(projectors.ProjectorMatrix, "apply_all", counting)
    measures = PAIRS[pair]
    assert verification.check_inner0(*measures, 6)["passed"]
    assert calls == [("constraint", 4), ("complement", 4)]


@pytest.mark.parametrize("backend, nudge", [("exact", Fraction(1, 10**12)), ("float", 1e-6)])
@pytest.mark.parametrize("pair", ["hermite", "laguerre"])
@pytest.mark.parametrize("row, col", [(0, 3), (2, 5)])
def test_projector_suite_fails_on_a_nudged_complement_entry(monkeypatch, pair, backend, nudge, row, col):
    measures = PAIRS[pair]
    assert verification.check_projectors(*measures, 6, backend)["passed"]
    original = projectors._complement_of

    def nudged(onto, backend):
        comp = original(onto, backend)
        entries = [list(r) for r in comp.entries]
        entries[row][col] += nudge * max(1, abs(entries[row][col]))
        return projectors.ProjectorMatrix(tuple(map(tuple, entries)), comp.label)

    monkeypatch.setattr(projectors, "_complement_of", nudged)
    report = verification.check_projectors(*measures, 6, backend)
    # from i = 1 on, row 0 of H_1 C reads rows 0 and 2 of C through mu_0 and mu_2
    assert report == {"check": "projectors", "passed": False, "i": 1, "which": "complement"}


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
    pair = (Measure.gaussian(1), Measure.gaussian(2))
    assert verification.check_lemma_checkerboard(*pair, 7)["passed"]
    q_basis = standard.build_standard(pair[0], 7)
    original = gso.checkerboard_det
    for i in range(4):
        gamma = [[Fraction(x) for x in row] for row in block.gamma_matrix(q_basis, pair[1], i).entries]

        def changed(matrix, last_row_exempt=False, gamma=gamma):
            # gamma_i's determinant taken with its (0, 0) entry, in the even
            # block, changed; its block determinants as they are
            det, even, odd = original(matrix, last_row_exempt)
            if matrix == gamma:
                m = [list(row) for row in matrix]
                m[0][0] += 1
                det = original(m, last_row_exempt)[0]
            return det, even, odd

        monkeypatch.setattr(gso, "checkerboard_det", changed)
        report = verification.check_lemma_checkerboard(*pair, 7)
        assert report == {"check": "lemma_checkerboard", "passed": False, "which": "gamma", "i": i}


def test_checkerboard_suite_shifts_the_off_parity_entries_of_a_bordered_row(monkeypatch):
    pair = (Measure.gaussian(1), Measure.gaussian(2))
    original = gso.checkerboard_det

    def reads_them(matrix, last_row_exempt=False):
        # a determinant that, wrongly, moves with the exempt entries
        det, even, odd = original(matrix, last_row_exempt)
        if last_row_exempt:
            last = len(matrix) - 1
            det += sum(x for c, x in enumerate(matrix[last]) if (last + c) % 2)
        return det, even, odd

    monkeypatch.setattr(gso, "checkerboard_det", reads_them)
    report = verification.check_lemma_checkerboard(*pair, 7)
    assert report == {
        "check": "lemma_checkerboard", "passed": False, "which": "exempt_invariance", "i": 0
    }


@pytest.mark.parametrize("pair", ["hermite", "laguerre"])
def test_every_report_carries_the_size_its_suite_ran_at(capsys, pair):
    # the size table of the README, read from the output at N = 12
    sizes = {
        "orthogonality": 12, "boundary_identities": 12, "recurrence": 12,
        "oracle_equivalence": 6, "inner0": 6, "parity": 7, "lemma_checkerboard": 7,
        "projectors": 8, "zeros": 8, "integral_representations": 4,
    }
    assert main(["verify", "--pair", pair, "--N", "12"]) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert {r["check"]: r["n"] for r in reports} == sizes
    assert not any("samples" in r for r in reports)
    (lemma,) = [r for r in reports if r["check"] == "lemma_checkerboard"]
    assert ("skipped" in lemma) is (pair == "laguerre")
