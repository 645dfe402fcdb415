import pytest

from blockortho import Measure
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


def test_negative_i_max_is_refused():
    # an empty range of constraint indices would pass without checking any basis
    with pytest.raises(ValueError, match="i_max"):
        check_orthogonality(Measure.gaussian(1), Measure.gaussian(2), 4, -3)
