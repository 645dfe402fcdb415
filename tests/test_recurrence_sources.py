"""The first stage of every measure runs one monic recurrence
(``standard.monic_recurrence``): closed forms, the Chebyshev algorithm in
exact rationals for moment tables, and discretized Stieltjes on the
declared rule for numeric weights.  The Hankel route is only the
first-stage oracle of ``verify``."""

import inspect
import math
import pathlib
from fractions import Fraction

import pytest

from blockortho import (
    InsufficientMoments,
    KindMismatch,
    Measure,
    NotPositiveDefinite,
    NotSymmetric,
    OracleMismatch,
    build_sbo,
    build_sbos,
    block,
    build_standard,
    measures,
    standard,
)
from blockortho.measures import load_moments_csv, moments
from blockortho.standard import DET_NORMALIZED, MONIC

FIELDS = ("polys", "leading", "norms", "q_in_x", "gram_dets", "recurrence")
MIXTURE_CSV = pathlib.Path(__file__).parent / "golden" / "mixture-moments.csv"


def _mixture(max_order):
    """1/2 gaussian:1 + 1/2 gamma:2:3/2, a table no closed form covers."""
    a = moments(Measure.gaussian(1), max_order).mu
    b = moments(Measure.gamma_weight(2, Fraction(3, 2)), max_order).mu
    return Measure.from_moments([(x + y) / 2 for x, y in zip(a, b)])


def _legendre(nodes, symmetric=True):
    return Measure.numeric(lambda x: 1.0, (-1.0, 1.0), nodes=nodes, symmetric=symmetric)


@pytest.mark.parametrize("normalization", [MONIC, DET_NORMALIZED])
@pytest.mark.parametrize("n_size", [8, 16])
def test_a_table_builds_what_the_hankel_route_builds(n_size, normalization):
    table = _mixture(2 * n_size - 2)
    q = build_standard(table, n_size, normalization)
    hankel = standard.hankel_build(table, n_size, normalization)
    for field in FIELDS:
        assert getattr(q, field) == getattr(hankel, field), field


def test_the_golden_table_is_the_mixture():
    table = load_moments_csv(MIXTURE_CSV)
    assert table.weight.mu == _mixture(14).weight.mu


def test_a_table_pair_runs_no_hankel_route(monkeypatch):
    for name in ("hankel_build", "_hankel"):
        monkeypatch.setattr(standard, name, lambda *a, **k: pytest.fail("Hankel route"))
    monkeypatch.setattr(block, "gram_of", lambda *a: pytest.fail("gamma took the congruence"))
    tables = _mixture(14), Measure.from_moments(moments(Measure.gaussian(2), 14).mu)
    for backend in ("exact", "float"):
        build_sbos(*tables, range(9), 8, backend=backend)


def test_a_short_table_repeats_the_last_b():
    rec = standard.monic_recurrence(_mixture(14), 8)
    longer = standard.monic_recurrence(_mixture(15), 8)
    assert rec[:7] == longer[:7] and rec[7][1] == longer[7][1]
    assert rec[7][0] == rec[6][0] != longer[7][0]
    with pytest.raises(InsufficientMoments, match="table supplies orders <= 14, 16 requested"):
        build_standard(_mixture(14), 9)


def test_a_table_that_is_not_positive_fails_at_its_degree():
    with pytest.raises(NotPositiveDefinite) as info:
        measures.chebyshev_recurrence([1, 0, Fraction(1, 2), 0, Fraction(1, 5)], 3)
    assert info.value.degree == 2


def test_an_exact_basis_refuses_a_float_second_measure():
    floats = Measure.from_moments([float(m) for m in moments(Measure.gaussian(2), 14).mu])
    numeric = Measure.numeric(lambda x: math.exp(-x * x), (-9.0, 9.0), nodes=40)
    for measure2 in (floats, numeric):
        with pytest.raises(KindMismatch):
            build_sbo(Measure.gaussian(1), measure2, 1, 4)


def _flipped(module, name, update):
    """``module.<name>`` from its own source with the minus sign of
    ``update`` turned into a plus."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(update) == 1
    namespace = dict(vars(module))
    exec(source.replace(update, update.replace(" - ", " + ")), namespace)
    return namespace[name]


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("update", [" - b_k * cur[l]", " - c_k * prev[l]"])
def test_a_sign_flipped_chebyshev_update_is_caught(monkeypatch, update, backend):
    # the table keeps the recurrence its measure ran when it was made
    flipped = _flipped(measures, "chebyshev_recurrence", update)
    monkeypatch.setattr(measures, "chebyshev_recurrence", flipped)
    table = load_moments_csv(MIXTURE_CSV)
    with pytest.raises(OracleMismatch, match="recurrence and the measure's moments") as info:
        build_standard(table, 8, backend=backend)
    assert info.value.stage == "first_stage"


@pytest.mark.parametrize("update", [" - b_k * cur[l]", " - c_k * prev[l]"])
def test_a_sign_flipped_chebyshev_update_is_caught_in_a_float_second_measure(monkeypatch, update):
    # the float second stage integrates by the Gauss rule of this recurrence,
    # so the rule is checked against the second measure's moments first
    mu = [float(m) for m in load_moments_csv(MIXTURE_CSV).weight.mu]
    flipped = _flipped(measures, "chebyshev_recurrence", update)
    monkeypatch.setattr(measures, "chebyshev_recurrence", flipped)
    floats = Measure.from_moments(mu)
    with pytest.raises(OracleMismatch, match="recurrence and the measure's moments") as info:
        build_sbo(Measure.gaussian(1), floats, 2, 8, backend="float")
    assert info.value.stage == "second_stage"


def test_a_table_runs_the_chebyshev_algorithm_once(monkeypatch):
    # Measure.from_moments runs it over the whole table; builds slice that
    calls = []
    original = measures.chebyshev_recurrence

    def counted(mu, count):
        calls.append(len(mu))
        return original(mu, count)

    monkeypatch.setattr(measures, "chebyshev_recurrence", counted)
    monkeypatch.setattr(standard, "chebyshev_recurrence", counted)
    table = load_moments_csv(MIXTURE_CSV)
    built = [build_sbo(table, Measure.gaussian(2), 2, 8), build_sbo(Measure.gaussian(1), table, 2, 8)]
    assert calls == [len(table.weight.mu)]
    # slicing gives what a run on the build's own moments gives
    assert standard.monic_recurrence(table, 8) == original(moments(table, 14).mu, 8)
    monkeypatch.undo()
    assert built[0] == build_sbo(load_moments_csv(MIXTURE_CSV), Measure.gaussian(2), 2, 8)


def test_a_float_table_is_a_checked_second_measure():
    floats = Measure.from_moments([float(m) for m in load_moments_csv(MIXTURE_CSV).weight.mu])
    build_sbos(Measure.gaussian(1), floats, range(9), 8, backend="float")


@pytest.mark.parametrize(
    "measure",
    [_legendre(64), Measure.numeric(lambda x: math.exp(x), (0.0, 1.0), nodes=40)],
    ids=["legendre", "exponential"],
)
def test_a_sign_flipped_stieltjes_update_is_caught(monkeypatch, measure):
    monkeypatch.setattr(standard, "_stieltjes", _flipped(standard, "_stieltjes", " - c_k * q_prev"))
    with pytest.raises(OracleMismatch, match="recurrence and the measure's moments") as info:
        build_standard(measure, 8, backend="float")
    assert info.value.stage == "first_stage"


@pytest.mark.parametrize("n_size", [14, 20])
def test_the_legendre_weight_builds_to_the_float_size_limit(n_size):
    # the Hankel route failed its oracle from degree 13 on
    basis = build_standard(_legendre(64), n_size, backend="float")
    c = [C_n for _, _, C_n in basis.recurrence] + [basis.norms[-1] / basis.norms[-2]]
    for n in range(1, n_size):
        assert abs(c[n] - n * n / (4 * n * n - 1)) <= 1e-13


def test_a_symmetric_numeric_weight_is_checked_and_inferred():
    with pytest.raises(NotSymmetric):
        Measure.numeric(lambda x: math.exp(x), (-1.0, 1.0), nodes=16, symmetric=True)
    with pytest.raises(NotSymmetric):
        Measure.numeric(lambda x: 1.0, (-1.0, 2.0), nodes=16, symmetric=True)
    # a weight declared not symmetric is still inferred to be
    assert _legendre(16, symmetric=False).symmetric
    assert not Measure.numeric(lambda x: math.exp(x), (-1.0, 1.0), nodes=16).symmetric
    assert not Measure.numeric(lambda x: 1.0, (0.0, 1.0), nodes=16).symmetric
    # its odd moments and b_n are exactly zero
    legendre = _legendre(16)
    assert all(m == 0.0 for m in moments(legendre, 11).mu[1::2])
    assert all(b_n == 0.0 for b_n, _ in standard.monic_recurrence(legendre, 16))


def test_an_even_weight_declared_not_symmetric_builds():
    # with its odd moments at rounding level the float rule check failed at degree 1
    even = Measure.numeric(lambda x: math.exp(-x * x), (-9.0, 9.0), 60, symmetric=False)
    assert even.symmetric
    build_standard(even, 6, backend="float")


def test_a_k_node_rule_refuses_degree_k():
    five = _legendre(5)
    build_standard(five, 5, backend="float")
    with pytest.raises(NotPositiveDefinite) as info:
        build_standard(five, 6, backend="float")
    assert (info.value.stage, info.value.degree) == ("first_stage", 5)
