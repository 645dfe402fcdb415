"""Exact rationals made once, against Fraction references.

``reference_moments`` and ``reference_monic_recurrence`` are the Fraction
loops that gave the gaussian and gamma moments (``measures.moments``) and
recurrence coefficients (``standard.monic_recurrence``) before each value
became one Fraction of integers.  ``reference_scaled_recurrence`` is the
loop that scaled the first stage's recurrence by its leading coefficients
(``standard._scaled_recurrence``).  Exact values must equal them, float
ones bit for bit.  The first stage folds its leading coefficients into its
exact coefficients, the second stage takes P = Q[:, i:] a through Q's rows
lifted once per build (``linalg._lifted_mat_mul``), and the subleading
identities read per-build Q data; the properties and mutants below guard
all three.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockortho import Measure, OracleMismatch, block, build_sbos, linalg, standard
from blockortho.block import sbo_parity_build
from blockortho.measures import GaussianWeight, moments
from blockortho.polynomials import from_columns
from blockortho.scalars import EXACT, FLOAT, as_kind, zero
from blockortho.standard import monic_recurrence
from test_block import measure_pairs

RATIONALS = st.builds(Fraction, st.integers(1, 12), st.integers(1, 12))
SIGNED = st.builds(Fraction, st.integers(-12, 12).filter(bool), st.integers(1, 12))


def double_factorial(n):
    """(n)!! with the empty-product convention for n <= 0."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def reference_moments(measure, max_order):
    """mu_0..mu_max_order of a gaussian or gamma measure in Fraction arithmetic."""
    w = measure.weight
    if isinstance(w, GaussianWeight):
        mu = []
        for n in range(max_order + 1):
            if n % 2:
                mu.append(Fraction(0))
            else:
                k = n // 2
                mu.append(Fraction(double_factorial(2 * k - 1)) / (2 * w.alpha) ** k)
        return tuple(mu)
    # mu_n = (z)_n / alpha^n as a running product
    mu = [Fraction(1)]
    for n in range(1, max_order + 1):
        mu.append(mu[-1] * (w.z + n - 1) / w.alpha)
    return tuple(mu)


def reference_monic_recurrence(measure, count):
    """(b_n, c_n) of a gaussian or gamma measure in Fraction arithmetic."""
    w = measure.weight
    if isinstance(w, GaussianWeight):
        return tuple((Fraction(0), n / (2 * w.alpha)) for n in range(count))
    return tuple(
        ((2 * n + w.z) / w.alpha, n * (n + w.z - 1) / w.alpha**2) for n in range(count)
    )


def reference_scaled_recurrence(rec, ks, backend):
    """(A_m, B_m, C_m) of Q_m = k_m q_m, term by term in the backend's scalars."""
    scaled = []
    for m, (b_m, c_m) in enumerate(rec):
        a_m = ks[m + 1] / ks[m]
        c_m = ks[m + 1] * as_kind(c_m, backend) / ks[m - 1] if m else zero(backend)
        scaled.append((a_m, -a_m * as_kind(b_m, backend), c_m))
    return tuple(scaled)


@st.composite
def closed_measures(draw):
    alpha = draw(RATIONALS)
    if draw(st.booleans()):
        return Measure.gaussian(alpha)
    return Measure.gamma_weight(alpha, draw(RATIONALS))


@given(closed_measures(), st.integers(0, 60))
@settings(max_examples=300, deadline=None)
def test_the_integer_closed_forms_equal_the_fraction_loops(measure, count):
    mu = moments(measure, count).mu
    assert mu == reference_moments(measure, count)
    assert all(type(m) is Fraction for m in mu)
    rec = monic_recurrence(measure, count)
    assert rec == reference_monic_recurrence(measure, count)
    assert all(type(x) is Fraction for term in rec for x in term)


@given(closed_measures(), st.integers(1, 12), st.data())
@settings(max_examples=150, deadline=None)
def test_the_folded_first_stage_equals_the_scaled_monic_one(measure, size, data):
    rec = monic_recurrence(measure, size)
    ks = data.draw(st.lists(SIGNED, min_size=size, max_size=size), label="ks")
    monic = standard._recurrence_result(rec, EXACT)
    folded = standard._recurrence_result(rec, EXACT, leading=ks)
    assert [list(row) for row in folded.coeffs] == [
        [x * k for x, k in zip(row, ks)] for row in monic.coeffs
    ]
    assert all(type(x) is Fraction for row in folded.coeffs for x in row)
    assert (folded.norms, folded.gram_dets, list(folded.factors)) == (
        monic.norms, monic.gram_dets, ks
    )
    scaled = standard._scaled_recurrence(rec[: size - 1], ks, EXACT)
    assert scaled == reference_scaled_recurrence(rec[: size - 1], ks, EXACT)
    assert all(type(x) is Fraction for term in scaled for x in term)
    # float coefficients are the monic ones times k, as the assembly took them
    ks_f = [float(k) for k in ks]
    monic_f = standard._recurrence_result(rec, FLOAT)
    folded_f = standard._recurrence_result(rec, FLOAT, leading=ks_f)
    assert [[x.hex() for x in row] for row in folded_f.coeffs] == [
        [(x if m > d else x * k).hex() for d, (x, k) in enumerate(zip(row, ks_f))]
        for m, row in enumerate(monic_f.coeffs)
    ]
    scaled_f = standard._scaled_recurrence(rec[: size - 1], ks_f, FLOAT)
    assert [[x.hex() for x in t] for t in scaled_f] == [
        [x.hex() for x in t] for t in reference_scaled_recurrence(rec[: size - 1], ks_f, FLOAT)
    ]


@st.composite
def exact_matrices(draw):
    rows, inner, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6)), draw(st.integers(0, 6))
    skip = draw(st.integers(0, 3))
    entry = st.one_of(st.just(Fraction(0)), SIGNED, st.integers(-5, 5))
    a = draw(st.lists(st.lists(entry, min_size=skip + inner, max_size=skip + inner),
                      min_size=rows, max_size=rows))
    b = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                      min_size=inner, max_size=inner))
    return a, b, skip


@given(exact_matrices())
@settings(max_examples=300, deadline=None)
def test_the_lifted_product_equals_mat_mul(case):
    a, b, skip = case
    a_rows = [linalg._lifted_span(row) for row in a]
    b_cols = [linalg._lifted_span(col) for col in zip(*b)]
    assert linalg._lifted_mat_mul(a_rows, b_cols, skip) == linalg.mat_mul(
        [row[skip:] for row in a], b
    )


def _assert_pre_lifted(basis):
    i, q_basis = basis.i, basis.q_basis
    coeffs = [row[i:] for row in basis.p_in_q[i:]]
    q_cols = [row[i:] for row in q_basis.q_in_x]
    expect = linalg.mat_mul(q_cols, coeffs)
    q_rows = [linalg._lifted_span(row) for row in q_basis.q_in_x]
    a_cols = [linalg._lifted_span(col) for col in zip(*coeffs)]
    assert linalg._lifted_mat_mul(q_rows, a_cols, i) == expect
    assert basis.monic_polys == from_columns(expect)


@given(measure_pairs(), st.integers(1, 9), st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_every_p_product_of_a_build_equals_mat_mul(pair, size, lead, data):
    q_leading = None
    if lead:
        q_leading = data.draw(st.lists(SIGNED, min_size=size, max_size=size), label="k")
    bases = build_sbos(*pair, range(size + 1), size, q_leading=q_leading)
    for basis in bases.values():
        _assert_pre_lifted(basis)
    if pair[0].symmetric:
        for i in range(size + 1):
            _assert_pre_lifted(sbo_parity_build(*pair, i, size))


PAIRS = {
    "hermite": (Measure.gaussian(1), Measure.gaussian(2)),
    "laguerre": (Measure.gamma_weight(1, 1), Measure.gamma_weight(2, 1)),
}


@pytest.mark.parametrize("name", sorted(PAIRS))
@pytest.mark.parametrize("drop", [1, 2])
@pytest.mark.parametrize("i, n", [(0, 2), (0, 5), (2, 3), (2, 4), (3, 5), (5, 5)])
def test_a_nudged_subleading_coefficient_fails_the_identities(monkeypatch, name, drop, i, n):
    size = 6
    original = block.from_columns

    def perturbed(matrix):
        # the monic P_{i;n} of a basis with size - i columns; nudge its x^(n - drop)
        if matrix and len(matrix[0]) == size - i:
            matrix = [list(row) for row in matrix]
            matrix[n - drop][n - i] += Fraction(1, 10**6)
        return original(matrix)

    monkeypatch.setattr(block, "from_columns", perturbed)
    with pytest.raises(OracleMismatch) as info:
        build_sbos(*PAIRS[name], range(size + 1), size)
    assert str(info.value) == f"subleading-coefficient identities fail at degree {n}"
    assert (info.value.stage, info.value.degree) == ("second_stage", n)
