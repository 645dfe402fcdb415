import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from blockortho import (
    InsufficientMoments,
    KindMismatch,
    Measure,
    MomentError,
    NonPositiveParameter,
    NotPositiveDefinite,
    NotSymmetric,
    Polynomial,
    build_standard,
    gauss_rule,
    hankel_matrix,
    inner_product_mu,
    load_moments_csv,
    load_moments_json,
    moments,
    monomial,
    truncated_support,
)
from blockortho.linalg import leading_minors


def pochhammer(z, n):
    """Rising factorial (z)_n = z (z+1) ... (z+n-1), the reference for the
    gamma moments' integer closed form."""
    out = Fraction(1)
    for k in range(n):
        out = out * (z + k)
    return out


def test_gaussian_moments():
    seq = moments(Measure.gaussian(1), 4)
    assert seq.mu == (1, 0, Fraction(1, 2), 0, Fraction(3, 4))
    assert seq.exact


def test_gamma_moments_are_factorials():
    seq = moments(Measure.gamma_weight(1, 1), 3)
    assert seq.mu == (1, 1, 2, 6)


@pytest.mark.parametrize("alpha, z", [(1, 1), (Fraction(2, 3), Fraction(1, 2)), (Fraction(5, 2), 3)])
def test_gamma_moments_equal_the_pochhammer_form(alpha, z):
    # the moments are running integer products; pochhammer is the closed form
    seq = moments(Measure.gamma_weight(alpha, z), 40)
    assert seq.mu == tuple(pochhammer(Fraction(z), n) / Fraction(alpha) ** n for n in range(41))


def test_zeroth_moment_is_one():
    for m in (Measure.gaussian(3), Measure.gamma_weight(2, Fraction(5, 2))):
        assert moments(m, 0).mu == (1,)


@pytest.mark.parametrize(
    "measure",
    [
        Measure.gaussian(1),
        Measure.gaussian(2),
        Measure.gamma_weight(1, 1),
        Measure.gamma_weight(2, 1),
        Measure.gamma_weight(1, Fraction(5, 2)),
    ],
)
def test_closed_forms_match_adaptive_quadrature(measure):
    seq = moments(measure, 6)
    lo, hi = truncated_support(measure, floor=1e-24)

    def weighted(n):
        return quad(lambda x: measure.weight_value(x) * x**n, lo, hi, limit=200)[0]

    c0 = weighted(0)
    for n in range(7):
        numeric = weighted(n) / c0
        assert abs(float(seq.mu[n]) - numeric) <= 1e-10 * max(1.0, abs(numeric))


def test_hankel_examples():
    g = hankel_matrix(moments(Measure.gaussian(1), 2), 2)
    assert g.entries == ((1, 0), (0, Fraction(1, 2)))
    assert hankel_matrix(moments(Measure.gaussian(1), 0), 1).entries == ((1,),)
    g3 = hankel_matrix(moments(Measure.gamma_weight(1, 1), 4), 3)
    assert g3.entries == ((1, 1, 2), (1, 2, 6), (2, 6, 24))


@pytest.mark.parametrize(
    "measure", [Measure.gaussian(1), Measure.gaussian(3), Measure.gamma_weight(1, 2)]
)
def test_hankel_minors_positive(measure):
    gram = hankel_matrix(moments(measure, 14), 8)
    for size, minor in enumerate(leading_minors(gram.rows())):
        if size:
            assert minor > 0


def test_hankel_insufficient_moments():
    with pytest.raises(InsufficientMoments):
        hankel_matrix(moments(Measure.gaussian(1), 2), 3)


def measure_inner_product(measure, p, q):
    """(p, q) under ``measure``, from its moments to order deg p + deg q."""
    return inner_product_mu(moments(measure, max(p.degree + q.degree, 0)), p, q)


def test_inner_product_examples():
    x = monomial(1)
    assert measure_inner_product(Measure.gaussian(1), x, x) == Fraction(1, 2)
    assert measure_inner_product(Measure.gaussian(1), Polynomial(()), x) == 0
    assert measure_inner_product(Measure.gaussian(2), monomial(0), monomial(2)) == Fraction(1, 4)


def test_inner_product_symmetric_exact():
    m = Measure.gamma_weight(1, 2)
    p = Polynomial((1, Fraction(2, 3), 0, 1))
    q = Polynomial((Fraction(-1, 2), 1))
    assert measure_inner_product(m, p, q) == measure_inner_product(m, q, p)


def fraction_inner_product(moms, p, q):
    """The term-by-term double sum inner_product_mu ran before it lifted exact
    data to integers, kept as its reference."""
    if p.is_zero or q.is_zero:
        return Fraction(0) if moms.exact else 0.0
    total = None
    for j, a in enumerate(p.coeffs):
        for k, b in enumerate(q.coeffs):
            term = a * b * moms[j + k]
            total = term if total is None else total + term
    return total


MOMENT_TABLES = [
    moments(Measure.gaussian(Fraction(3, 2)), 16),
    moments(Measure.gamma_weight(Fraction(2, 3), Fraction(5, 2)), 16),
    # nine point masses (i + 1) / 45 at x = i / 3: a tabulated rational table
    moments(
        Measure.from_moments(
            [sum(Fraction(i + 1, 45) * Fraction(i, 3) ** k for i in range(9)) for k in range(17)]
        ),
        16,
    ),
]


@st.composite
def polynomial_pairs(draw):
    """Two polynomials of degree <= 8: rational, integer or zero coefficients."""
    integer = draw(st.booleans())
    entry = st.integers(-9, 9) if integer else st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
    return tuple(
        Polynomial(tuple(draw(st.lists(entry, max_size=9)))) for _ in range(2)
    )


@given(st.sampled_from(MOMENT_TABLES), polynomial_pairs())
@settings(max_examples=300, deadline=None)
def test_lifted_inner_product_equals_the_fraction_double_sum(moms, pq):
    p, q = pq
    got = inner_product_mu(moms, p, q)
    assert got == fraction_inner_product(moms, p, q)
    assert type(got) is Fraction
    # the float branch is the double sum itself, bit for bit
    p_f, q_f, moms_f = p.to_float(), q.to_float(), moms.to_float()
    expect = fraction_inner_product(moms_f, p_f, q_f)
    assert inner_product_mu(moms_f, p_f, q_f) == expect
    assert type(inner_product_mu(moms_f, p_f, q_f)) is type(expect)


def test_symmetric_measure_kills_mixed_parity_products():
    m = Measure.gaussian(2)
    even = Polynomial((1, 0, Fraction(3, 7)))
    odd = Polynomial((0, Fraction(1, 3), 0, 2))
    assert measure_inner_product(m, even, odd) == 0


def test_parameter_guards():
    with pytest.raises(NonPositiveParameter):
        Measure.gaussian(0)
    with pytest.raises(NonPositiveParameter):
        Measure.gamma_weight(1, Fraction(-1, 2))


def test_tabulated_moments_roundtrip(tmp_path):
    seq = moments(Measure.gamma_weight(1, 1), 6)
    csv_path = tmp_path / "m.csv"
    csv_path.write_text(
        "n,mu_n\n" + "\n".join(f"{n},{m}" for n, m in enumerate(seq.mu)) + "\n"
    )
    measure = load_moments_csv(csv_path, domain=(0, math.inf))
    assert moments(measure, 6).mu == seq.mu
    with pytest.raises(InsufficientMoments):
        moments(measure, 7)

    json_path = tmp_path / "m.json"
    json_path.write_text(json.dumps({"c0": "1", "mu": [str(m) for m in seq.mu]}))
    measure2 = load_moments_json(json_path)
    assert moments(measure2, 6).mu == seq.mu
    assert moments(measure2, 6).exact


def test_tabulated_positivity_guard():
    with pytest.raises(NotPositiveDefinite):
        Measure.from_moments([Fraction(1), Fraction(2), Fraction(1)])


def test_symmetric_flag_guard():
    with pytest.raises(NotSymmetric):
        Measure.from_moments([Fraction(1), Fraction(1), Fraction(2)], symmetric=True)


def test_symmetric_inferred_from_odd_moments():
    m = Measure.from_moments([Fraction(1), 0, Fraction(1, 2), 0, Fraction(3, 4)])
    assert m.symmetric


def test_numeric_weight_matches_closed_form():
    numeric = Measure.numeric(lambda x: math.exp(-x * x), (-9.0, 9.0), nodes=80)
    seq = moments(numeric, 6)
    exact = moments(Measure.gaussian(1), 6)
    assert not seq.exact
    for a, b in zip(seq.mu, exact.mu):
        assert abs(a - float(b)) < 1e-12


def test_numeric_weight_needs_finite_interval():
    with pytest.raises(MomentError):
        Measure.numeric(lambda x: 1.0, (0.0, math.inf), nodes=10)


def test_truncated_support():
    lo, hi = truncated_support(Measure.gaussian(1))
    assert lo < -6 and hi > 6
    assert Measure.gaussian(1).weight_value(hi) < 1e-17
    lo, hi = truncated_support(Measure.gamma_weight(1, 1))
    assert lo == 0.0 and hi > 40


def test_integer_moment_entries_are_exact():
    # plain ints enter as Fractions, so int pivots never divide to floats
    written = Measure.from_moments([1, 0, Fraction(1, 3), 0, Fraction(1, 5)])
    fractions = Measure.from_moments([Fraction(1), Fraction(0), Fraction(1, 3), Fraction(0),
                                      Fraction(1, 5)])
    assert all(type(m) is Fraction for m in written.weight.mu)
    got, want = build_standard(written, 3), build_standard(fractions, 3)
    assert got.polys == want.polys and got.norms == want.norms
    assert gauss_rule(written, 2) == gauss_rule(fractions, 2)


@pytest.mark.parametrize("table", [[1, 0, 0.5, 0, 0.75], [1.0, 0, 0.5, 0, 0.75]])
def test_tables_mixing_ints_and_floats_are_refused(table):
    with pytest.raises(KindMismatch):
        build_standard(Measure.from_moments(table), 3)


def test_zero_denominator_parameters_are_value_errors():
    for make in (lambda: Measure.gaussian("1/0"), lambda: Measure.gamma_weight(1, "0/0")):
        with pytest.raises(ValueError, match="zero denominator"):
            make()


@pytest.mark.parametrize(
    "measure, c0",
    [
        # Gamma(200) and 200.0**200 overflow, their quotient does not
        (Measure.gamma_weight(200, 200), math.exp(math.lgamma(200) - 200 * math.log(200))),
        # float(1e-400) is 0.0, but sqrt(pi / 1e-400) is in range
        (Measure.gaussian("1e-400"), math.sqrt(math.pi) * 1e200),
        (Measure.gaussian("1e400"), math.sqrt(math.pi) * 1e-200),
        # outside the float range
        (Measure.gamma_weight(1, 200), None),
        (Measure.gamma_weight("1e-400", 2), None),
        # float(1e-400) is 0.0, where Gamma and its logarithm have a pole
        (Measure.gamma_weight(1, "1e-400"), None),
    ],
)
def test_closed_form_c0_at_extreme_parameters(measure, c0):
    got = moments(measure, 2).c0
    assert got is None if c0 is None else math.isclose(got, c0, rel_tol=1e-12)


def test_float_moments_keep_a_c0_outside_the_float_range():
    seq = moments(Measure.gamma_weight(1, 200), 2, backend="float")
    assert (seq.c0, seq.mu) == (None, (1.0, 200.0, 40200.0))
