from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockortho import (
    BlockOrthoError,
    ConditioningError,
    Measure,
    MeasureMismatch,
    DependentConstraints,
    NotSymmetric,
    Polynomial,
    build_general_bo,
    build_sbo,
    build_standard,
    cross_i_connection,
    expand_x_times_p,
    gamma_matrix,
    inner_product_mu,
    monomial,
    monomial_connection,
    normalize_sbo,
    parity_split_build,
    sbo_determinant_oracle,
    sbo_parity_build,
)
from blockortho.block import ORTHONORMAL, DET_NORMALIZED
from blockortho.gso import ORACLE_RTOL
from blockortho.measures import moments
from blockortho.polynomials import combine

P24 = Polynomial((Fraction(1, 8), 0, Fraction(-7, 4), 0, 1))
P12 = Polynomial((Fraction(1, 2), Fraction(-5, 2), 1))


def test_gamma_matrix_hermite_pair(hermite_pair):
    m1, m2 = hermite_pair
    q = build_standard(m1, 4)
    gamma = gamma_matrix(q, m2, 2)
    assert gamma.entries[0][0] == Fraction(3, 16)
    assert gamma.entries[0][1] == 0
    assert gamma.entries[1][1] == Fraction(15, 64)


def test_gamma_matrix_parity_zeros(hermite_pair):
    m1, m2 = hermite_pair
    gamma = gamma_matrix(build_standard(m1, 6), m2, 0)
    for j in range(6):
        for k in range(6):
            if (j + k) % 2:
                assert gamma.entries[j][k] == 0


def test_gamma_matrix_same_measure_is_diagonal():
    m = Measure.gamma_weight(1, 2)
    q = build_standard(m, 5)
    gamma = gamma_matrix(q, m, 0)
    for j in range(5):
        for k in range(5):
            expect = q.norms[j] if j == k else 0
            assert gamma.entries[j][k] == expect


def test_hermite_pair_block_quartic(hermite_pair):
    basis = build_sbo(*hermite_pair, 2, 5)
    assert basis.poly(4) == P24


def test_laguerre_pair_block_quadratic(laguerre_pair):
    basis = build_sbo(*laguerre_pair, 1, 3)
    assert basis.poly(2) == P12
    # the defining constraint: zero average against the first weight
    mu1 = moments(laguerre_pair[0], 2)
    assert inner_product_mu(mu1, monomial(0), basis.poly(2)) == 0


def test_first_block_polynomial_is_first_stage(hermite_pair, laguerre_pair):
    for pair in (hermite_pair, laguerre_pair):
        q = build_standard(pair[0], 6)
        for i in range(6):
            basis = build_sbo(*pair, i, 6)
            assert basis.monic_poly(i) == q.polys[i].monic()


def test_empty_cases(hermite_pair):
    full = build_sbo(*hermite_pair, 5, 5)
    assert full.monic_polys == ()
    assert list(full.degrees()) == []


@pytest.mark.parametrize(
    "build",
    [
        lambda m1, m2: build_standard(m1, 0),
        lambda m1, m2: parity_split_build(m1, 0),
        lambda m1, m2: build_sbo(m1, m2, 0, 0),
        lambda m1, m2: sbo_parity_build(m1, m2, 0, 0),
    ],
    ids=["build_standard", "parity_split_build", "build_sbo", "sbo_parity_build"],
)
def test_every_builder_rejects_an_empty_size(build, hermite_pair):
    with pytest.raises(ValueError, match="at least one polynomial"):
        build(*hermite_pair)


def test_zero_index_reduces_to_second_measure(hermite_pair, laguerre_pair):
    for pair in (hermite_pair, laguerre_pair):
        basis = build_sbo(*pair, 0, 7)
        q2 = build_standard(pair[1], 7)
        for n in range(7):
            assert basis.monic_poly(n) == q2.polys[n].monic()
            assert basis.monic_norm(n) == q2.norms[n] / q2.leading[n] ** 2


def test_determinant_oracle_equivalence(hermite_pair, laguerre_pair):
    for pair in (hermite_pair, laguerre_pair):
        q = build_standard(pair[0], 8)
        mu2 = moments(pair[1], 14)
        for i in range(8):
            basis = build_sbo(*pair, i, 8)
            for n in basis.degrees():
                oracle = sbo_determinant_oracle(q, mu2, i, n)
                assert oracle.poly == basis.monic_poly(n)
                assert oracle.gram_det == basis.Z(n)
                assert oracle.norm == basis.monic_norm(n)
                assert oracle.a_column == tuple(
                    basis.p_in_q[m][n] for m in range(i, n + 1)
                )
                assert oracle.b_column == tuple(
                    basis.q_in_p[m][n] for m in range(i, n + 1)
                )


def test_oracle_trivial_case(laguerre_pair):
    q = build_standard(laguerre_pair[0], 4)
    oracle = sbo_determinant_oracle(q, laguerre_pair[1], 3, 3)
    assert oracle.poly == q.polys[3].monic()
    gamma = gamma_matrix(q, laguerre_pair[1], 3)
    assert oracle.gram_det == gamma.entries[0][0]


def test_monic_output_independent_of_first_stage_scaling(hermite_pair):
    plain = build_sbo(*hermite_pair, 2, 6)
    scaled = build_sbo(
        *hermite_pair, 2, 6, q_leading=[Fraction(k + 1, 2) for k in range(6)]
    )
    for n in plain.degrees():
        assert plain.monic_poly(n) == scaled.monic_poly(n)


def test_constraint_and_mutual_orthogonality(hermite_pair, laguerre_pair):
    for pair in (hermite_pair, laguerre_pair):
        mu1 = moments(pair[0], 18)
        for i in range(5):
            basis = build_sbo(*pair, i, 10)
            for n in basis.degrees():
                p = basis.monic_poly(n)
                for m in range(i):
                    assert inner_product_mu(mu1, monomial(m), p) == 0
                for m in basis.degrees():
                    expect = basis.monic_norm(n) if m == n else 0
                    assert inner_product_mu(basis.mu2, basis.monic_poly(m), p) == expect
                assert basis.Z(n) > 0
                assert basis.monic_norm(n) > 0


def test_norm_determinant_identity(laguerre_pair):
    basis = build_sbo(*laguerre_pair, 2, 7)
    for n in basis.degrees():
        assert basis.monic_norm(n) == basis.Z(n) / basis.Z(n - 1)


def test_normalizations(hermite_pair):
    basis = build_sbo(*hermite_pair, 2, 6)
    again = normalize_sbo(normalize_sbo(basis, DET_NORMALIZED), "monic")
    assert again.scale == basis.scale

    det_mode = normalize_sbo(basis, DET_NORMALIZED)
    for n in det_mode.degrees():
        assert det_mode.leading_factor(n) == basis.Z(n - 1)
        assert det_mode.norm(n) == basis.Z(n - 1) * basis.Z(n)
        # det normalization reproduces the raw bordered determinant expansion
        raw = sbo_determinant_oracle(basis.q_basis, basis.mu2, 2, n).poly
        assert det_mode.poly(n) == raw.scale(basis.Z(n - 1))

    fl = build_sbo(*hermite_pair, 2, 6, normalization=ORTHONORMAL, backend="float")
    for n in fl.degrees():
        val = inner_product_mu(fl.mu2, fl.poly(n), fl.poly(n))
        assert abs(val - 1.0) < 1e-10


def test_orthonormal_exact_raises_when_not_square(hermite_pair):
    basis = build_sbo(*hermite_pair, 2, 5)
    from blockortho import NotRepresentable

    with pytest.raises(NotRepresentable):
        normalize_sbo(basis, ORTHONORMAL)


def test_orthonormal_exact_representable():
    # moments chosen so every determinant ratio is a perfect rational square
    m1 = Measure.from_moments([Fraction(1), 0, Fraction(1)], domain=(-2, 2))
    m2 = Measure.from_moments([Fraction(1), 0, Fraction(1, 4)], domain=(-2, 2))
    basis = build_sbo(m1, m2, 0, 2, normalization=ORTHONORMAL)
    assert basis.norm(1) == 1


def test_parity_build_equals_direct(hermite_pair):
    for i in range(4):
        direct = build_sbo(*hermite_pair, i, 7)
        split = sbo_parity_build(*hermite_pair, i, 7)
        for n in direct.degrees():
            assert split.monic_poly(n) == direct.monic_poly(n)
            assert split.monic_norm(n) == direct.monic_norm(n)
            assert split.Z(n) == direct.Z(n)
        assert split.p_in_q == direct.p_in_q
        assert split.q_in_p == direct.q_in_p


def test_parity_build_rejects_asymmetric(laguerre_pair):
    with pytest.raises(NotSymmetric):
        sbo_parity_build(*laguerre_pair, 1, 4)


def test_neighbor_identities_symmetric(hermite_pair):
    bases = {i: build_sbo(*hermite_pair, i, 8) for i in range(9)}
    q1 = build_standard(hermite_pair[0], 8)
    q2 = build_standard(hermite_pair[1], 8)
    for i in range(1, 8):
        for n in range(i, 8):
            if (i + n) % 2 == 0:
                assert bases[i - 1].monic_poly(n) == bases[i].monic_poly(n)
    for i in range(1, 8):
        assert bases[i - 1].monic_poly(i) == q1.polys[i].monic()
    for n in range(1, 8, 2):
        assert bases[1].monic_poly(n) == q2.polys[n].monic()


def test_sector_parity_of_polynomials(hermite_pair):
    basis = build_sbo(*hermite_pair, 3, 9)
    for n in basis.degrees():
        assert basis.monic_poly(n).parity() == ("even" if n % 2 == 0 else "odd")


def test_monomial_connection_reproduces_coefficients(hermite_pair, laguerre_pair):
    for pair, i in ((hermite_pair, 2), (laguerre_pair, 1)):
        basis = build_sbo(*pair, i, 6)
        conn = monomial_connection(basis)
        for n in basis.degrees():
            assert basis.monic_poly(n).coeffs == tuple(
                conn[ell][n] for ell in range(n + 1)
            )
            assert conn[n][n] == 1


def test_monomial_connection_zero_index_matches_first_stage(hermite_pair):
    basis = build_sbo(*hermite_pair, 0, 5)
    q2 = build_standard(hermite_pair[1], 5)
    conn = monomial_connection(basis)
    for n in range(5):
        for ell in range(n + 1):
            assert conn[ell][n] == q2.polys[n].monic().coeff(ell)


def test_cross_index_connection(hermite_pair):
    s0 = build_sbo(*hermite_pair, 0, 6)
    s2 = build_sbo(*hermite_pair, 2, 6)
    conn = cross_i_connection(s0, s2)
    for n in s2.degrees():
        assert conn[n][n] == 1
        rebuilt = Polynomial(())
        for ell in range(n + 1):
            if conn[ell][n] != 0:
                rebuilt = rebuilt + s0.monic_poly(ell).scale(conn[ell][n])
        assert rebuilt == s2.monic_poly(n)
    same = cross_i_connection(s2, s2)
    for n in s2.degrees():
        for ell in s2.degrees():
            assert same[ell][n] == (1 if ell == n else 0)


def test_cross_index_rejects_mismatched_pairs(hermite_pair, laguerre_pair):
    a = build_sbo(*hermite_pair, 0, 5)
    b = build_sbo(*laguerre_pair, 2, 5)
    with pytest.raises(MeasureMismatch):
        cross_i_connection(a, b)


def test_x_expansion_hermite_quartic(hermite_pair):
    basis = build_sbo(*hermite_pair, 2, 7)
    exp = expand_x_times_p(basis, 4)
    assert exp.constraint_coeff == Fraction(5, 4)
    assert exp.eta[5] == 1
    assert exp.eta[3] == Fraction(3, 2)
    assert exp.eta[2] == 0 and exp.eta[4] == 0
    # the leftover low-degree component is the recurrence obstruction
    assert exp.low_order_nonzero == (1,)
    rebuilt = basis.q_basis.polys[1].scale(exp.constraint_coeff)
    for m, coef in exp.eta.items():
        if coef != 0:
            rebuilt = rebuilt + basis.monic_poly(m).scale(coef)
    assert rebuilt == monomial(1) * basis.monic_poly(4)


def test_x_expansion_inside_block(hermite_pair):
    exp = expand_x_times_p(build_sbo(*hermite_pair, 2, 7), 5)
    assert exp.eta[2] == Fraction(-1, 2)
    assert 2 in exp.low_order_nonzero


def test_x_expansion_standard_case_recovers_three_terms(hermite_pair, laguerre_pair):
    for pair in (hermite_pair, laguerre_pair):
        basis = build_sbo(*pair, 0, 7)
        for n in range(0, 5):
            exp = expand_x_times_p(basis, n)
            assert exp.constraint_coeff == 0
            assert exp.low_order_nonzero == ()
            for m, coef in exp.eta.items():
                if m < n - 1:
                    assert coef == 0


def test_x_expansion_parity(hermite_pair):
    basis = build_sbo(*hermite_pair, 3, 8)
    for n in (3, 4, 5, 6):
        exp = expand_x_times_p(basis, n)
        for m, coef in exp.eta.items():
            if (n + 1 + m) % 2 == 1:
                assert coef == 0


def test_general_bo_reduces_to_standard_block(hermite_pair, laguerre_pair):
    for pair, i in ((hermite_pair, 2), (laguerre_pair, 1)):
        sbo = build_sbo(*pair, i, 6)
        general = build_general_bo(pair[0], pair[1], [monomial(k) for k in range(i)], 6)
        assert general.completion_degrees == tuple(range(i, 6))
        for k, phi in enumerate(general.second_stage):
            assert phi.monic() == sbo.monic_poly(i + k)


def test_general_bo_odd_moment_constraint(hermite_pair):
    general = build_general_bo(*hermite_pair, [monomial(1)], 7)
    q2 = build_standard(hermite_pair[1], 7)
    s2 = build_sbo(*hermite_pair, 2, 7)
    for phi in general.second_stage:
        if phi.parity() == "even":
            assert phi.monic() == q2.polys[phi.degree].monic()
        else:
            assert phi.monic() == s2.monic_poly(phi.degree)


def test_general_bo_cubic_moment_constraint(hermite_pair):
    general = build_general_bo(*hermite_pair, [monomial(3)], 7)
    q2 = build_standard(hermite_pair[1], 7)
    for phi in general.second_stage:
        if phi.parity() == "even":
            assert phi.monic() == q2.polys[phi.degree].monic()
    # every output is orthogonal to the constraint under the first measure
    mu1 = moments(hermite_pair[0], 12)
    for phi in general.second_stage:
        assert inner_product_mu(mu1, monomial(3), phi) == 0


def test_general_bo_uniqueness_under_subspace_basis_change(hermite_pair):
    sbo = build_sbo(*hermite_pair, 2, 6)
    sheared = [monomial(0), Polynomial((Fraction(3), Fraction(2)))]
    general = build_general_bo(*hermite_pair, sheared, 6)
    for k, phi in enumerate(general.second_stage):
        assert phi.monic() == sbo.monic_poly(2 + k)


def test_general_bo_dependent_subspace(hermite_pair):
    with pytest.raises(DependentConstraints):
        build_general_bo(*hermite_pair, [monomial(1), monomial(1).scale(Fraction(2))], 5)


def test_float_guard(hermite_pair):
    with pytest.raises(ConditioningError):
        build_sbo(*hermite_pair, 2, 21, backend="float")


# the parameter sets of the benchmark's measure decks
ALPHAS = ("1/2", "2/3", "1", "3/2", "2", "5/2", "3")
ZS = ("1/2", "1", "3/2", "2", "3")


@st.composite
def measure_pairs(draw):
    a, b = draw(st.permutations(ALPHAS))[:2]
    if draw(st.booleans()):
        return Measure.gaussian(a), Measure.gaussian(b)
    z = draw(st.sampled_from(ZS))
    return Measure.gamma_weight(a, z), Measure.gamma_weight(b, z)


@given(measure_pairs(), st.integers(1, 7), st.data())
@settings(max_examples=200, deadline=None)
def test_exact_build_matches_oracle_parity_and_cross_connection(pair, n_size, data):
    i = data.draw(st.integers(0, n_size), label="i")
    basis = build_sbo(*pair, i, n_size)
    for n in basis.degrees():
        oracle = sbo_determinant_oracle(basis.q_basis, pair[1], i, n)
        assert basis.monic_poly(n) == oracle.poly
    if pair[0].symmetric:
        parity = sbo_parity_build(*pair, i, n_size)
        assert parity.monic_polys == basis.monic_polys
    b0 = build_sbo(*pair, 0, n_size)
    conn = cross_i_connection(b0, basis)
    for n in basis.degrees():
        assert combine([row[n] for row in conn], b0.monic_polys) == basis.monic_poly(n)


def test_preconditions(hermite_pair):
    with pytest.raises(ValueError):
        build_sbo(*hermite_pair, 6, 5)
    q = build_standard(hermite_pair[0], 4)
    with pytest.raises(ValueError):
        sbo_determinant_oracle(q, hermite_pair[1], 3, 2)
    basis = build_sbo(*hermite_pair, 1, 4)
    with pytest.raises(ValueError):
        expand_x_times_p(basis, 3)


def test_half_integer_power_pair_stays_exact():
    z = Fraction(5, 2)
    pair = (Measure.gamma_weight(1, z), Measure.gamma_weight(2, z))
    basis = build_sbo(*pair, 2, 6)
    mu1 = moments(pair[0], 10)
    for n in basis.degrees():
        assert basis.monic_poly(n).kind == "exact"
        for m in range(2):
            assert inner_product_mu(mu1, monomial(m), basis.monic_poly(n)) == 0
    q1 = build_standard(pair[0], 6)
    assert basis.monic_poly(2) == q1.polys[2]


def test_float_parity_build_matches_direct(hermite_pair):
    split = sbo_parity_build(*hermite_pair, 2, 6, backend="float")
    direct = build_sbo(*hermite_pair, 2, 6, backend="float")
    for n in direct.degrees():
        for a, b in zip(split.monic_poly(n).coeffs, direct.monic_poly(n).coeffs):
            assert abs(a - b) < 1e-12


def test_float_general_bo(hermite_pair):
    general = build_general_bo(
        *hermite_pair, [monomial(1).to_float()], 5, backend="float"
    )
    evens = [p.monic() for p in general.second_stage if p.parity() == "even"]
    assert evens[1].coeffs == (-0.25, 0.0, 1.0)


def test_float_backend_matches_exact(hermite_pair, laguerre_pair):
    # every float build that returns agrees with the exact one; refusals are fine
    for pair in (hermite_pair, laguerre_pair):
        for n_polys in range(4, 21):
            for i in sorted({0, 1, 2, n_polys // 2, n_polys - 1}):
                try:
                    fl = build_sbo(*pair, i, n_polys, backend="float")
                except BlockOrthoError:
                    continue
                exact = build_sbo(*pair, i, n_polys, check=False)
                for n in exact.degrees():
                    coeffs = [float(c) for c in exact.monic_poly(n).coeffs]
                    scale = max(abs(c) for c in coeffs)
                    for a, b in zip(fl.monic_poly(n).coeffs, coeffs):
                        assert abs(a - b) <= ORACLE_RTOL * scale, (n_polys, i, n)
