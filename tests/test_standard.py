from fractions import Fraction
from math import factorial

import pytest

from blockortho import (
    ConditioningError,
    Measure,
    NotRepresentable,
    NotSymmetric,
    Polynomial,
    build_by_recurrence,
    build_standard,
    inner_product_mu,
    monomial,
    parity_split_build,
)
from blockortho.standard import DET_NORMALIZED, MONIC, ORTHONORMAL
from test_polynomials import reflect


def test_gaussian_monic_family():
    basis = build_standard(Measure.gaussian(1), 4)
    assert basis.polys[0] == monomial(0)
    assert basis.polys[1] == monomial(1)
    assert basis.polys[2] == Polynomial((Fraction(-1, 2), 0, 1))
    assert basis.polys[3] == Polynomial((0, Fraction(-3, 2), 0, 1))


def test_gamma_monic_family():
    basis = build_standard(Measure.gamma_weight(1, 1), 3)
    assert basis.polys[2] == Polynomial((2, -4, 1))


def test_single_polynomial_build():
    basis = build_standard(Measure.gamma_weight(2, 3), 1)
    assert basis.polys == (monomial(0),)
    assert basis.norms == (1,)


def test_orthogonality_exact():
    for measure in (Measure.gaussian(1), Measure.gamma_weight(1, 2)):
        basis = build_standard(measure, 8)
        for j in range(8):
            for k in range(8):
                expect = basis.norms[j] if j == k else 0
                assert inner_product_mu(basis.moment_seq, basis.polys[j], basis.polys[k]) == expect
                assert basis.norms[j] > 0


def test_recurrence_coefficients_gaussian():
    basis = build_standard(Measure.gaussian(1), 6)
    for n, (a, b, c) in enumerate(basis.recurrence):
        assert a == 1 and b == 0
        assert c == (Fraction(n, 2) if n else 0)


def test_recurrence_coefficients_gamma():
    basis = build_standard(Measure.gamma_weight(1, 1), 4)
    a1, b1, c1 = basis.recurrence[1]
    assert b1 == -3
    assert c1 == 1


def test_recurrence_residual_is_zero():
    basis = build_standard(Measure.gamma_weight(1, 2), 6)
    x = monomial(1)
    for n in range(1, 5):
        a, b, c = basis.recurrence[n]
        residual = (
            basis.polys[n + 1]
            - (a * x + Polynomial((b,))) * basis.polys[n]
            + basis.polys[n - 1].scale(c)
        )
        assert residual.is_zero


def test_rebuild_by_recurrence():
    for measure in (Measure.gaussian(1), Measure.gamma_weight(1, 2)):
        basis = build_standard(measure, 6)
        assert build_by_recurrence(measure, 6) == list(basis.polys)
    assert build_by_recurrence(Measure.gaussian(2), 1) == [monomial(0)]


def test_parity_split_equals_direct():
    for alpha in (1, 2, Fraction(1, 3)):
        measure = Measure.gaussian(alpha)
        direct = build_standard(measure, 7)
        split = parity_split_build(measure, 7)
        assert split.polys == direct.polys
        assert split.norms == direct.norms
        assert split.gram_dets == direct.gram_dets


def test_parity_split_examples():
    split = parity_split_build(Measure.gaussian(1), 3)
    assert split.polys[2] == Polynomial((Fraction(-1, 2), 0, 1))
    assert split.polys[1] == monomial(1)
    heavier = parity_split_build(Measure.gaussian(2), 4)
    assert heavier.polys[3] == Polynomial((0, Fraction(-3, 4), 0, 1))


def test_parity_split_requires_symmetry():
    with pytest.raises(NotSymmetric):
        parity_split_build(Measure.gamma_weight(1, 1), 4)


def test_reflection_symmetry_of_symmetric_measures():
    basis = build_standard(Measure.gaussian(3), 9)
    for n, p in enumerate(basis.polys):
        assert reflect(p) == (p if n % 2 == 0 else -p)


def test_normalization_modes_agree_after_monic():
    measure = Measure.gamma_weight(1, 1)
    monic = build_standard(measure, 5, MONIC)
    det_mode = build_standard(measure, 5, DET_NORMALIZED)
    ortho = build_standard(measure, 5, ORTHONORMAL, backend="float")
    for n in range(5):
        assert det_mode.polys[n].monic() == monic.polys[n]
        scaled = ortho.polys[n].monic()
        for a, b in zip(scaled.coeffs, monic.polys[n].coeffs):
            assert abs(a - float(b)) < 1e-9


def test_det_normalization_values():
    basis = build_standard(Measure.gamma_weight(1, 1), 4, DET_NORMALIZED)
    for n in range(4):
        assert basis.leading[n] == basis.Z(n - 1)
        assert basis.norms[n] == basis.Z(n - 1) * basis.Z(n)


def test_orthonormal_exact_raises_on_non_square_ratio():
    with pytest.raises(NotRepresentable):
        build_standard(Measure.gaussian(1), 3, ORTHONORMAL)


def test_orthonormal_exact_when_ratios_are_squares():
    measure = Measure.from_moments(
        [Fraction(1), 0, Fraction(1, 4)], domain=(-1, 1)
    )
    basis = build_standard(measure, 2, ORTHONORMAL)
    assert basis.norms == (1, 1)
    assert basis.polys[1] == Polynomial((0, 2))


def test_orthonormal_float_unit_norms():
    basis = build_standard(Measure.gaussian(1), 6, ORTHONORMAL, backend="float")
    for n in range(6):
        assert abs(basis.norms[n] - 1.0) < 1e-9


def test_float_conditioning_guard():
    with pytest.raises(ConditioningError):
        build_standard(Measure.gaussian(1), 21, backend="float")


def test_exact_backend_requires_rational_moments():
    import math

    numeric = Measure.numeric(lambda x: math.exp(-x * x), (-9.0, 9.0), nodes=60)
    with pytest.raises(NotRepresentable):
        build_standard(numeric, 3)
    floaty = build_standard(numeric, 3, backend="float")
    assert abs(floaty.polys[2].coeff(0) + 0.5) < 1e-10


def test_float_orthogonality_residuals():
    # gamma-family moments stay exactly float-representable through order 20
    # (21! > 2^53), so the strict bound is checked at N=11 there and N=12 for
    # the gaussian family, whose moments are dyadic at every order
    cases = [(Measure.gaussian(1), 12, 1e-10), (Measure.gamma_weight(1, 1), 11, 1e-10)]
    for measure, n_size, bound in cases:
        basis = build_standard(measure, n_size, backend="float", check=False)
        h_max = max(basis.norms)
        for j in range(n_size):
            for k in range(j):
                val = inner_product_mu(basis.moment_seq, basis.polys[j], basis.polys[k])
                assert abs(val) <= bound * h_max


def test_float_orthogonality_quantized_moments():
    # beyond order 20 the factorial moments themselves round, which caps the
    # achievable float orthogonality near 1e-9 regardless of algorithm
    basis = build_standard(Measure.gamma_weight(1, 1), 12, backend="float", check=False)
    h_max = max(basis.norms)
    worst = max(
        abs(inner_product_mu(basis.moment_seq, basis.polys[j], basis.polys[k]))
        for j in range(12)
        for k in range(j)
    )
    assert worst <= 1e-8 * h_max


def test_classical_leading_factors():
    # textbook leading coefficients: Hermite k_n = 2^n, Laguerre k_n = (-1)^n / n!
    hermite = build_standard(Measure.gaussian(1), 5, leading=[Fraction(2) ** n for n in range(5)])
    assert hermite.polys[4] == Polynomial((12, 0, -48, 0, 16))
    laguerre = build_standard(
        Measure.gamma_weight(1, 1), 3, leading=[Fraction((-1) ** n, factorial(n)) for n in range(3)]
    )
    assert laguerre.polys[2] == Polynomial((1, -2, Fraction(1, 2)))


def test_custom_leading_factors_scale_norms():
    measure = Measure.gamma_weight(1, 1)
    monic = build_standard(measure, 4)
    custom = build_standard(measure, 4, leading=[Fraction(k + 1) for k in range(4)])
    for n in range(4):
        assert custom.polys[n] == monic.polys[n].scale(Fraction(n + 1))
        assert custom.norms[n] == (n + 1) ** 2 * monic.norms[n]
