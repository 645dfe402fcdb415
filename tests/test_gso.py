import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from blockortho import (
    BadFactor,
    NotCheckerboard,
    NotPositiveDefinite,
    checkerboard_det,
    connection_b,
    determinant_oracle_vector,
    gram_determinants,
    gram_schmidt,
)
from blockortho import OracleMismatch
from blockortho.gso import check_against_oracle, parity_gram_schmidt
from blockortho.linalg import identity, mat_mul


def _random_pd(rng, size, kind="exact"):
    raw = [[Fraction(rng.randint(-4, 4)) for _ in range(size)] for _ in range(size)]
    gram = mat_mul([list(c) for c in zip(*raw)], raw)
    for d in range(size):
        gram[d][d] += 1
    if kind == "float":
        return [[float(x) for x in row] for row in gram]
    return gram


def test_identity_gram_is_already_orthonormal():
    ident = [[Fraction(int(j == k)) for k in range(3)] for j in range(3)]
    res = gram_schmidt(ident, [Fraction(1)] * 3)
    assert res.norms == (1, 1, 1)
    assert res.coeffs == tuple(map(tuple, ident))
    assert res.inverse_coeffs == tuple(map(tuple, ident))


def test_diagonal_gram_needs_no_mixing():
    gram = [[Fraction(1), 0], [0, Fraction(1, 2)]]
    res = gram_schmidt(gram, [Fraction(1), Fraction(1)])
    assert res.vector(0) == (1, 0)
    assert res.vector(1) == (0, 1)
    assert res.norms == (1, Fraction(1, 2))


def test_two_by_two_factorial_gram():
    gram = [[Fraction(1), 1], [1, Fraction(2)]]
    res = gram_schmidt(gram, [Fraction(1), Fraction(1)])
    assert res.vector(1) == (-1, 1)
    assert res.norms[1] == 1
    assert res.gram_dets == (1, 1, 1)


def test_gram_determinant_examples():
    assert gram_determinants([[Fraction(1), 1], [1, Fraction(2)]]) == (1, 1, 1)
    ident = [[Fraction(int(j == k)) for k in range(3)] for j in range(3)]
    assert gram_determinants(ident) == (1, 1, 1, 1)
    assert gram_determinants([[Fraction(2)]]) == (1, 2)


def test_oracle_base_cases():
    gram = [[Fraction(1), 1], [1, Fraction(2)]]
    assert determinant_oracle_vector(gram, 0, Fraction(2)) == (Fraction(1, 2),)
    assert determinant_oracle_vector(gram, 1, Fraction(1)) == (-1, 1)


def test_connection_b_examples():
    gram = [[Fraction(1), 1], [1, Fraction(2)]]
    res = gram_schmidt(gram, [Fraction(1), Fraction(1)])
    assert connection_b(gram, res, 0, 1) == 1
    assert connection_b(gram, res, 1, 1) == 1
    ident = [[Fraction(int(j == k)) for k in range(3)] for j in range(3)]
    res_i = gram_schmidt(ident, [Fraction(1)] * 3)
    assert connection_b(ident, res_i, 0, 2) == 0


def test_oracle_equivalence_random_exact():
    rng = random.Random(11)
    for _ in range(50):
        size = rng.randint(2, 7)
        gram = _random_pd(rng, size)
        factors = [Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2])) for _ in range(size)]
        res = gram_schmidt(gram, factors)
        for n in range(size):
            assert determinant_oracle_vector(gram, n, factors[n]) == tuple(
                res.coeffs[m][n] for m in range(n + 1)
            )
            for m in range(n + 1):
                assert connection_b(gram, res, m, n) == res.inverse_coeffs[m][n]


def test_oracle_equivalence_random_float():
    rng = random.Random(12)
    for _ in range(50):
        size = rng.randint(2, 7)
        gram = _random_pd(rng, size, kind="float")
        factors = [float(rng.choice([1, -1, 2])) for _ in range(size)]
        res = gram_schmidt(gram, factors)
        for n in range(size):
            oracle = determinant_oracle_vector(gram, n, factors[n])
            scale = max(abs(x) for x in oracle) or 1.0
            for a, b in zip(oracle, (res.coeffs[m][n] for m in range(n + 1))):
                assert abs(a - b) <= 1e-9 * scale


def test_connection_matrices_are_mutually_inverse():
    rng = random.Random(13)
    gram = _random_pd(rng, 6)
    res = gram_schmidt(gram, [Fraction(1)] * 6)
    prod = mat_mul([list(r) for r in res.coeffs], [list(r) for r in res.inverse_coeffs])
    for j in range(6):
        for k in range(6):
            assert prod[j][k] == (1 if j == k else 0)


def test_norm_determinant_relation():
    rng = random.Random(14)
    gram = _random_pd(rng, 5)
    factors = [Fraction(2), Fraction(1), Fraction(-3), Fraction(1, 2), Fraction(1)]
    res = gram_schmidt(gram, factors)
    for n in range(5):
        assert res.norms[n] * factors[n] ** 2 * res.gram_dets[n] == res.gram_dets[n + 1]


def test_kernel_determinants_match_leading_minors():
    # the kernels take Z_k as pivot products; gram_determinants runs Bareiss per minor
    rng = random.Random(15)
    for _ in range(30):
        size = rng.randint(1, 7)
        gram = _random_pd(rng, size)
        factors = [Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2])) for _ in range(size)]
        assert gram_schmidt(gram, factors).gram_dets == gram_determinants(gram)
        raw = [[Fraction(rng.randint(-4, 4) * ((j + k + 1) % 2)) for k in range(size)]
               for j in range(size)]
        board = mat_mul([list(c) for c in zip(*raw)], raw)
        for d in range(size):
            board[d][d] += 1
        assert parity_gram_schmidt(board, factors).gram_dets == gram_determinants(board)


@given(st.integers(1, 5), st.sampled_from([2, 3, -2, 5]))
@settings(max_examples=40, deadline=None)
def test_rescaling_one_factor(seed, lam):
    rng = random.Random(seed)
    size = rng.randint(2, 5)
    target = rng.randrange(size)
    gram = _random_pd(rng, size)
    factors = [Fraction(1)] * size
    scaled = list(factors)
    scaled[target] = Fraction(lam)
    base = gram_schmidt(gram, factors)
    other = gram_schmidt(gram, scaled)
    for n in range(size):
        expect = [c / lam if n == target else c for c in (base.coeffs[m][n] for m in range(size))]
        assert list(other.coeffs[m][n] for m in range(size)) == expect
        expect_h = base.norms[n] / lam**2 if n == target else base.norms[n]
        assert other.norms[n] == expect_h


def test_bad_factor_rejected():
    with pytest.raises(BadFactor):
        gram_schmidt([[Fraction(1)]], [Fraction(0)])


def test_not_positive_definite_detected():
    gram = [[Fraction(1), 2], [2, Fraction(1)]]
    with pytest.raises(NotPositiveDefinite):
        gram_schmidt(gram, [Fraction(1), Fraction(1)])


def test_float_pivot_floor():
    gram = [[1.0, 1.0], [1.0, 1.0 + 1e-16]]
    with pytest.raises(NotPositiveDefinite):
        gram_schmidt(gram, [1.0, 1.0])


def test_checkerboard_scalar_and_diagonal():
    det, even, odd = checkerboard_det([[Fraction(5)]])
    assert (det, even, odd) == (5, 5, 1)
    det, even, odd = checkerboard_det([[Fraction(2), 0], [0, Fraction(3)]])
    assert (det, even, odd) == (6, 2, 3)


def test_checkerboard_structure_enforced():
    with pytest.raises(NotCheckerboard):
        checkerboard_det([[Fraction(1), 1], [0, Fraction(1)]])
    # the same matrix is fine when only the last row is off-pattern
    det, even, odd = checkerboard_det(
        [[Fraction(1), 0], [5, Fraction(1)]], last_row_exempt=True
    )
    assert det == even * odd == 1


def test_checkerboard_random_with_free_last_row():
    rng = random.Random(15)
    for _ in range(30):
        size = 5
        m = [[0.0] * size for _ in range(size)]
        for j in range(size):
            for k in range(size):
                if (j + k) % 2 == 0:
                    m[j][k] = rng.uniform(-2, 2)
        for k in range(size):
            m[size - 1][k] = rng.uniform(-2, 2)
        det, even, odd = checkerboard_det(m, last_row_exempt=True)
        direct = float(np.linalg.det(np.array(m)))
        assert abs(det - even * odd) <= 1e-10 * max(1.0, abs(det))
        assert abs(det - direct) <= 1e-10 * max(1.0, abs(det))


def _checkerboard(gram):
    return [[x if (j + k) % 2 == 0 else 0 * x for k, x in enumerate(row)] for j, row in enumerate(gram)]


@pytest.mark.parametrize("seed", range(6))
def test_parity_kernel_matches_full_kernel(seed):
    rng = random.Random(seed)
    size = rng.randint(1, 7)
    gram = _checkerboard(_random_pd(rng, size))
    factors = [Fraction(rng.choice([1, 2, -1, 3])) for _ in range(size)]
    assert parity_gram_schmidt(gram, factors) == gram_schmidt(gram, factors)


def test_parity_kernel_rejects_mixed_parity():
    with pytest.raises(NotCheckerboard):
        parity_gram_schmidt([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]], [1, 1])


@pytest.mark.parametrize("kind", ["exact", "float"])
def test_oracle_check_catches_corruption(kind):
    rng = random.Random(7)
    gram = _random_pd(rng, 4, kind)
    one = Fraction(1) if kind == "exact" else 1.0
    basis = identity(4, kind)  # monomial coefficient matrix of x^0..x^3
    result = gram_schmidt(gram, [one] * 4)
    check_against_oracle(gram, result, basis, "stage x disagrees")
    coeffs = [list(row) for row in result.coeffs]
    coeffs[1][2] += one / 1000
    norms = list(result.norms)
    norms[3] *= 1 + one / 1000
    corruptions = [
        (dataclasses.replace(result, coeffs=tuple(map(tuple, coeffs))), "degree 2"),
        (dataclasses.replace(result, norms=tuple(norms)), "degree 3"),
    ]
    if kind == "exact":
        dets = list(result.gram_dets)
        dets[2] += 1
        corruptions.append((dataclasses.replace(result, gram_dets=tuple(dets)), "degree 1"))
    for bad, where in corruptions:
        with pytest.raises(OracleMismatch, match=f"stage x disagrees at {where}"):
            check_against_oracle(gram, bad, basis, "stage x disagrees")
