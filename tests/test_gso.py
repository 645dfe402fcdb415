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
    gram_schmidt,
)
from blockortho import OracleMismatch, build_sbo, linalg, sbo_determinant_oracle
from blockortho.gso import (
    bordered_oracle,
    check_against_oracle,
    oracle_connection_column,
    parity_gram_schmidt,
)
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
    assert linalg.leading_minors([[Fraction(1), 1], [1, Fraction(2)]]) == [1, 1, 1]
    ident = [[Fraction(int(j == k)) for k in range(3)] for j in range(3)]
    assert linalg.leading_minors(ident) == [1, 1, 1, 1]
    assert linalg.leading_minors([[Fraction(2)]]) == [1, 2]


def test_oracle_base_cases():
    gram = [[Fraction(1), 1], [1, Fraction(2)]]
    assert bordered_oracle(gram, 0, Fraction(2))[0] == (Fraction(1, 2),)
    assert bordered_oracle(gram, 1, Fraction(1))[0] == (-1, 1)


def test_connection_b_examples():
    gram = [[Fraction(1), 1], [1, Fraction(2)]]
    res = gram_schmidt(gram, [Fraction(1), Fraction(1)])
    assert oracle_connection_column(gram, 1, res.factors) == (1, 1)
    ident = [[Fraction(int(j == k)) for k in range(3)] for j in range(3)]
    res_i = gram_schmidt(ident, [Fraction(1)] * 3)
    assert oracle_connection_column(ident, 2, res_i.factors)[0] == 0


def test_oracle_equivalence_random_exact():
    rng = random.Random(11)
    for _ in range(50):
        size = rng.randint(2, 7)
        gram = _random_pd(rng, size)
        factors = [Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2])) for _ in range(size)]
        res = gram_schmidt(gram, factors)
        for n in range(size):
            assert bordered_oracle(gram, n, factors[n])[0] == tuple(
                res.coeffs[m][n] for m in range(n + 1)
            )
            assert oracle_connection_column(gram, n, factors[: n + 1]) == tuple(
                res.inverse_coeffs[m][n] for m in range(n + 1)
            )


def test_oracle_equivalence_random_float():
    rng = random.Random(12)
    for _ in range(50):
        size = rng.randint(2, 7)
        gram = _random_pd(rng, size, kind="float")
        factors = [float(rng.choice([1, -1, 2])) for _ in range(size)]
        res = gram_schmidt(gram, factors)
        for n in range(size):
            oracle = bordered_oracle(gram, n, factors[n])[0]
            scale = max(abs(x) for x in oracle) or 1.0
            for a, b in zip(oracle, (res.coeffs[m][n] for m in range(n + 1))):
                assert abs(a - b) <= 1e-9 * scale


_FACTORS = [Fraction(2), Fraction(-1), Fraction(1), Fraction(3), Fraction(1, 2)]


def test_exact_connection_column_is_one_elimination(monkeypatch):
    gram = _random_pd(random.Random(15), 5)
    res = gram_schmidt(gram, _FACTORS)
    sizes = []
    original = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda m: sizes.append(len(m)) or original(m))
    monkeypatch.setattr(linalg, "det", lambda m: pytest.fail("the oracle took a determinant"))
    for n in range(5):
        got = oracle_connection_column(gram, n, _FACTORS[: n + 1])
        assert got == tuple(res.inverse_coeffs[m][n] for m in range(n + 1))
    assert sizes == [n + 1 for n in range(5)]


def test_float_connection_column_takes_no_determinant(monkeypatch):
    gram = _random_pd(random.Random(15), 5, kind="float")
    factors = [float(f) for f in _FACTORS]
    res = gram_schmidt(gram, factors)
    def no_det(matrix):
        pytest.fail("the float oracle took a determinant")

    monkeypatch.setattr(np.linalg, "det", no_det)
    monkeypatch.setattr(linalg, "det", no_det)
    for n in range(5):
        got = oracle_connection_column(gram, n, factors[: n + 1])
        for m in range(n + 1):
            expect = res.inverse_coeffs[m][n]
            assert abs(got[m] - expect) <= 1e-9 * max(abs(expect), 1.0)


def test_float_singular_leading_minor_is_refused_with_its_degree():
    # Z_2 = det [[1, 2], [2, 4]] = 0: E_2 has no bordered form, nor has b_{1,n}
    block = [[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [7.0, 8.0, 9.0]]
    with pytest.raises(NotPositiveDefinite, match="size 2 vanishes") as exc:
        bordered_oracle(block, 2, 1.0)
    assert exc.value.degree == 2
    with pytest.raises(NotPositiveDefinite, match="size 2 vanishes") as exc:
        oracle_connection_column(block, 2, [1.0, 1.0, 1.0])
    assert exc.value.degree == 1


@given(st.integers(0, 2**32), st.integers(1, 7))
@settings(max_examples=200, deadline=None)
def test_float_connection_column_matches_kernel_and_exact_route(seed, size):
    rng = random.Random(seed)
    gram = _random_pd(rng, size)
    factors = [rng.choice([Fraction(1), Fraction(-1), Fraction(2), Fraction(3), Fraction(1, 2)])
               for _ in range(size)]
    gram_f = [[float(x) for x in row] for row in gram]
    factors_f = [float(f) for f in factors]
    kernel = gram_schmidt(gram_f, factors_f)
    for n in range(size):
        got = oracle_connection_column(gram_f, n, factors_f[: n + 1])
        exact = [float(b) for b in oracle_connection_column(gram, n, factors[: n + 1])]
        scale = max(map(abs, exact))
        for m, b in enumerate(got):
            assert abs(b - kernel.inverse_coeffs[m][n]) <= 1e-12 * scale
            assert abs(b - exact[m]) <= 1e-12 * scale


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
    # the kernels take Z_k as pivot products; leading_minors reads one Bareiss pass
    rng = random.Random(15)
    for _ in range(30):
        size = rng.randint(1, 7)
        gram = _random_pd(rng, size)
        factors = [Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2])) for _ in range(size)]
        assert gram_schmidt(gram, factors).gram_dets == tuple(linalg.leading_minors(gram))
        raw = [[Fraction(rng.randint(-4, 4) * ((j + k + 1) % 2)) for k in range(size)]
               for j in range(size)]
        board = mat_mul([list(c) for c in zip(*raw)], raw)
        for d in range(size):
            board[d][d] += 1
        assert parity_gram_schmidt(board, factors).gram_dets == tuple(
            linalg.leading_minors(board)
        )


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
        inverse = [list(row) for row in result.inverse_coeffs]
        inverse[0][2] += one / 1000
        corruptions.append(
            (dataclasses.replace(result, inverse_coeffs=tuple(map(tuple, inverse))), "degree 2")
        )
    for bad, where in corruptions:
        with pytest.raises(OracleMismatch, match=f"stage x disagrees at {where}"):
            check_against_oracle(gram, bad, basis, "stage x disagrees")


def test_exact_oracle_runs_one_elimination_per_matrix(monkeypatch, hermite_pair):
    rng = random.Random(21)
    gram = _random_pd(rng, 6)
    factors = [Fraction(f) for f in (2, -1, 1, 3, Fraction(1, 2), 1)]
    result = gram_schmidt(gram, factors)
    sizes = []
    original = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda m: sizes.append(len(m)) or original(m))
    check_against_oracle(gram, result, identity(6), "stage x disagrees")
    assert sizes == [6]
    # every b_{m,n} of the column, from one elimination of the leading block
    basis = build_sbo(*hermite_pair, 2, 8, check=False)
    oracle = sbo_determinant_oracle(basis.q_basis, basis.mu2, 2, 6, gamma=basis.gamma)
    sizes.clear()
    assert oracle.b_column == tuple(basis.q_in_p[m][6] for m in range(2, 7))
    assert sizes == [5]
