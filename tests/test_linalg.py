"""Bordered minors from one elimination against the minor-by-minor route."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockortho import KindMismatch, NotPositiveDefinite, linalg
from blockortho.gso import bordered_oracle


def per_minor(block):
    """(signed cofactors of the last row, det) with one determinant per minor."""
    n = len(block) - 1
    top = [list(row) for row in block[:n]]
    cofactors = tuple(
        (-1) ** (n + k) * linalg.det([row[:k] + row[k + 1 :] for row in top])
        for k in range(n + 1)
    )
    return cofactors, linalg.det(block)


@st.composite
def rational_blocks(draw):
    """(n+1) x (n+1) rational blocks, n = 0..8, often with a zero leading
    pivot or a singular leading n x n block."""
    n = draw(st.integers(0, 8))
    entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5))
    block = [[draw(entry) for _ in range(n + 1)] for _ in range(n + 1)]
    if n and draw(st.booleans()):
        block[0][0] = Fraction(0)  # Bareiss must swap rows at the first step
    if n >= 2 and draw(st.booleans()):
        t = draw(entry)  # row n-1 repeats row 0 on the leading block only
        block[n - 1][:n] = [t * x for x in block[0][:n]]
    return block


@given(rational_blocks())
@settings(max_examples=300, deadline=None)
def test_exact_bordered_minors_match_per_minor_route(block):
    cofactors, whole = linalg.bordered_minors(block)
    assert (cofactors, whole) == per_minor(block)
    assert all(isinstance(c, Fraction) for c in cofactors + (whole,))


@st.composite
def exact_matrices(draw):
    """Square rational matrices of size 1..8: symmetric positive definite
    ones (R^T R + I), or general ones, often with a zero leading pivot or a
    singular leading block."""
    size = draw(st.integers(1, 8))
    entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5))
    raw = [[draw(entry) for _ in range(size)] for _ in range(size)]
    if draw(st.booleans()):
        return [
            [sum(r[j] * r[k] for r in raw) + (j == k) for k in range(size)] for j in range(size)
        ]
    if draw(st.booleans()):
        raw[0][0] = Fraction(0)
    if size >= 2 and draw(st.booleans()):
        k = draw(st.integers(2, size))  # row k-1 repeats row 0 on the leading k x k block
        t = draw(entry)
        raw[k - 1][:k] = [t * x for x in raw[0][:k]]
    return raw


@given(exact_matrices())
@settings(max_examples=300, deadline=None)
def test_one_elimination_gives_the_bordered_minors_of_every_leading_block(matrix):
    elim = linalg.LiftedElimination(matrix)
    for n in range(len(matrix)):
        block = [row[: n + 1] for row in matrix[: n + 1]]
        cofactors = tuple(Fraction(c, elim.prefix[n]) for c in elim.cofactors(n))
        z_next = Fraction(elim.minor(n + 1), elim.prefix[n + 1])
        assert (cofactors, z_next) == linalg.bordered_minors(block) == per_minor(block)
    size = len(matrix)
    assert linalg.leading_minors(matrix) == [
        linalg.det([row[:k] for row in matrix[:k]]) for k in range(size + 1)
    ]


def test_exact_zero_leading_pivot_needs_a_row_swap():
    block = [[Fraction(x) for x in row] for row in ([0, 1, 2], [1, 0, 3], [4, 5, 6])]
    assert linalg.bordered_minors(block) == per_minor(block)
    assert linalg.bordered_minors(block)[0][2] == -1  # Z_2 = det [[0, 1], [1, 0]]


def test_exact_singular_leading_block_gives_zero_and_is_refused():
    block = [[Fraction(x) for x in row] for row in ([1, 2, 3], [2, 4, 5], [7, 8, 9])]
    cofactors, whole = linalg.bordered_minors(block)
    assert (cofactors, whole) == per_minor(block)
    assert cofactors[2] == 0 and cofactors != (0, 0, 0)
    with pytest.raises(NotPositiveDefinite, match="size 2 vanishes"):
        bordered_oracle(block, 2, Fraction(1))


def test_matrix_kind_rejects_mixed_entries():
    assert linalg.matrix_kind([[Fraction(1), 2], [3, Fraction(1, 2)]]) == "exact"
    assert linalg.matrix_kind([[1.0, np.float64(2.0)]]) == "float"
    with pytest.raises(KindMismatch):
        linalg.matrix_kind([[Fraction(1), 0.5]])
    with pytest.raises(KindMismatch):
        linalg.matrix_kind([[1.0], [np.float64(2.0)], [3]])


@pytest.mark.parametrize("bad", [True, "1", None, 1j])
def test_matrix_kind_rejects_bool_and_unsupported_scalars(bad):
    with pytest.raises(TypeError):
        linalg.matrix_kind([[Fraction(1), bad]])
    with pytest.raises(TypeError):
        linalg.matrix_kind([[bad]])


def test_matrix_kind_of_an_empty_matrix_is_exact():
    assert linalg.matrix_kind([]) == "exact"
    assert linalg.matrix_kind([[], []]) == "exact"


def test_det_of_an_int_matrix_skips_the_lifting(monkeypatch):
    matrices = [[[3]], [[2, -1], [4, 5]], [[0, 1, 2], [1, 0, 3], [4, -5, 6]], [[1, 2], [2, 4]]]
    expected = [linalg.det([[Fraction(x) for x in row] for row in m]) for m in matrices]

    def refuse(rows):
        raise AssertionError("an int matrix was lifted")

    monkeypatch.setattr(linalg, "_lift_rows", refuse)
    for m, want in zip(matrices, expected):
        got = linalg.det(m)
        assert type(got) is Fraction and got == want
    with pytest.raises(AssertionError):
        linalg.det([[Fraction(1, 2), 1], [0, 1]])
