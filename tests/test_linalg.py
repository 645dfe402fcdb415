"""Bordered minors from one elimination against the minor-by-minor route."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockortho import KindMismatch, NotPositiveDefinite, determinant_oracle_vector, linalg


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
        determinant_oracle_vector(block, 2, Fraction(1))


# singular draws (a zero row, say) make numpy's LU warn on both routes alike
@pytest.mark.filterwarnings("ignore:divide by zero encountered in det:RuntimeWarning")
@given(
    st.integers(0, 8).flatmap(
        lambda n: st.lists(
            st.lists(st.floats(-1e3, 1e3), min_size=n + 1, max_size=n + 1),
            min_size=n + 1,
            max_size=n + 1,
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_float_bordered_minors_are_bit_identical_to_per_minor_numpy(block):
    n = len(block) - 1
    cofactors, whole = linalg.bordered_minors(block)
    assert whole == float(np.linalg.det(np.array(block)))
    if n == 0:
        assert cofactors == (1.0,)
        return
    z_n = float(np.linalg.det(np.array([row[:n] for row in block[:n]])))
    assert cofactors[n] == z_n
    if z_n == 0:
        return
    for k in range(n):
        minor = np.array([row[:k] + row[k + 1 :] for row in block[:n]])
        assert cofactors[k] == (-1) ** (n + k) * float(np.linalg.det(minor))


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
