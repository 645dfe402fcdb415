"""The integer kernels against Fraction loop references.

``reference_ldl`` is the LDL^T loop of ``gso.gram_schmidt`` in Fractions,
and ``reference_mat_mul`` the term-by-term product loop of
``linalg.mat_mul``; both are kept here as they were before the exact
branches moved to integers.  Exact results must equal them entry by entry
(every entry a Fraction), float products bit for bit; a float Gram matrix
runs the integer kernel on the dyadic rationals its entries hold.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockortho import NotPositiveDefinite, gram_schmidt, linalg
from blockortho.linalg import mat_mul, matrix_kind
from blockortho.scalars import EXACT, one, zero


def reference_ldl(g, leading_factors):
    """(a, b, h, Z) of the LDL^T loop g = B^T D B over Fractions."""
    n_dim = len(g)
    unit = [[zero(EXACT)] * n_dim for _ in range(n_dim)]
    scaled = [[zero(EXACT)] * n_dim for _ in range(n_dim)]
    norms = []
    dets = [one(EXACT)]
    for col in range(n_dim):
        scaled[col][col:] = [
            g[col][j] - sum(unit[m][col] * scaled[m][j] for m in range(col))
            for j in range(col, n_dim)
        ]
        pivot = scaled[col][col]
        h = pivot / leading_factors[col] ** 2
        if h <= 0:
            raise NotPositiveDefinite(f"pivot h_{col} = {h} is not positive", degree=col)
        unit[col][col:] = [x / pivot for x in scaled[col][col:]]
        norms.append(h)
        dets.append(dets[-1] * pivot)
    a = [[zero(EXACT)] * n_dim for _ in range(n_dim)]
    for n in range(n_dim):
        a[n][n] = one(EXACT)
        for m in range(n - 1, -1, -1):
            a[m][n] = -sum(unit[m][j] * a[j][n] for j in range(m + 1, n + 1))
        for m in range(n + 1):
            a[m][n] /= leading_factors[n]
    b = [[f * x for x in r] for f, r in zip(leading_factors, unit)]
    return a, b, norms, dets


def reference_mat_mul(a, b):
    cols = len(b[0]) if b else 0
    start = zero(matrix_kind(a))
    b_nonzero = [[(j, y) for j, y in enumerate(row) if y != 0] for row in b]
    out = []
    for row in a:
        acc = [start] * cols
        for x, b_row in zip(row, b_nonzero):
            if x != 0:
                for j, y in b_row:
                    acc[j] += x * y
        out.append(acc)
    return out


def _result_lists(res):
    return [
        [list(r) for r in res.coeffs],
        [list(r) for r in res.inverse_coeffs],
        list(res.norms),
        list(res.gram_dets),
    ]


def _bits(values):
    """Float entries as hex strings (so -0.0 and 0.0 differ), nested lists kept."""
    if isinstance(values, (list, tuple)):
        return [_bits(v) for v in values]
    return values.hex() if isinstance(values, float) else values


def _flat(values):
    for v in values:
        if isinstance(v, (list, tuple)):
            yield from _flat(v)
        else:
            yield v


rationals = st.builds(
    Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 4, 6, 9])
)
nonzero_rationals = rationals.filter(lambda x: x != 0)
factors = st.one_of(
    nonzero_rationals, st.integers(-5, 5).filter(bool), st.sampled_from([Fraction(-3, 7), 2])
)


def _product(unit_lower, diagonal):
    """unit_lower diag(diagonal) unit_lower^T as Fractions, summed by the reference product."""
    scaled = [[x * d for x, d in zip(row, diagonal)] for row in unit_lower]
    return reference_mat_mul(scaled, [list(c) for c in zip(*unit_lower)])


def _int_where_whole(matrix, draw_bool):
    """The matrix with some whole entries as plain ints, symmetric positions alike."""
    n = len(matrix)
    out = [list(row) for row in matrix]
    for j in range(n):
        for k in range(j, n):
            if out[j][k].denominator == 1 and draw_bool():
                out[j][k] = out[k][j] = int(out[j][k])
    return out


@st.composite
def ldl_matrices(draw, positive=True):
    """G = M diag(d) M^T with M unit lower triangular: its LDL^T pivots are d,
    all positive or with at least one that is not."""
    size = draw(st.integers(0, 6))
    m = [
        [draw(rationals) if k < j else Fraction(int(k == j)) for k in range(size)]
        for j in range(size)
    ]
    d = draw(st.lists(rationals.filter(lambda x: x > 0), min_size=size, max_size=size))
    if not positive:
        if not size:
            size, m, d = 1, [[Fraction(1)]], [Fraction(1)]
        d[draw(st.integers(0, size - 1))] = draw(rationals.filter(lambda x: x <= 0))
    gram = _int_where_whole(_product(m, d), lambda: draw(st.booleans()))
    fs = draw(st.lists(factors, min_size=size, max_size=size))
    return gram, fs


def _as_fractions(gram):
    return [[Fraction(x) for x in row] for row in gram]


@given(ldl_matrices())
@settings(max_examples=300, deadline=None)
def test_the_integer_kernel_equals_the_fraction_loop(case):
    gram, fs = case
    got = _result_lists(gram_schmidt(gram, fs))
    assert got == list(reference_ldl(_as_fractions(gram), fs))
    assert all(type(x) is Fraction for x in _flat(got))


@pytest.mark.parametrize("size", [0, 1])
def test_the_integer_kernel_at_sizes_zero_and_one(size):
    gram = [[Fraction(7, 3)]][:size]
    fs = [Fraction(-2, 5)][:size]
    res = gram_schmidt(gram, fs)
    assert _result_lists(res) == list(reference_ldl(gram, fs))
    assert res.gram_dets[0] == 1 and type(res.gram_dets[0]) is Fraction
    assert res.factors == tuple(fs)


@given(ldl_matrices(positive=False))
@settings(max_examples=200, deadline=None)
def test_the_integer_kernel_refuses_as_the_fraction_loop(case):
    gram, fs = case
    with pytest.raises(NotPositiveDefinite) as expected:
        reference_ldl(_as_fractions(gram), fs)
    with pytest.raises(NotPositiveDefinite) as info:
        gram_schmidt(gram, fs)
    assert info.value.degree == expected.value.degree
    assert str(info.value) == str(expected.value)


def test_the_integer_kernel_runs_its_own_elimination(monkeypatch):
    # the oracle's elimination routines stay a separate route
    def refuse(*args, **kwargs):
        raise AssertionError("the kernel reached the oracle's elimination")

    for name in ("_eliminate", "_back_substitute", "LiftedElimination"):
        monkeypatch.setattr(linalg, name, refuse)
    gram = [[Fraction(4), Fraction(1, 2), 1], [Fraction(1, 2), 3, Fraction(2, 3)], [1, Fraction(2, 3), 5]]
    assert _result_lists(gram_schmidt(gram, [1, -2, Fraction(3, 4)])) == list(
        reference_ldl(_as_fractions(gram), [1, -2, Fraction(3, 4)])
    )


def test_a_singular_leading_block_is_refused_at_its_degree():
    gram = [[Fraction(1), 2, 3], [2, 4, Fraction(5)], [3, Fraction(5), 7]]
    with pytest.raises(NotPositiveDefinite) as info:
        gram_schmidt(gram, [1, Fraction(1, 2), -3])
    assert info.value.degree == 1
    assert str(info.value) == "pivot h_1 = 0 is not positive"


@st.composite
def exact_products(draw):
    """(a, b) of shapes r x k and k x c, k, r, c in 0..4, with whole rows and
    columns of zeros, ints and Fractions; b is [] when k = 0."""
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    entry = st.one_of(rationals, st.integers(-3, 3), st.just(Fraction(0)))

    def matrix(rows, cols):
        m = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
        if rows and cols and draw(st.booleans()):
            m[draw(st.integers(0, rows - 1))] = [0] * cols
        if rows and cols and draw(st.booleans()):
            col = draw(st.integers(0, cols - 1))
            for row in m:
                row[col] = Fraction(0)
        return m

    a = matrix(r, k)
    b = matrix(k, c)
    return a, b


@given(exact_products())
@settings(max_examples=300, deadline=None)
def test_exact_mat_mul_equals_the_fraction_loop(case):
    a, b = case
    got = mat_mul(a, b)
    assert got == reference_mat_mul(a, b)
    assert all(type(x) is Fraction for row in got for x in row)


def test_exact_mat_mul_with_an_empty_right_factor():
    assert mat_mul([[], []], []) == [[], []]
    assert mat_mul([], [[Fraction(1), 2]]) == []


floats = st.one_of(
    st.floats(-8, 8, allow_nan=False, allow_infinity=False), st.just(0.0), st.just(-0.0)
)


@given(st.integers(0, 4).flatmap(
    lambda k: st.tuples(
        st.lists(st.lists(floats, min_size=k, max_size=k), max_size=4),
        st.integers(0, 4).flatmap(
            lambda c: st.lists(st.lists(floats, min_size=c, max_size=c), min_size=k, max_size=k)
        ),
    )
))
@settings(max_examples=200, deadline=None)
def test_float_mat_mul_is_bit_identical_to_the_loop(case):
    a, b = case
    assert _bits(mat_mul(a, b)) == _bits(reference_mat_mul(a, b))


@st.composite
def float_grams(draw):
    size = draw(st.integers(0, 6))
    raw = [[draw(st.floats(-4, 4, allow_nan=False)) for _ in range(size)] for _ in range(size)]
    gram = reference_mat_mul([list(c) for c in zip(*raw)], raw)
    shift = draw(st.sampled_from([0.0, 1e-3, 1.0]))
    for d in range(size):
        gram[d][d] += shift
    fs = draw(st.lists(st.sampled_from([1.0, -2.0, 0.5, 3.0]), min_size=size, max_size=size))
    return gram, fs


@given(float_grams())
@settings(max_examples=200, deadline=None)
def test_a_float_gram_runs_the_integer_kernel_on_its_dyadic_values(case):
    # floats are read as the rationals they hold: the result is the loop's on
    # Fraction(x), every entry a Fraction, and a refusal is the loop's
    gram, fs = case
    try:
        expected = reference_ldl(_as_fractions(gram), [Fraction(f) for f in fs])
    except NotPositiveDefinite as exc:
        with pytest.raises(NotPositiveDefinite) as info:
            gram_schmidt(gram, fs)
        assert (info.value.degree, str(info.value)) == (exc.degree, str(exc))
        return
    got = _result_lists(gram_schmidt(gram, fs))
    assert got == list(expected)
    assert all(type(x) is Fraction for x in _flat(got))
