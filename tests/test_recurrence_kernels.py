"""The integer three-term recurrence against Fraction loop references.

``reference_connection`` is the loop that built the connection T of the
second stage (``block._connection_to_second``) and
``reference_recurrence_result`` the loop that built the first stage's
monic coefficients (``standard._recurrence_result``); both are kept here as
they were before their exact branches moved to the integer routine
``standard._recurrence_columns``.  Exact results must equal them entry by
entry, float results bit for bit.
"""

import inspect
from fractions import Fraction
from functools import reduce
from operator import add
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockortho import Measure, OracleMismatch, block, build_sbo, build_standard, linalg, standard
from blockortho.block import sbo_parity_build
from blockortho.scalars import EXACT, FLOAT, as_kind, one, zero
from blockortho.standard import monic_recurrence


def reference_connection(q_basis, rec2):
    """T[m][j], the coefficient of R_m in Q_j, term by term in the scalars
    of the basis."""
    n = q_basis.size
    kind = q_basis.backend
    b = [as_kind(b_m, kind) for b_m, _ in rec2]
    c = [as_kind(c_m, kind) for _, c_m in rec2]
    t = [[zero(kind)] * n for _ in range(n)]
    t[0][0] = as_kind(q_basis.leading[0], kind)
    for k, coeffs in enumerate(q_basis.recurrence):
        a_k, b_k, c_k = (as_kind(x, kind) for x in coeffs)
        for m in range(k + 2):
            x_terms = []
            if b[m] and m <= k and t[m][k]:
                x_terms.append(b[m] * t[m][k])
            if m and t[m - 1][k]:
                x_terms.append(t[m - 1][k])
            if m < k and t[m + 1][k]:
                x_terms.append(c[m + 1] * t[m + 1][k])
            x_t = reduce(add, x_terms) if x_terms else None
            terms = [] if x_t is None else [x_t if a_k == 1 else a_k * x_t]
            if b_k and m <= k and t[m][k]:
                terms.append(b_k * t[m][k])
            if c_k and m < k and t[m][k - 1]:
                terms.append(-(c_k * t[m][k - 1]))
            if terms:
                t[m][k + 1] = reduce(add, terms)
    return t


def reference_recurrence_result(rec, backend):
    """(coefficients, norms, Hankel determinants) of the monic q_n of ``rec``."""
    n = len(rec)
    b = [as_kind(b_n, backend) for b_n, _ in rec]
    c = [as_kind(c_n, backend) for _, c_n in rec]
    nil = zero(backend)
    q = [[nil] * n for _ in range(n)]
    q[0][0] = one(backend)
    for k in range(n - 1):
        b_k, c_k = b[k], c[k]
        for m in range(k + 2):
            v = q[m - 1][k] if m else nil
            if b_k and m <= k and q[m][k]:
                v -= b_k * q[m][k]
            if k and m < k and q[m][k - 1]:
                v -= c_k * q[m][k - 1]
            q[m][k + 1] = v
    norms = [one(backend)]
    for c_n in c[1:]:
        norms.append(norms[-1] * c_n)
    dets = [one(backend)]
    for h in norms:
        dets.append(dets[-1] * h)
    return q, norms, dets


def reference_gamma(t, rec2, i):
    """Upper triangle of T^T diag(h) T over the columns i.., h_m = c_1 ... c_m."""
    n = len(t)
    h = [Fraction(1)]
    for _, c_m in rec2[1 : n]:
        h.append(h[-1] * c_m)
    return [
        [sum((h[m] * t[m][j] * t[m][k] for m in range(j + 1)), Fraction(0)) for k in range(j, n)]
        for j in range(i, n)
    ]


def _columns_as_matrix(cols):
    n = len(cols)
    t = [[Fraction(0)] * n for _ in range(n)]
    for j, (ints, den) in enumerate(cols):
        for m, x in enumerate(ints):
            t[m][j] = Fraction(x, den)
    return t


RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
)
NONZERO = st.fractions(min_value=-5, max_value=5, max_denominator=12).filter(bool)
CLOSED = st.one_of(
    st.builds(Measure.gaussian, NONZERO.map(abs)),
    st.builds(Measure.gamma_weight, NONZERO.map(abs), NONZERO.map(abs)),
)
SYMMETRIC = st.builds(Measure.gaussian, NONZERO.map(abs))


def _targets(n):
    random_target = st.lists(st.tuples(RATIONALS, RATIONALS), min_size=n, max_size=n)
    return st.one_of(CLOSED.map(lambda m: monic_recurrence(m, n)), random_target)


@st.composite
def connections(draw):
    """(q_basis, rec2, i): Q from random monic terms and random nonzero
    leading coefficients (every rational recurrence with nonzero A_k is
    one), a custom-leading first stage or a parity build, on a random or a
    closed-form target recurrence."""
    source = draw(st.sampled_from(["random", "leading", "parity"]))
    if source == "parity":
        n = draw(st.integers(1, 12))
        m1, m2 = draw(SYMMETRIC), draw(SYMMETRIC)
        q_basis = sbo_parity_build(m1, m2, draw(st.integers(0, n)), n).q_basis
    elif source == "leading":
        n = draw(st.integers(1, 16))
        leading = draw(st.lists(NONZERO, min_size=n, max_size=n))
        q_basis = build_standard(draw(CLOSED), n, leading=leading)
    else:
        n = draw(st.integers(1, 24))
        terms = draw(st.lists(st.tuples(RATIONALS, RATIONALS), min_size=n - 1, max_size=n - 1))
        ks = draw(st.lists(NONZERO, min_size=n, max_size=n))
        steps = tuple(
            (ks[m + 1] / ks[m], -ks[m + 1] / ks[m] * b_m, ks[m + 1] * c_m / ks[m - 1] if m else 0)
            for m, (b_m, c_m) in enumerate(terms)
        )
        q_basis = SimpleNamespace(size=n, backend=EXACT, monic_terms=tuple(terms), recurrence=steps,
                                  leading=tuple(ks))
    return q_basis, draw(_targets(n)), draw(st.integers(0, n))


@given(connections())
@settings(max_examples=150, deadline=None)
def test_the_integer_connection_and_gamma_equal_the_fraction_loops(case):
    q_basis, rec2, i = case
    cols = block._connection_to_second(q_basis, rec2)
    expect = reference_connection(q_basis, rec2)
    assert _columns_as_matrix(cols) == expect
    # each column is what lift gives: the lcm of its denominators
    for j, (ints, den) in enumerate(cols):
        assert (ints, den) == linalg.lift([expect[m][j] for m in range(j + 1)])
    full = block._gram_by_connection(q_basis, rec2, i).rows()
    assert [list(row[j:]) for j, row in enumerate(full)] == reference_gamma(expect, rec2, i)


@st.composite
def first_stage_recurrences(draw):
    n = draw(st.integers(1, 24))
    if draw(st.booleans()):
        return monic_recurrence(draw(CLOSED), n)
    return tuple(draw(st.lists(st.tuples(RATIONALS, RATIONALS), min_size=n, max_size=n)))


@given(first_stage_recurrences())
@settings(max_examples=150, deadline=None)
def test_the_integer_first_stage_equals_the_fraction_loop(rec):
    result = standard._recurrence_result(rec, EXACT)
    q, norms, dets = reference_recurrence_result(rec, EXACT)
    assert [list(row) for row in result.coeffs] == q
    assert all(type(x) is Fraction for row in result.coeffs for x in row)
    assert (list(result.norms), list(result.gram_dets)) == (norms, dets)
    assert "inverse_coeffs" not in vars(result)  # the recurrence route forms no b
    assert result.factors == (Fraction(1),) * len(rec)


FLOATS = st.one_of(st.just(0.0), st.floats(-5, 5))
NONZERO_FLOATS = st.one_of(st.floats(-5, -0.01), st.floats(0.01, 5))


def _bits(matrix):
    return [[x.hex() for x in row] for row in matrix]


@given(st.integers(1, 20).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(NONZERO_FLOATS, FLOATS, FLOATS), min_size=n - 1, max_size=n - 1),
    st.lists(st.tuples(RATIONALS, RATIONALS), min_size=n, max_size=n),
    st.lists(st.tuples(FLOATS, FLOATS), min_size=n, max_size=n),
)))
@settings(max_examples=150, deadline=None)
def test_the_float_recurrences_are_bit_identical_to_the_loops(case):
    steps, rec2, rec = case
    n = len(rec)
    q_basis = SimpleNamespace(size=n, backend=FLOAT, recurrence=tuple(steps), leading=(1.5,))
    assert _bits(block._connection_to_second(q_basis, rec2)) == _bits(
        reference_connection(q_basis, rec2)
    )
    result = standard._recurrence_result(rec, FLOAT)
    q, norms, dets = reference_recurrence_result(rec, FLOAT)
    assert _bits(result.coeffs) == _bits(q)
    assert _bits([result.norms, result.gram_dets]) == _bits([norms, dets])


def _sign_flipped(name, update):
    """``standard.<name>`` from its own source with the minus sign of
    ``update`` turned into a plus."""
    source = inspect.getsource(getattr(standard, name))
    assert source.count(update) == 1
    namespace = dict(vars(standard))
    exec(source.replace(update, update.replace(" - ", " + ")), namespace)
    return namespace[name]


@pytest.mark.parametrize("pair", ["hermite_pair", "laguerre_pair"])
def test_the_sign_flipped_recurrence_is_caught_at_the_first_stage(monkeypatch, request, pair):
    # the C_k term y - c_f * z turned into y + c_f * z
    flipped = _sign_flipped("_recurrence_columns", "y - c_f * z")
    monkeypatch.setattr(standard, "_recurrence_columns", flipped)
    measure1, _ = request.getfixturevalue(pair)
    with pytest.raises(OracleMismatch, match="recurrence coefficients miss") as info:
        build_standard(measure1, 8)
    assert info.value.stage == "first_stage"


@pytest.mark.parametrize("pair", ["hermite_pair", "laguerre_pair"])
def test_the_sign_flipped_recurrence_is_caught_at_the_second_stage(monkeypatch, request, pair):
    # only T's call runs the flipped routine: the first stage's call is the
    # one over the monomials (an empty target)
    original = standard._recurrence_columns
    flipped = _sign_flipped("_recurrence_columns", "y - c_f * z")
    monkeypatch.setattr(
        standard, "_recurrence_columns",
        lambda rec, target: (flipped if target else original)(rec, target),
    )
    with pytest.raises(OracleMismatch, match="gamma matrix and second-measure moments") as info:
        build_sbo(*request.getfixturevalue(pair), 2, 8)
    assert info.value.stage == "second_stage"
