"""Exact results kept lifted, against the Fraction assemblies they replace.

An exact build keeps Q's coefficients, its scaled recurrence, gamma, a and
P as integers over one denominator and forms Fractions only where a field
is read (``linalg.LiftedField``).  The references here assemble every
public field as the Fraction code did: the first stage by the monic
recurrence loop scaled by k_n, gamma from the connection loop, the second
stage by a Fraction LDL^T, P as the Fraction product Q[:, i:] a.  Values,
types and dataclass equality must match theirs.  The exact table must make
no more Fractions than it prints, plus a small slack, and the exact
orthogonality suite must report what the inner-product loop it replaced
reported.
"""

import contextlib
import dataclasses
import io
import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockortho import Measure, NotRepresentable, build_sbos, build_standard, verification
from blockortho.block import DET_NORMALIZED, MONIC, ORTHONORMAL, SboBasis, sbo_parity_build
from blockortho.cli import main
from blockortho.gso import OrthogonalizationResult, gram_schmidt
from blockortho.measures import GramMatrix, inner_product_mu, moments
from blockortho.polynomials import Polynomial, from_columns, monomial
from blockortho.scalars import EXACT, sqrt_exact
from blockortho.standard import StandardBasis, monic_recurrence
from test_block import measure_pairs
from test_exact_rationals import SIGNED, reference_scaled_recurrence
from test_recurrence_kernels import reference_connection, reference_gamma, reference_recurrence_result


def reference_factors(normalization, dets):
    """k_s of a normalization over the leading determinants ``dets``, or
    None where an orthonormal factor is not rational."""
    out = []
    for s in range(len(dets) - 1):
        if normalization == MONIC:
            out.append(Fraction(1))
        elif normalization == DET_NORMALIZED:
            out.append(dets[s])
        else:
            root = sqrt_exact(dets[s] / dets[s + 1])
            if root is None:
                return None
            out.append(root)
    return out


def reference_ldl(g, factors):
    """Fraction LDL^T g = B^T D B, B unit upper triangular: a = B^-1 diag(1/f),
    b = diag(f) B, h = D / f^2 and the prefix products of D."""
    n = len(g)
    unit = [[Fraction(int(j == k)) for k in range(n)] for j in range(n)]
    d = []
    for k in range(n):
        row = [g[k][j] - sum(unit[m][k] * d[m] * unit[m][j] for m in range(k)) for j in range(n)]
        d.append(row[k])
        for j in range(k + 1, n):
            unit[k][j] = row[j] / d[k]
    inverse = [[Fraction(int(j == k)) for k in range(n)] for j in range(n)]
    for col in range(n):
        for m in range(col - 1, -1, -1):
            inverse[m][col] = -sum(unit[m][j] * inverse[j][col] for j in range(m + 1, col + 1))
    a = [[inverse[m][c] / factors[c] for c in range(n)] for m in range(n)]
    b = [[factors[m] * unit[m][c] for c in range(n)] for m in range(n)]
    dets = [Fraction(1)]
    for d_k in d:
        dets.append(dets[-1] * d_k)
    return a, b, [d_k / (f * f) for d_k, f in zip(d, factors)], dets


def reference_standard(measure, size, normalization, leading):
    """The public fields of an exact ``build_standard``, assembled in Fractions."""
    rec = monic_recurrence(measure, size)
    q, norms, dets = reference_recurrence_result(rec, EXACT)
    ks = list(leading) if leading is not None else reference_factors(normalization, dets)
    if ks is None:
        return None
    q_in_x = tuple(tuple(x * k for x, k in zip(row, ks)) for row in q)
    return dict(
        polys=from_columns(q_in_x),
        leading=tuple(ks),
        norms=tuple(k * k * h for k, h in zip(ks, norms)),
        q_in_x=q_in_x,
        gram_dets=tuple(dets),
        recurrence=reference_scaled_recurrence(rec[: size - 1], ks, EXACT),
    )


def reference_sbo(q_fields, measure2, i, size, normalization):
    """The public fields of an exact SboBasis for i over the first stage
    ``q_fields``, assembled in Fractions."""
    rec2 = monic_recurrence(measure2, size)
    q_basis = SimpleNamespace(size=size, backend=EXACT, recurrence=q_fields["recurrence"],
                              leading=q_fields["leading"])
    upper = reference_gamma(reference_connection(q_basis, rec2), rec2, i)
    gamma = [[upper[min(j, k)][abs(k - j)] for k in range(size - i)] for j in range(size - i)]
    ks = q_fields["leading"][i:]
    a, b, h, dets = reference_ldl(gamma, ks)
    factors = reference_factors(normalization, dets)
    if factors is None:
        return None
    scale = tuple(f if normalization == MONIC else k * f for k, f in zip(ks, factors))
    q = q_fields["q_in_x"]
    p = [[sum(q[r][i + m] * a[m][c] for m in range(size - i)) for c in range(size - i)]
         for r in range(size)]
    nil = Fraction(0)

    def padded(block):
        return tuple((nil,) * size for _ in range(i)) + tuple((nil,) * i + tuple(row) for row in block)

    return dict(
        gamma=GramMatrix(tuple(map(tuple, gamma)), f"Q_{i}..Q_{size - 1}"),
        gamma_dets=tuple(dets),
        monic_polys=from_columns(p),
        monic_norms=tuple(h),
        p_in_q=padded(a),
        q_in_p=padded(b),
        scale=scale,
    )


def _all_fractions(value):
    if isinstance(value, Polynomial):
        return _all_fractions(value.coeffs)
    if isinstance(value, (tuple, list)):
        return all(_all_fractions(x) for x in value)
    return type(value) is Fraction


def _assert_standard(basis, expect, normalization):
    for name, value in expect.items():
        assert getattr(basis, name) == value, name
        assert _all_fractions(getattr(basis, name)), name
    plain = StandardBasis(measure=basis.measure, moment_seq=basis.moment_seq, **expect,
                          normalization=normalization, backend=EXACT)
    assert basis == plain and hash(basis) == hash(plain)


def _assert_sbo(basis, expect):
    for name, value in expect.items():
        assert getattr(basis, name) == value, name
    for name in ("gamma_dets", "monic_polys", "monic_norms", "p_in_q", "q_in_p", "scale"):
        assert _all_fractions(getattr(basis, name)), name
    assert _all_fractions(basis.gamma.entries)
    fields = {k: v for k, v in expect.items() if k not in ("gamma", "q_in_p")}
    plain = SboBasis(i=basis.i, size=basis.size, measure1=basis.measure1, measure2=basis.measure2,
                     q_basis=basis.q_basis, mu2=basis.mu2, **fields,
                     normalization=basis.normalization, backend=EXACT)
    assert basis == plain


@given(measure_pairs(), st.integers(1, 8), st.data())
@settings(max_examples=120, deadline=None)
def test_every_exact_field_equals_the_fraction_assembly(pair, size, data):
    normalization = data.draw(st.sampled_from([MONIC, DET_NORMALIZED, ORTHONORMAL]), label="norm")
    leading = None
    if data.draw(st.booleans(), label="custom q_leading"):
        leading = data.draw(st.lists(SIGNED, min_size=size, max_size=size), label="k")
    i_values = sorted(data.draw(st.sets(st.integers(0, size), min_size=1), label="i"))
    expect_q = reference_standard(pair[0], size, MONIC, leading)
    q_basis = build_standard(pair[0], size, leading=leading)
    _assert_standard(q_basis, expect_q, "custom" if leading else MONIC)
    expect = {i: reference_sbo(expect_q, pair[1], i, size, normalization) for i in i_values}
    if any(e is None for e in expect.values()):
        with pytest.raises(NotRepresentable):
            build_sbos(*pair, i_values, size, normalization, q_leading=leading)
        return
    bases = build_sbos(*pair, i_values, size, normalization, q_leading=leading)
    for i, basis in bases.items():
        assert basis.q_basis == q_basis
        _assert_sbo(basis, expect[i])
    if pair[0].symmetric and pair[1].symmetric:
        # the parity build: a Hankel first stage and the one exact second stage
        i = i_values[0]
        parity = sbo_parity_build(*pair, i, size)
        _assert_standard(parity.q_basis, reference_standard(pair[0], size, MONIC, None), MONIC)
        _assert_sbo(parity, reference_sbo(reference_standard(pair[0], size, MONIC, None),
                                          pair[1], i, size, MONIC))


@given(measure_pairs(), st.integers(1, 8), st.sampled_from([MONIC, DET_NORMALIZED, ORTHONORMAL]))
@settings(max_examples=60, deadline=None)
def test_a_normalized_first_stage_equals_the_fraction_assembly(pair, size, normalization):
    expect = reference_standard(pair[0], size, normalization, None)
    if expect is None:
        with pytest.raises(NotRepresentable):
            build_standard(pair[0], size, normalization)
        return
    _assert_standard(build_standard(pair[0], size, normalization), expect, normalization)


@given(st.integers(0, 2**32), st.integers(1, 7))
@settings(max_examples=120, deadline=None)
def test_the_lifted_kernel_result_equals_the_fraction_ldl(seed, size):
    rng = random.Random(seed)
    v = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(size)] for _ in range(size)]
    for k in range(size):
        v[k][k] += 5
    gram = [[sum(v[m][j] * v[m][k] for m in range(size)) for k in range(size)] for j in range(size)]
    factors = [Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2])) for _ in range(size)]
    result = gram_schmidt(gram, factors)
    a, b, h, dets = reference_ldl(gram, factors)
    assert [list(row) for row in result.coeffs] == a
    assert [list(row) for row in result.inverse_coeffs] == b
    assert (list(result.norms), list(result.gram_dets)) == (h, dets)
    assert _all_fractions(result.coeffs) and _all_fractions(result.inverse_coeffs)
    plain = OrthogonalizationResult(tuple(map(tuple, a)), tuple(h), tuple(factors), tuple(dets))
    assert result == plain and repr(result) == repr(plain)


TABLE = ["table", "--measure1", "gaussian:2/3", "--measure2", "gaussian:5/2", "--N", "16", "--i", "4"]
# The table prints 150 rationals and may make at most that many Fractions
# plus this slack.  What it makes are its inputs (the parsed alphas, both
# recurrences, the moments) and the norms and determinants of both stages;
# no coefficient, gamma entry or printed rational is a Fraction.
FRACTION_SLACK = 10


@contextlib.contextmanager
def _counting_fractions():
    """Count every Fraction made: by the constructor, and on Python 3.12+
    by the arithmetic's ``_from_coprime_ints``."""
    made = []
    new = vars(Fraction)["__new__"]
    coprime = vars(Fraction).get("_from_coprime_ints")

    def counting_new(cls, *args, **kwargs):
        made.append(1)
        return new.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting_new)
    if coprime is not None:
        Fraction._from_coprime_ints = classmethod(
            lambda cls, n, d: made.append(1) or coprime.__func__(cls, n, d)
        )
    try:
        yield made
    finally:
        Fraction.__new__ = new
        if coprime is not None:
            Fraction._from_coprime_ints = coprime


def test_the_exact_table_makes_about_as_many_fractions_as_it_prints():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(TABLE) == 0  # module constants and lazy imports are made once, here
    payload = json.loads(out.getvalue())
    printed = sum(len(v["coeffs"]) if isinstance(v, dict) else 1
                  for k, v in payload.items() if k[:2] in ("P_", "H_", "Z_"))
    assert printed == 150
    with _counting_fractions() as made, contextlib.redirect_stdout(io.StringIO()) as again:
        assert main(TABLE) == 0
    assert again.getvalue() == out.getvalue()
    assert len(made) <= printed + FRACTION_SLACK, len(made)


def test_the_fraction_count_sees_arithmetic():
    with _counting_fractions() as made:
        x = Fraction(1, 3) + Fraction(1, 6)
    assert x == Fraction(1, 2) and len(made) >= 3


def reference_orthogonality(mu1, bases):
    """The exact orthogonality loop the integer suite replaced: each inner
    product by ``inner_product_mu``."""
    for i, basis in bases.items():
        for n in basis.degrees():
            p = basis.monic_poly(n)
            for m in range(i):
                val = inner_product_mu(mu1, monomial(m), p)
                if val != 0:
                    return dict(i=i, n=n, residual=float(val))
            for m in basis.degrees():
                val = inner_product_mu(basis.mu2, basis.monic_poly(m), p)
                expect = basis.monic_norm(n) if m == n else 0
                if val != expect:
                    return dict(i=i, n=n, m=m, residual=float(val - expect))
    return None


@given(measure_pairs(), st.integers(1, 7), st.integers(0, 5), st.data())
@settings(max_examples=80, deadline=None)
def test_the_integer_orthogonality_suite_reports_as_the_loop(pair, size, i_max, data):
    original = verification.build_sbos
    nudge = data.draw(st.one_of(st.none(), st.sampled_from([Fraction(1, 10**6), Fraction(-3, 7)])),
                      label="nudge")
    seen = {}

    def nudged(*args, **kwargs):
        bases = original(*args, **kwargs)
        if nudge is not None:
            i = data.draw(st.sampled_from(sorted(bases)), label="i")
            if bases[i].degrees():
                n = data.draw(st.sampled_from(list(bases[i].degrees())), label="n")
                k = data.draw(st.integers(0, n), label="k")
                polys = list(bases[i].monic_polys)
                coeffs = list(polys[n - i].coeffs)
                coeffs[k] += nudge
                polys[n - i] = Polynomial(tuple(coeffs))
                bases[i] = dataclasses.replace(bases[i], monic_polys=tuple(polys))
        seen["bases"] = bases
        return bases

    verification.build_sbos = nudged
    try:
        report = verification.check_orthogonality(*pair, size, i_max)
    finally:
        verification.build_sbos = original
    mu1 = moments(pair[0], 2 * (size - 1))
    expect = reference_orthogonality(mu1, seen["bases"])
    if expect is None:
        assert report == {"check": "orthogonality", "passed": True, "n": size,
                          "i_max": min(i_max, size), "worst_residual": 0.0}
    else:
        assert report == {"check": "orthogonality", "passed": False, **expect}


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_the_orthogonality_report_names_the_i_it_checked(capsys, backend):
    argv = ["verify", "--pair", "hermite", "--N", "2", "--checks", "orthogonality"]
    assert main(argv + (["--float"] if backend == "float" else [])) == 0
    (report,) = json.loads(capsys.readouterr().out)["reports"]
    assert (report["passed"], report["i_max"], report["n"]) == (True, 2, 2)
    pair = (Measure.gaussian(1), Measure.gaussian(2))
    assert check_i_max(pair, 6, 4, backend) == 4
    assert check_i_max(pair, 3, 9, backend) == 3


def check_i_max(pair, size, i_max, backend):
    return verification.check_orthogonality(*pair, size, i_max, backend=backend)["i_max"]
