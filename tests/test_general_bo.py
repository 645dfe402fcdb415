"""General block orthogonal bases (``block.build_general_bo``) for arbitrary
constraint subspaces: pinned exact outputs, the monomial Hankel construction
as a reference on random subspaces, float builds against exact ones, and the
checks of both stages.

``tests/golden/general-bo.json`` holds, for each case, the completion
degrees and both stages' polynomials and norms as ``p/q`` strings, so a
change of route must reproduce every exact output.  Regenerate it (only when
an output change is intended) with::

    PYTHONPATH=src python tests/test_general_bo.py
"""

import dataclasses
import json
import pathlib
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockortho import (
    ConditioningError,
    DependentConstraints,
    Measure,
    OracleMismatch,
    Polynomial,
    block,
    build_general_bo,
    build_sbo,
    gso,
    linalg,
    monomial,
)
from blockortho.measures import gram_of, moments
from blockortho.polynomials import columns_of, from_columns

GOLDEN = pathlib.Path(__file__).parent / "golden" / "general-bo.json"

HERMITE = (Measure.gaussian(1), Measure.gaussian(2))
LAGUERRE = (Measure.gamma_weight(1, 1), Measure.gamma_weight(2, 1))
GAMMA_GAUSSIAN = (Measure.gamma_weight(1, Fraction(3, 2)), Measure.gaussian(2))

# name: (measure pair, constraint coefficient lists, N)
PINNED = {
    "hermite-x-N12": (HERMITE, [[0, 1]], 12),
    "hermite-x3-N12": (HERMITE, [[0, 0, 0, 1]], 12),
    "hermite-1-3+2x-N12": (HERMITE, [[1], [3, 2]], 12),
    "hermite-x2-N12": (HERMITE, [[0, 0, 1]], 12),
    "hermite-pi5-N12": (HERMITE, [[0] * k + [1] for k in range(6)], 12),
    "laguerre-1-x-N10": (LAGUERRE, [[1], [0, 1]], 10),
    "gamma-gaussian-1+x2-N8": (GAMMA_GAUSSIAN, [[1, 0, 1]], 8),
}


def _text(x):
    return str(Fraction(x))


def _record(basis):
    return {
        "completion_degrees": list(basis.completion_degrees),
        "first_stage": [[_text(c) for c in p.coeffs] for p in basis.first_stage],
        "first_norms": [_text(h) for h in basis.first_norms],
        "second_stage": [[_text(c) for c in p.coeffs] for p in basis.second_stage],
        "second_norms": [_text(h) for h in basis.second_norms],
    }


def _build(name):
    pair, constraints, n_dim = PINNED[name]
    polys = [Polynomial(tuple(Fraction(c) for c in coeffs)) for coeffs in constraints]
    return build_general_bo(*pair, polys, n_dim)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_exact_general_bo_matches_its_pinned_output(name):
    expected = json.loads(GOLDEN.read_text())[name]
    assert _record(_build(name)) == expected


def _within(fl, exact, rtol):
    # a coefficient that cancels exactly in rationals is rounding in floats, so
    # the float polynomial may run past the exact degree: every coefficient,
    # those above it too, must be within rtol of the exact one (or of zero)
    for a, b in zip(exact.first_stage + exact.second_stage, fl.first_stage + fl.second_stage):
        coeffs = [float(c) for c in a.coeffs]
        assert b.degree >= a.degree
        padded = coeffs + [0.0] * (b.degree - a.degree)
        assert max(abs(x - y) for x, y in zip(b.coeffs, padded)) <= rtol * max(map(abs, coeffs))
    for a, b in zip(exact.first_norms + exact.second_norms, fl.first_norms + fl.second_norms):
        assert abs(b - float(a)) <= rtol * abs(float(a))


def _monomial_route(measure1, measure2, subspace, n_dim):
    """The general construction on monomial Hankel Gram matrices, as a
    reference: completion by one Gram determinant per candidate monomial,
    then Gram-Schmidt under each measure.  None when the subspace is
    dependent."""
    mu1, mu2 = (moments(m, 2 * n_dim - 2) for m in (measure1, measure2))
    if linalg.det(gram_of(mu1, columns_of(subspace, n_dim))) == 0:
        return None
    basis, completion = list(subspace), []
    for d in range(n_dim):
        candidate = basis + [monomial(d)]
        if len(basis) < n_dim and linalg.det(gram_of(mu1, columns_of(candidate, n_dim))) != 0:
            basis, completion = candidate, completion + [d]
    n1, cols = len(subspace), columns_of(basis, n_dim)
    res1 = gso.gram_schmidt(gram_of(mu1, cols), [Fraction(1)] * n_dim)
    first = linalg.mat_mul(cols, [row[n1:] for row in res1.coeffs])
    res2 = gso.gram_schmidt(gram_of(mu2, first), [Fraction(1)] * (n_dim - n1))
    second = from_columns(linalg.mat_mul(first, res2.coeffs))
    return tuple(completion), from_columns(first), res1.norms[n1:], second, res2.norms


@given(
    st.sampled_from([HERMITE, LAGUERRE, GAMMA_GAUSSIAN]),
    st.integers(2, 7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.lists(st.integers(-2, 2), min_size=1, max_size=n), min_size=1, max_size=n - 1),
        )
    ),
)
@example(HERMITE, (4, [[1, 1, 1], [1, 0, 1, 1], [0, 1]]))  # the float x^3 term cancels to 2e-17, not 0
@example(HERMITE, (3, [[0, 0, 1]]))  # x^2 P_0 vanishes at every node of the first Gauss rule
@example(HERMITE, (3, [[-3, 0, 2]]))  # so does (2x^2 - 3) P_0
@settings(max_examples=60, deadline=None)
def test_the_general_build_is_the_monomial_route(pair, case):
    n_dim, constraints = case
    subspace = [Polynomial(tuple(Fraction(c) for c in coeffs)) for coeffs in constraints]
    expected = _monomial_route(*pair, subspace, n_dim)
    if expected is None:
        with pytest.raises(DependentConstraints):
            build_general_bo(*pair, subspace, n_dim)
        return
    basis = build_general_bo(*pair, subspace, n_dim)
    got = (basis.completion_degrees, basis.first_stage, basis.first_norms)
    assert got + (basis.second_stage, basis.second_norms) == expected
    # the float build answers within 1e-9 of it or refuses at the gate
    try:
        fl = build_general_bo(*pair, [p.to_float() for p in subspace], n_dim, backend="float")
    except ConditioningError as exc:
        assert exc.condition > exc.limit
        return
    assert fl.completion_degrees == basis.completion_degrees
    _within(fl, basis, 1e-9)


def test_a_dependent_constraint_is_named_by_its_index():
    with pytest.raises(DependentConstraints, match="constraint 1 depends") as info:
        build_general_bo(*HERMITE, [monomial(1), monomial(1).scale(Fraction(2))], 5)
    assert str(info.value) == "constraint 1 depends on the constraints before it"
    sum_of_both = Polynomial((Fraction(1), Fraction(1)))
    with pytest.raises(DependentConstraints, match="constraint 2 depends"):
        build_general_bo(*LAGUERRE, [monomial(0), monomial(1), sum_of_both], 5, backend="float")


@pytest.mark.parametrize("pair", [LAGUERRE, HERMITE], ids=["laguerre", "hermite"])
def test_the_float_general_build_answers_where_build_sbo_does(pair):
    # {1} and {1, x} are E = pi_{i-1} for i = 1, 2: the same weighted columns
    # as build_sbo's, so the same gate decides, and no DependentConstraints
    for i in (1, 2):
        subspace = [monomial(k) for k in range(i)]
        for n_dim in range(4, 21):
            try:
                build_sbo(*pair, i, n_dim, backend="float")
                refused = False
            except ConditioningError:
                refused = True
            floats = [p.to_float() for p in subspace]
            if refused:
                with pytest.raises(ConditioningError):
                    build_general_bo(*pair, floats, n_dim, backend="float")
                continue
            fl = build_general_bo(*pair, floats, n_dim, backend="float")
            exact = build_general_bo(*pair, subspace, n_dim)
            assert fl.completion_degrees == exact.completion_degrees == tuple(range(i, n_dim))
            _within(fl, exact, 1e-9)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_the_float_general_build_agrees_with_the_pinned_exact_one(name):
    pair, constraints, n_dim = PINNED[name]
    polys = [Polynomial(tuple(float(c) for c in coeffs)) for coeffs in constraints]
    fl = build_general_bo(*pair, polys, n_dim, backend="float")
    exact = _build(name)
    assert fl.completion_degrees == exact.completion_degrees
    _within(fl, exact, 1e-9)


SHEARED = [Polynomial((Fraction(1),)), Polynomial((Fraction(3), Fraction(2)))]


def _nudge_call(monkeypatch, module, name, call, nudge):
    """Make the ``call``-th call of ``module.name`` return its result with
    a_{0,n} of the last column n nudged by ``nudge``."""
    original = getattr(module, name)
    calls = []

    def nudged(*args):
        result = original(*args)
        calls.append(args)
        if len(calls) - 1 != call:
            return result
        coeffs = [list(row) for row in result.coeffs]
        coeffs[0][-1] = nudge(coeffs[0][-1])
        return dataclasses.replace(result, coeffs=tuple(map(tuple, coeffs)))

    monkeypatch.setattr(module, name, nudged)


@pytest.mark.parametrize("stage, call", [("first_stage", 0), ("second_stage", 1)])
def test_a_nudged_exact_stage_is_caught_and_named(monkeypatch, stage, call):
    _nudge_call(monkeypatch, gso, "gram_schmidt", call, lambda a: a + Fraction(1, 10**6))
    with pytest.raises(OracleMismatch, match="determinant oracle disagrees") as info:
        build_general_bo(*HERMITE, SHEARED, 8)
    assert info.value.stage == stage


@pytest.mark.parametrize("stage, call", [("first_stage", 0), ("second_stage", 1)])
def test_a_nudged_float_stage_is_caught_and_named(monkeypatch, stage, call):
    _nudge_call(monkeypatch, block, "_qr_second_stage", call, lambda a: a + 1e-6)
    with pytest.raises(OracleMismatch, match="Gauss-rule residuals") as info:
        build_general_bo(*HERMITE, [p.to_float() for p in SHEARED], 8, backend="float")
    assert info.value.stage == stage


@pytest.mark.parametrize(
    "backend, stage, message",
    [
        ("exact", "first_stage", "first-stage Gram matrix and moments disagree"),
        ("float", "second_stage", "second-stage Gauss-rule residuals"),
    ],
)
def test_wrong_constraint_coordinates_are_caught(monkeypatch, backend, stage, message):
    # the constraints' Q coordinates are checked against the moments (exact)
    # or by the constraint moments of the output at the first Gauss rule (float)
    original = block._in_q

    def perturbed(q_basis, coeffs):
        v = original(q_basis, coeffs)
        v[0][-1] += Fraction(1, 10**6)
        return v

    monkeypatch.setattr(block, "_in_q", perturbed)
    polys = [SHEARED[1] if backend == "exact" else SHEARED[1].to_float()]
    with pytest.raises(OracleMismatch, match=message) as info:
        build_general_bo(*LAGUERRE, polys, 8, backend=backend)
    assert info.value.stage == stage


@pytest.mark.parametrize(
    "backend, message",
    [("exact", "second-stage Gram matrix and moments"), ("float", "second-stage Gauss-rule residuals")],
)
def test_a_nudged_connection_entry_is_caught(monkeypatch, backend, message):
    original = block._connection_to_second

    def perturbed(q_basis, rec2):
        t = original(q_basis, rec2)
        if backend == "float":
            t[1][3] *= 1 + 1e-6  # R_1 in Q_3
        else:  # T[1][3] + 1/10^6 in the lifted column 3
            ints, den = t[3]
            t[3] = ([x * 10**6 + (den if m == 1 else 0) for m, x in enumerate(ints)], den * 10**6)
        return t

    monkeypatch.setattr(block, "_connection_to_second", perturbed)
    polys = [monomial(1) if backend == "exact" else monomial(1).to_float()]
    with pytest.raises(OracleMismatch, match=message) as info:
        build_general_bo(*HERMITE, polys, 6, backend=backend)
    assert info.value.stage == "second_stage"


def test_the_general_build_takes_no_hankel_congruence(forbid_congruence):
    _build("laguerre-1-x-N10")
    build_general_bo(*LAGUERRE, [monomial(0).to_float(), monomial(1).to_float()], 10, backend="float")


if __name__ == "__main__":
    sys.stdout.reconfigure(newline="\n")
    GOLDEN.write_text(json.dumps({name: _record(_build(name)) for name in sorted(PINNED)}, indent=1) + "\n")
