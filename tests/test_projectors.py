import random
from fractions import Fraction

import pytest

from blockortho import (
    Measure,
    Polynomial,
    build_sbo,
    build_standard,
    inner0,
    inner_product_mu,
    monomial,
    projectors_from_q,
    projectors_from_second,
)
from blockortho.linalg import identity
from blockortho.measures import moments


def _random_poly(rng, max_degree):
    coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(max_degree + 1)]
    return Polynomial(tuple(coeffs))


def test_trivial_indices(hermite_pair):
    q = build_standard(hermite_pair[0], 5)
    onto0, comp0 = projectors_from_q(q, 0)
    assert onto0.entries == tuple(map(tuple, [[0] * 5 for _ in range(5)]))
    assert comp0.entries == tuple(map(tuple, identity(5)))
    onto_full, comp_full = projectors_from_q(q, 5)
    assert onto_full.entries == tuple(map(tuple, identity(5)))


def test_projection_of_square(hermite_pair):
    q = build_standard(hermite_pair[0], 4)
    onto, _ = projectors_from_q(q, 1)
    assert onto.apply(monomial(2)) == Polynomial((Fraction(1, 2),))


def test_idempotence_and_complement(hermite_pair, laguerre_pair):
    for pair in (hermite_pair, laguerre_pair):
        q = build_standard(pair[0], 10)
        for i in (0, 1, 3, 6, 10):
            onto, comp = projectors_from_q(q, i)
            assert onto.compose(onto) == [list(r) for r in onto.entries]
            assert comp.compose(comp) == [list(r) for r in comp.entries]
            total = [
                [onto.entries[r][c] + comp.entries[r][c] for c in range(10)]
                for r in range(10)
            ]
            assert total == identity(10)


def test_route_equivalence(hermite_pair, laguerre_pair):
    for pair in (hermite_pair, laguerre_pair):
        q = build_standard(pair[0], 8)
        sbo0 = build_sbo(*pair, 0, 8)
        for i in (0, 1, 2, 4):
            onto_q, _ = projectors_from_q(q, i)
            onto_2, comp_2 = projectors_from_second(sbo0, i)
            assert onto_q.entries == onto_2.entries
            assert comp_2.entries == tuple(
                tuple(identity(8)[r][c] - onto_q.entries[r][c] for c in range(8))
                for r in range(8)
            )


def test_route_equivalence_single_constraint_row(laguerre_pair):
    # one constraint: the kernel collapses to a single outer product
    onto_q, _ = projectors_from_q(build_standard(laguerre_pair[0], 5), 1)
    onto_2, _ = projectors_from_second(build_sbo(*laguerre_pair, 0, 5), 1)
    assert onto_q.entries == onto_2.entries


def test_route_equivalence_same_measure_collapses():
    m = Measure.gamma_weight(1, 2)
    onto_q, _ = projectors_from_q(build_standard(m, 6), 2)
    onto_2, _ = projectors_from_second(build_sbo(m, m, 0, 6), 2)
    assert onto_q.entries == onto_2.entries


def test_second_route_rejects_bad_indices(hermite_pair):
    sbo0 = build_sbo(*hermite_pair, 0, 3)
    for i in (-1, 4, 7):
        with pytest.raises(ValueError, match=f"constraint index {i} outside 0..3"):
            projectors_from_second(sbo0, i)
    with pytest.raises(ValueError, match="i = 0 basis"):
        projectors_from_second(build_sbo(*hermite_pair, 1, 3), 1)


def test_split_parts_are_orthogonal(hermite_pair):
    rng = random.Random(3)
    q = build_standard(hermite_pair[0], 7)
    mu1 = moments(hermite_pair[0], 12)
    onto, comp = projectors_from_q(q, 3)
    for _ in range(20):
        p = _random_poly(rng, 6)
        r = _random_poly(rng, 6)
        assert inner_product_mu(mu1, onto.apply(p), comp.apply(r)) == 0


def test_inner0_block_structure(hermite_pair):
    basis = build_sbo(*hermite_pair, 2, 6)
    # constraint part against complement part vanishes
    p_low = Polynomial((Fraction(2), Fraction(-1)))
    assert inner0(p_low, basis.monic_poly(4), basis) == 0
    for m in basis.degrees():
        for n in basis.degrees():
            expect = basis.monic_norm(m) if m == n else 0
            assert inner0(basis.monic_poly(m), basis.monic_poly(n), basis) == expect


def test_inner0_symmetry(hermite_pair):
    rng = random.Random(5)
    basis = build_sbo(*hermite_pair, 2, 6)
    for _ in range(15):
        p = _random_poly(rng, 5)
        q = _random_poly(rng, 5)
        assert inner0(p, q, basis) == inner0(q, p, basis)


def test_inner0_restrictions(hermite_pair):
    basis = build_sbo(*hermite_pair, 2, 6)
    mu1 = moments(hermite_pair[0], 10)
    # inside the constraint subspace the first measure rules
    p = Polynomial((Fraction(1), Fraction(2)))
    q = Polynomial((Fraction(-1, 3), Fraction(1)))
    assert inner0(p, q, basis) == inner_product_mu(mu1, p, q)
    # inside the complement the second measure rules
    a, b = basis.monic_poly(3), basis.monic_poly(4)
    assert inner0(a, b, basis) == inner_product_mu(basis.mu2, a, b)


def test_inner0_third_measure_override(hermite_pair):
    basis = build_sbo(*hermite_pair, 2, 6)
    third = Measure.gaussian(3)
    p = monomial(0)
    q = monomial(1)
    mu3 = moments(third, 2)
    assert inner0(p, q, basis, measure_one=third) == inner_product_mu(mu3, p, q)


def test_inner0_multiplication_asymmetry(hermite_pair):
    # multiplying by x moves mass between the blocks, so the composite
    # product is not associative with the ring structure
    basis = build_sbo(*hermite_pair, 2, 6)
    p = basis.monic_poly(3)
    q = basis.monic_poly(2)
    x = monomial(1)
    assert inner0(p, x * q, basis) != inner0(x * p, q, basis)
    assert inner0(p, x * q, basis) == Fraction(15, 64)
    assert inner0(x * p, q, basis) == Fraction(3, 64)


def test_float_route_equivalence(hermite_pair):
    q = build_standard(hermite_pair[0], 6, backend="float")
    onto_q, _ = projectors_from_q(q, 2)
    onto_2, _ = projectors_from_second(build_sbo(*hermite_pair, 0, 6, backend="float"), 2)
    for r in range(6):
        for c in range(6):
            assert abs(onto_q.entries[r][c] - onto_2.entries[r][c]) <= 1e-10
