"""Fixed-seed random trials of the Gram-Schmidt kernel and of the
checkerboard-determinant lemma, on integer matrices that no measure pair
gives.

``_gram_trial_failure`` runs 50 Gram matrices raw^T raw + I through
``gso.gram_schmidt``: each exact trial must pass the ``check_against_oracle``
certificate (a, h and Z) and its b, formed from a when read, must equal
``oracle_connection_column`` from one elimination of the trial matrix; each
float trial, which the kernel and the oracles read as the dyadic rationals
it holds, must match ``bordered_oracle`` (a) and ``oracle_connection_column``
(b) within FLOAT_RTOL of the column's scale.  ``_checkerboard_trial_failure``
runs 100 checkerboard matrices, half with a free last row, through
``gso.checkerboard_det``: det = even * odd, and the determinant does not move
when the off-parity entries of a free last row are shifted.
"""

import dataclasses
import random
from fractions import Fraction
from operator import mul

import pytest

from blockortho import gso
from blockortho.errors import OracleMismatch
from blockortho.linalg import LiftedElimination, identity
from blockortho.verification import _agree as _close


def _gram_trial_failure(backend, seed=20240601, samples=50):
    """The first failing Gram trial as a dict naming it, or None."""
    rng = random.Random(seed)
    for trial in range(samples):
        size = rng.randint(2, 7)
        raw = [[rng.randint(-4, 4) for _ in range(size)] for _ in range(size)]
        cols = list(zip(*raw))
        # raw^T raw + I, summed over integers and kept as ints
        gram = [
            [sum(map(mul, c_j, c_k)) + (j == k) for k, c_k in enumerate(cols)]
            for j, c_j in enumerate(cols)
        ]
        factors = [Fraction(rng.choice([1, 1, 2, -1, 3])) for _ in range(size)]
        if backend == "float":
            gram = [[float(x) for x in row] for row in gram]
            factors = [float(f) for f in factors]
        result = gso.gram_schmidt(gram, factors)
        elimination, scale = None, 1
        if backend == "exact":
            try:
                gso.check_against_oracle(gram, result, identity(size), "random Gram trial")
            except OracleMismatch as exc:
                return {"trial": trial, "n": exc.degree}
            elimination = LiftedElimination(gram)  # b's determinants for every column
        for n in range(size):
            if backend == "float":
                oracle = gso.bordered_oracle(gram, n, factors[n])[0]
                column = [result.coeffs[m][n] for m in range(n + 1)]
                scale = max(abs(x) for x in oracle) or 1
                if not all(_close(a, b, backend, scale) for a, b in zip(oracle, column)):
                    return {"trial": trial, "n": n}
            b_oracle = gso.oracle_connection_column(gram, n, factors[: n + 1], elimination)
            for m, (b, x) in enumerate(zip(b_oracle, result.inverse_coeffs)):
                if not _close(b, x[n], backend, scale):
                    return {"trial": trial, "n": n, "m": m, "which": "b"}
    return None


def _checkerboard_trial_failure(seed=20240602, samples=100):
    """The first failing checkerboard trial as a dict naming it, or None."""
    rng = random.Random(seed)
    for trial in range(samples):
        size = rng.randint(1, 8)
        m = [[0] * size for _ in range(size)]
        for j in range(size):
            for k in range(size):
                if (j + k) % 2 == 0:
                    m[j][k] = rng.randint(-5, 5)
        exempt = rng.random() < 0.5
        if exempt:
            for k in range(size):
                m[size - 1][k] = rng.randint(-5, 5)
        det, even, odd = gso.checkerboard_det(m, last_row_exempt=exempt)
        if det != even * odd:
            return {"trial": trial, "size": size}
        if exempt and size > 1:
            perturbed = [list(row) for row in m]
            for k in range(size):
                if (size - 1 + k) % 2 == 1:
                    perturbed[size - 1][k] += rng.randint(1, 3)
            if gso.checkerboard_det(perturbed, last_row_exempt=True)[0] != det:
                return {"trial": trial, "which": "exempt_invariance"}
    return None


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_random_gram_trials_pass(backend):
    assert _gram_trial_failure(backend) is None


def test_random_checkerboard_trials_pass():
    assert _checkerboard_trial_failure() is None


def test_exact_oracle_trial_failure_names_trial_and_degree(monkeypatch):
    original = gso.gram_schmidt

    def nudged(gram, factors):
        result = original(gram, factors)
        norms = list(result.norms)
        norms[1] += 1
        return dataclasses.replace(result, norms=tuple(norms))

    monkeypatch.setattr(gso, "gram_schmidt", nudged)
    assert _gram_trial_failure("exact") == {"trial": 0, "n": 1}


@pytest.mark.parametrize(
    "field, expect",
    [
        ("coeffs", {"trial": 0, "n": 1}),
        ("inverse_coeffs", {"trial": 0, "n": 1, "m": 0, "which": "b"}),
    ],
)
def test_float_oracle_trial_catches_a_nudged_kernel(monkeypatch, field, expect):
    original = gso.gram_schmidt

    def nudged(gram, factors):
        # a float Gram matrix runs the kernel on its dyadic values: a nudge
        # is a Fraction, and b, formed from a when read, is nudged where cached
        result = original(gram, factors)
        rows = [list(row) for row in getattr(result, field)]
        rows[0][1] += Fraction(1, 10**6)
        if field == "coeffs":
            return dataclasses.replace(result, coeffs=tuple(map(tuple, rows)))
        result.__dict__["inverse_coeffs"] = tuple(map(tuple, rows))
        return result

    monkeypatch.setattr(gso, "gram_schmidt", nudged)
    assert _gram_trial_failure("float") == expect


def test_exact_oracle_trial_compares_b_with_its_oracle(monkeypatch):
    # the exact trials certify a, h and Z, and check b by its bordered determinants
    original = gso.gram_schmidt

    def nudged(gram, factors):
        result = original(gram, factors)
        rows = [list(row) for row in result.inverse_coeffs]
        rows[0][1] += Fraction(1, 10**6)
        result.__dict__["inverse_coeffs"] = tuple(map(tuple, rows))
        return result

    monkeypatch.setattr(gso, "gram_schmidt", nudged)
    assert _gram_trial_failure("exact") == {"trial": 0, "n": 1, "m": 0, "which": "b"}


def test_checkerboard_trial_fails_on_a_changed_even_block_entry(monkeypatch):
    original = gso.checkerboard_det

    def changed(matrix, last_row_exempt=False):
        # the determinant of a matrix whose (0, 0) entry, in the even
        # block, differs from the one the block determinants are taken of
        _, even, odd = original(matrix, last_row_exempt)
        m = [list(row) for row in matrix]
        m[0][0] += 1
        return original(m, last_row_exempt)[0], even, odd

    monkeypatch.setattr(gso, "checkerboard_det", changed)
    assert "trial" in _checkerboard_trial_failure()
